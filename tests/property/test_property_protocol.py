"""Property-based tests for protocol-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.cooperation import CooperationList
from repro.core.domain import Domain
from repro.core.maintenance import MaintenanceEngine
from repro.core.content import PlannedContentModel
from repro.core.routing import QueryRouter, QueryScratch, RoutingPolicy
from repro.costmodel.query_cost import domain_query_cost
from repro.network.simulator import Simulator


class TestCooperationListProperties:
    @given(
        st.integers(min_value=1, max_value=60),
        st.sets(st.integers(min_value=0, max_value=59)),
    )
    @settings(max_examples=100)
    def test_old_fraction_matches_marked_subset(self, partner_count, stale_indices):
        cooperation = CooperationList()
        for index in range(partner_count):
            cooperation.add_partner(f"p{index}")
        stale = {i for i in stale_indices if i < partner_count}
        for index in stale:
            cooperation.mark_stale(f"p{index}")
        assert cooperation.old_fraction() == len(stale) / partner_count
        assert set(cooperation.old_partners()) == {f"p{i}" for i in stale}

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_reset_clears_reconciliation_condition(self, partner_count, alpha):
        cooperation = CooperationList()
        for index in range(partner_count):
            cooperation.add_partner(f"p{index}")
            cooperation.mark_stale(f"p{index}")
        assert cooperation.needs_reconciliation(alpha)
        cooperation.reset_all()
        assert not cooperation.needs_reconciliation(alpha)


def _route(domain, content, policy):
    """Query 0 routed in ``domain``: every partner described and online."""
    partners = domain.cooperation.partner_set
    scratch = QueryScratch(lambda: 0, content)
    return QueryRouter().outcome_in_domain(
        0, domain, scratch, None, policy, partners, partners, None
    )


class TestRoutingProperties:
    @given(
        st.integers(min_value=2, max_value=50),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(list(RoutingPolicy)),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_routing_set_and_accounting_invariants(
        self, partner_count, matching_fraction, policy, seed
    ):
        domain = Domain.create("sp")
        peer_ids = [f"p{i}" for i in range(partner_count)]
        for index, peer_id in enumerate(peer_ids):
            domain.add_partner(peer_id, distance=float(index))
            if index % 3 == 0:
                domain.cooperation.mark_stale(peer_id)
        content = PlannedContentModel(
            peer_ids, matching_fraction=matching_fraction, seed=seed
        )
        outcome = _route(domain, content, policy)

        partners = set(domain.partner_ids)
        assert outcome.contacted_peers <= partners
        assert outcome.responding_peers <= outcome.contacted_peers
        assert outcome.false_positives == outcome.contacted_peers - outcome.responding_peers
        assert outcome.false_negatives.isdisjoint(outcome.contacted_peers)
        # Message count identity: 1 hop to the SP + queries + responses.
        assert outcome.messages == 1 + len(outcome.contacted_peers) + len(
            outcome.responding_peers
        )
        # The simulated per-domain cost never exceeds the analytical C_d with FP=0.
        assert outcome.messages <= domain_query_cost(len(outcome.contacted_peers)) + 1e-9

    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_precision_policy_never_contacts_stale_partners(self, partner_count, seed):
        domain = Domain.create("sp")
        peer_ids = [f"p{i}" for i in range(partner_count)]
        for index, peer_id in enumerate(peer_ids):
            domain.add_partner(peer_id, distance=1.0)
            if index % 2 == 0:
                domain.cooperation.mark_stale(peer_id)
        content = PlannedContentModel(peer_ids, matching_fraction=0.5, seed=seed)
        outcome = _route(domain, content, RoutingPolicy.PRECISION)
        assert outcome.contacted_peers.isdisjoint(set(domain.old_partners()))
        assert outcome.false_positives == set()


class TestMaintenanceProperties:
    @given(
        st.integers(min_value=2, max_value=60),
        st.floats(min_value=0.05, max_value=1.0),
        st.lists(st.integers(min_value=0, max_value=59), min_size=0, max_size=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_old_fraction_never_exceeds_alpha_after_prompt_reconciliation(
        self, partner_count, alpha, push_sequence
    ):
        """If the SP reconciles as soon as the threshold is hit, the fraction of
        old descriptions observed right after any push never exceeds alpha (plus
        the one push that crossed it)."""
        config = ProtocolConfig(freshness_threshold=alpha)
        engine = MaintenanceEngine(config)
        domain = Domain.create("sp")
        for index in range(partner_count):
            domain.add_partner(f"p{index}", distance=1.0)
        for raw_index in push_sequence:
            peer_id = f"p{raw_index % partner_count}"
            due = engine.push_stale(domain, peer_id)
            if due:
                engine.reconcile(domain)
            assert domain.old_fraction() <= alpha + 1.0 / partner_count


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
    @settings(max_examples=60)
    def test_events_always_fire_in_non_decreasing_time_order(self, delays):
        simulator = Simulator()
        fired = []
        for delay in delays:
            simulator.schedule(delay, lambda d=delay: fired.append(simulator.now))
        simulator.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
