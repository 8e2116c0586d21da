"""Unit tests for summary-based query routing (Section 5.2.1)."""

import itertools

import pytest

from repro.core.content import PlannedContentModel
from repro.core.domain import Domain
from repro.core.freshness import Freshness
from repro.core.routing import QueryRouter, QueryScratch, RoutingPolicy
from repro.core.session import SystemBuilder
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig


def _route(
    router,
    query_id,
    domain,
    content,
    policy=RoutingPolicy.ALL,
    online_peers=None,
    described_partners=None,
    charge_summary_peer_hop=True,
):
    """``outcome_in_domain`` on the sets the protocol engine would derive."""
    partners = domain.cooperation.partner_set
    return router.outcome_in_domain(
        query_id,
        domain,
        QueryScratch(itertools.count().__next__, content),
        None,
        policy,
        partners if described_partners is None else partners & described_partners,
        partners if online_peers is None else partners & online_peers,
        online_peers,
        charge_summary_peer_hop,
    )


@pytest.fixture
def domain_and_content():
    """A 20-partner domain with a planned content model (50 % hit rate)."""
    domain = Domain.create("sp")
    peer_ids = [f"p{i}" for i in range(20)]
    for index, peer_id in enumerate(peer_ids):
        domain.add_partner(peer_id, distance=float(index))
    content = PlannedContentModel(peer_ids, matching_fraction=0.5, seed=1)
    return domain, content, peer_ids


class TestRouteInDomain:
    def test_all_policy_contacts_every_relevant_peer(self, domain_and_content):
        domain, content, peer_ids = domain_and_content
        router = QueryRouter()
        outcome = _route(router, 0, domain, content)
        matching = content.plan_query(0)
        assert outcome.relevant_peers == matching
        assert outcome.contacted_peers == matching
        assert outcome.responding_peers == matching
        assert outcome.false_positives == set()
        assert outcome.false_negatives == set()

    def test_message_accounting(self, domain_and_content):
        domain, content, _peer_ids = domain_and_content
        router = QueryRouter()
        outcome = _route(router, 0, domain, content)
        expected = 1 + len(outcome.contacted_peers) + len(outcome.responding_peers)
        assert outcome.messages == expected
        # What the caller tallies: the responses, and the rest as queries.
        assert outcome.results == len(outcome.responding_peers)
        assert outcome.messages - outcome.results == 1 + len(outcome.contacted_peers)

    def test_no_summary_peer_hop_option(self, domain_and_content):
        domain, content, _peer_ids = domain_and_content
        router = QueryRouter()
        outcome = _route(router, 0, domain, content, charge_summary_peer_hop=False)
        assert outcome.messages == len(outcome.contacted_peers) + len(
            outcome.responding_peers
        )

    def test_departed_relevant_peer_is_false_positive(self, domain_and_content):
        domain, content, peer_ids = domain_and_content
        router = QueryRouter()
        victim = next(iter(content.plan_query(0)))
        content.mark_departed(victim)
        online = set(peer_ids) - {victim}
        outcome = _route(router, 0, domain, content, online_peers=online)
        assert victim in outcome.contacted_peers
        assert victim in outcome.false_positives
        assert victim not in outcome.responding_peers
        assert outcome.false_positive_rate > 0

    def test_precision_policy_excludes_stale_partners(self, domain_and_content):
        domain, content, _peer_ids = domain_and_content
        router = QueryRouter()
        stale_peer = next(iter(content.plan_query(0)))
        domain.cooperation.mark_stale(stale_peer)
        outcome = _route(router, 0, domain, content, policy=RoutingPolicy.PRECISION)
        assert stale_peer not in outcome.contacted_peers
        # The excluded peer still matches: it becomes a false negative.
        assert stale_peer in outcome.false_negatives
        assert outcome.false_positives == set()

    def test_recall_policy_includes_old_partners(self, domain_and_content):
        domain, content, _peer_ids = domain_and_content
        router = QueryRouter()
        non_matching = next(
            p for p in domain.partner_ids if p not in content.plan_query(0)
        )
        domain.cooperation.mark_stale(non_matching)
        outcome = _route(router, 0, domain, content, policy=RoutingPolicy.RECALL)
        assert non_matching in outcome.contacted_peers
        assert non_matching in outcome.false_positives
        assert outcome.false_negatives == set()

    def test_described_partners_restrict_relevance(self, domain_and_content):
        domain, content, _peer_ids = domain_and_content
        router = QueryRouter()
        matching = content.plan_query(0)
        described = set(list(matching)[:1])
        outcome = _route(router, 0, domain, content, described_partners=described)
        assert outcome.relevant_peers == described
        # Matching peers outside the described set are false negatives.
        assert (matching - described) <= outcome.false_negatives

    def test_rates_zero_when_nothing_contacted(self):
        domain = Domain.create("sp")
        domain.add_partner("p0", distance=1.0)
        content = PlannedContentModel(["p0"], matching_fraction=0.0)
        router = QueryRouter()
        outcome = _route(router, 0, domain, content)
        assert outcome.false_positive_rate == 0.0
        assert outcome.false_negative_rate == 0.0
        assert outcome.results == 0


class TestFloodingCost:
    def test_flooding_cost_counts_requests_and_probes(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=30, seed=2))
        domain = Domain.create(overlay.peer_ids[0])
        for peer_id in overlay.peer_ids[1:6]:
            domain.add_partner(peer_id, distance=1.0)
        router = QueryRouter()
        requests, probes = router.flooding_messages(
            overlay,
            domain,
            responding_peers=overlay.peer_ids[1:3],
            originator=overlay.peer_ids[10],
            known_summary_peers=["spX", "spY"],
            target_domains=1,
        )
        assert requests == 3  # the two responders and the originator
        assert probes >= 1

    def test_flooding_cost_zero_known_summary_peers(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=20, seed=3))
        domain = Domain.create(overlay.peer_ids[0])
        router = QueryRouter()
        cost = router.flooding_messages(
            overlay, domain, responding_peers=[], originator=overlay.peer_ids[1]
        )
        assert sum(cost) >= 1


    def test_own_summary_peer_is_not_a_long_range_link(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=20, seed=3))
        own = overlay.peer_ids[0]
        domain = Domain.create(own)

        def flood_queries(known):
            _requests, probes = QueryRouter().flooding_messages(
                overlay,
                domain,
                responding_peers=[],
                originator=overlay.peer_ids[1],
                known_summary_peers=known,
                target_domains=2,
            )
            return probes

        alone = flood_queries(())
        assert flood_queries({own: None}.keys()) == alone
        assert flood_queries({own: None, "spX": None}.keys()) == alone + 1
        assert flood_queries(["spX", "spY", "spZ"]) == alone + 2  # target_domains caps


class TestSetMatchingEquivalence:
    """Set-intersection responding peers == the per-peer ``truly_matching`` loop."""

    def test_matching_among_equals_reference_loop(self, domain_and_content):
        _domain, content, peer_ids = domain_and_content
        content.mark_departed(peer_ids[3])
        subset = set(peer_ids[::2])
        for query_id in range(4):
            expected = {
                peer_id
                for peer_id in subset
                if content.truly_matching(query_id, peer_id)
            }
            assert content.bind_query(query_id, None).matching(subset) == expected
            assert content.matching_among(query_id, subset) == expected

    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    def test_route_outcomes_identical_across_paths(self, domain_and_content, policy):
        domain, content, peer_ids = domain_and_content
        content.mark_departed(peer_ids[3])
        domain.cooperation.mark_stale(peer_ids[7])
        online = set(peer_ids) - {peer_ids[5]}
        partners = set(domain.partner_ids)

        router = QueryRouter()
        for query_id in range(5):
            outcome = _route(
                router, query_id, domain, content, policy=policy, online_peers=online
            )
            assert outcome.responding_peers == {
                peer_id
                for peer_id in outcome.contacted_peers & online
                if content.truly_matching(query_id, peer_id)
            }
            assert outcome.false_negatives == {
                peer_id
                for peer_id in (partners & online) - outcome.contacted_peers
                if content.truly_matching(query_id, peer_id)
            }
            assert outcome.false_positives == (
                outcome.contacted_peers - outcome.responding_peers
            )


class TestFloodingCostCache:
    """Memoized extra-domain neighbour counts == a fresh router's (empty memo)."""

    def _setup(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=30, seed=2))
        domain = Domain.create(overlay.peer_ids[0])
        for peer_id in overlay.peer_ids[1:6]:
            domain.add_partner(peer_id, distance=1.0)
        kwargs = dict(
            responding_peers=overlay.peer_ids[1:4],
            originator=overlay.peer_ids[10],
            known_summary_peers=["spX", "spY"],
            target_domains=1,
        )
        return overlay, domain, kwargs

    def test_cached_cost_equals_reference(self):
        overlay, domain, kwargs = self._setup()
        cached = QueryRouter()
        for _ in range(3):
            assert cached.flooding_messages(
                overlay, domain, **kwargs
            ) == QueryRouter().flooding_messages(overlay, domain, **kwargs)

    def test_repeat_calls_hit_the_cache(self):
        overlay, domain, kwargs = self._setup()
        router = QueryRouter()
        first = router.flooding_messages(overlay, domain, **kwargs)
        entries = dict(router._online_neighbours)
        assert entries, "the first call must populate the cache"
        assert router.flooding_messages(overlay, domain, **kwargs) == first
        assert router._online_neighbours == entries
        assert all(
            router._online_neighbours[peer] is cached for peer, cached in entries.items()
        ), "a repeat call must not recompute"

    def test_status_flip_invalidates(self):
        overlay, domain, kwargs = self._setup()
        router = QueryRouter()
        router.flooding_messages(overlay, domain, **kwargs)
        version = overlay.version
        peer_id = overlay.peer_ids[10]
        overlay.set_online(peer_id, not overlay.is_online(peer_id))
        assert overlay.version > version
        assert router.flooding_messages(
            overlay, domain, **kwargs
        ) == QueryRouter().flooding_messages(overlay, domain, **kwargs)

    def test_domain_membership_mutation_invalidates(self):
        overlay, domain, kwargs = self._setup()
        router = QueryRouter()
        router.flooding_messages(overlay, domain, **kwargs)
        # Absorbing the originator into the domain shrinks its outside set.
        domain.add_partner(kwargs["originator"], distance=1.0)
        assert router.flooding_messages(
            overlay, domain, **kwargs
        ) == QueryRouter().flooding_messages(overlay, domain, **kwargs)

    def test_memo_is_bounded_by_the_peer_count(self):
        """A long-lived session's memo cannot outgrow the overlay, whoever asks."""
        session = (
            SystemBuilder()
            .topology(peer_count=400, average_degree=4)
            .planned_content(hit_rate=0.1)
            .churn(duration_seconds=3600.0)
            .seed(5)
            .build()
        )
        overlay = session.overlay
        router = session.system._router  # noqa: SLF001
        originators = session.partner_ids()[:300]
        assert len(set(originators)) == 300
        for originator in originators:
            session.query(originator, required_results=40)
        assert 0 < len(router._online_neighbours) <= overlay.size

        version = overlay.version
        session.run_until(1800.0)
        assert overlay.version != version
        session.query(originators[0], required_results=40)
        memo = router._online_neighbours
        assert 0 < len(memo) <= overlay.size
        # Nothing derived from an earlier overlay version survives.
        assert memo == {peer: set(overlay.neighbors(peer)) for peer in memo}
