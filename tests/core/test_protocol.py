"""Integration-level tests for the end-to-end protocol engine."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import (
    QUERY_MESSAGE_TYPES,
    UPDATE_MESSAGE_TYPES,
    SummaryManagementSystem,
)
from repro.core.routing import RoutingPolicy
from repro.exceptions import NetworkError, ProtocolError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.churn import LifetimeDistribution
from repro.network.messages import MessageType
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.workloads.patients import build_peer_databases, MedicalWorkload
from repro.workloads.queries import paper_example_query


def _planned_system(peer_count=64, alpha=0.3, seed=0, superpeer_fraction=1 / 16):
    overlay = Overlay.generate(TopologyConfig(peer_count=peer_count, seed=seed))
    config = ProtocolConfig(
        freshness_threshold=alpha, superpeer_fraction=superpeer_fraction
    )
    system = SummaryManagementSystem(overlay, config=config, seed=seed)
    system.use_planned_content(matching_fraction=0.1, seed=seed)
    system.build_domains()
    return system


class TestSetup:
    def test_build_domains_assigns_every_peer(self):
        system = _planned_system()
        superpeers = set(system.domains)
        for peer_id in system.overlay.peer_ids:
            if peer_id in superpeers:
                continue
            assert system.assignment[peer_id] in superpeers

    def test_domain_of_lookup(self):
        system = _planned_system()
        sp_id = next(iter(system.domains))
        assert system.domain_of(sp_id).summary_peer_id == sp_id
        partner = next(iter(system.assignment))
        assert system.domain_of(partner) is not None

    def test_query_without_content_raises(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=1))
        system = SummaryManagementSystem(overlay)
        system.build_domains()
        with pytest.raises(ProtocolError):
            system.pose_query(overlay.peer_ids[0])


class TestPlannedQueries:
    def test_single_domain_query_counts_messages(self):
        system = _planned_system()
        originator = next(iter(system.assignment))
        result = system.pose_query(originator, max_domains=1)
        assert result.domains_visited == 1
        outcome = result.domain_outcomes[0]
        assert result.total_messages == outcome.messages
        assert outcome.messages >= 1

    def test_total_lookup_query_visits_multiple_domains(self):
        system = _planned_system()
        originator = next(iter(system.assignment))
        required = round(0.1 * system.overlay.size)
        result = system.pose_query(originator, required_results=required)
        assert result.results >= required
        assert result.domains_visited >= 2
        assert result.satisfied()
        assert result.flooding_messages > 0

    def test_no_false_answers_without_churn(self):
        system = _planned_system()
        originator = next(iter(system.assignment))
        result = system.pose_query(originator, required_results=5)
        assert result.false_positive_rate == 0.0
        assert result.false_negative_rate == 0.0

    def test_query_traffic_recorded_by_type(self):
        system = _planned_system()
        before = system.counter.count_types(list(QUERY_MESSAGE_TYPES))
        system.pose_query(next(iter(system.assignment)), required_results=3)
        assert system.counter.count_types(list(QUERY_MESSAGE_TYPES)) > before

    def test_query_and_query_id_together_rejected(self):
        """Passing both would silently ignore query_id; it must raise instead."""
        system = _planned_system()
        originator = next(iter(system.assignment))
        with pytest.raises(ProtocolError, match="either query or query_id"):
            system.pose_query(
                originator, query=paper_example_query(), query_id=7
            )
        # The ambiguous call must not have consumed an id.
        assert system.next_query_id() == 0


class TestRoutingEdges:
    """Edge cases of the SQ routing surface."""

    def test_max_domains_caps_a_total_lookup(self):
        """required_results keeps extending only until max_domains cuts it off."""
        system = _planned_system()
        originator = next(iter(system.assignment))
        # Ask for more results than a single domain can provide...
        unbounded = system.pose_query(
            originator, required_results=system.overlay.size
        )
        assert unbounded.domains_visited == len(system.domains)
        # ...then cap the visit at one domain: the quota stays unmet.
        capped = system.pose_query(
            originator, required_results=system.overlay.size, max_domains=1
        )
        assert capped.domains_visited == 1
        assert not capped.satisfied()
        assert capped.results <= unbounded.results

    def test_required_results_stops_before_max_domains(self):
        """A satisfied quota stops the walk even with domain budget left."""
        system = _planned_system()
        originator = next(iter(system.assignment))
        result = system.pose_query(
            originator, required_results=1, max_domains=len(system.domains)
        )
        assert result.satisfied()
        assert result.domains_visited < len(system.domains)

    def test_max_domains_zero_visits_nothing(self):
        system = _planned_system()
        originator = next(iter(system.assignment))
        result = system.pose_query(originator, max_domains=0)
        assert result.domains_visited == 0
        assert result.results == 0
        assert result.total_messages == 0

    def test_empty_domain_network_yields_empty_result(self):
        """A network with no built domains answers with an empty result."""
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=9))
        system = SummaryManagementSystem(overlay, seed=9)
        system.use_planned_content(matching_fraction=0.1, seed=9)
        # build_domains is never called: there is nothing to route through.
        result = system.pose_query(overlay.peer_ids[0], required_results=3)
        assert result.domains_visited == 0
        assert result.results == 0
        assert result.total_messages == 0
        assert not result.satisfied()


class TestChurnAndMaintenance:
    def test_schedule_churn_generates_departures(self):
        system = _planned_system(peer_count=48)
        scheduled = system.schedule_churn(
            6 * 3600.0, lifetime=LifetimeDistribution(), graceful_fraction=1.0
        )
        assert scheduled > 0
        system.run(until=6 * 3600.0)
        assert system.counter.count_types(list(UPDATE_MESSAGE_TYPES)) > 0

    def test_reconciliation_triggered_by_churn(self):
        system = _planned_system(peer_count=48, alpha=0.1)
        system.schedule_churn(8 * 3600.0, graceful_fraction=1.0)
        system.run()
        assert system.maintenance.stats.reconciliations > 0

    def test_higher_alpha_reconciles_less(self):
        low = _planned_system(peer_count=48, alpha=0.1, seed=3)
        high = _planned_system(peer_count=48, alpha=0.8, seed=3)
        for system in (low, high):
            system.schedule_churn(8 * 3600.0, graceful_fraction=1.0)
            system.run()
        assert (
            low.maintenance.stats.reconciliations
            >= high.maintenance.stats.reconciliations
        )

    def test_modifications_generate_push_messages(self):
        system = _planned_system(peer_count=32)
        scheduled = system.schedule_modifications(3600.0, 1.0 / 600.0)
        assert scheduled > 0
        system.run()
        assert system.counter.count(MessageType.PUSH) > 0

    def test_a_database_for_an_unknown_peer_is_refused(self, background):
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=2))
        system = SummaryManagementSystem(overlay, background=background)
        databases = build_peer_databases(["p999"], MedicalWorkload(records_per_peer=3))
        with pytest.raises(NetworkError, match="unknown peer 'p999'"):
            system.attach_databases(databases)

    def test_staleness_snapshot_requires_planned_content(self, background):
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=2))
        system = SummaryManagementSystem(overlay, background=background)
        databases = build_peer_databases(
            overlay.peer_ids, MedicalWorkload(records_per_peer=3)
        )
        system.attach_databases(databases)
        system.build_domains()
        with pytest.raises(ProtocolError):
            system.staleness_snapshot()

    def test_staleness_snapshot_after_churn(self):
        system = _planned_system(peer_count=64, alpha=0.5)
        system.schedule_churn(4 * 3600.0, graceful_fraction=1.0, rejoin=False)
        system.run()
        snapshot = system.staleness_snapshot()
        assert snapshot.relevant_count >= 0
        assert 0.0 <= snapshot.worst_stale_fraction <= 1.0
        assert snapshot.real_false_negative_fraction <= snapshot.worst_stale_fraction + 1e-9

    def test_update_traffic_report(self):
        system = _planned_system(peer_count=32)
        system.schedule_churn(3600.0, graceful_fraction=1.0)
        system.run()
        report = system.update_traffic_report(3600.0)
        assert report.total_messages >= 0
        assert report.peer_count == 32


class TestRealContent:
    @pytest.fixture
    def real_system(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=24, seed=4))
        background = medical_background_knowledge()
        config = ProtocolConfig(superpeer_fraction=1 / 8)
        system = SummaryManagementSystem(overlay, config=config, background=background, seed=4)
        databases = build_peer_databases(
            overlay.peer_ids,
            MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=4),
        )
        system.attach_databases(databases)
        system.build_domains()
        return system

    def test_domains_have_global_summaries(self, real_system):
        assert any(d.has_global_summary() for d in real_system.domains.values())

    def test_real_query_finds_matching_peers(self, real_system):
        originator = next(iter(real_system.assignment))
        result = real_system.pose_query(
            originator, query=paper_example_query(), policy=RoutingPolicy.ALL
        )
        assert result.results > 0
        # Relevance came from real summaries; responses from real databases.
        assert result.responding_peers <= result.contacted_peers

    def test_real_query_has_no_false_negatives_in_static_network(self, real_system):
        originator = next(iter(real_system.assignment))
        result = real_system.pose_query(originator, query=paper_example_query())
        assert result.false_negative_rate == 0.0
