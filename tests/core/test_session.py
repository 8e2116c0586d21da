"""Tests of the declarative session façade (SystemBuilder / NetworkSession)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import SummaryManagementSystem
from repro.core.routing import QueryRequest
from repro.core.session import (
    MaintenanceReport,
    NetworkSession,
    QueryAnswer,
    SessionTraffic,
    SystemBuilder,
)
from repro.exceptions import ConfigurationError, ProtocolError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query


def _planned_builder(peer_count=64, seed=0, hit_rate=0.1):
    return (
        SystemBuilder()
        .topology(peer_count=peer_count, average_degree=4)
        .planned_content(hit_rate=hit_rate)
        .seed(seed)
    )


class TestBuilderValidation:
    def test_missing_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="no topology"):
            SystemBuilder().planned_content().build()

    def test_missing_content_rejected(self):
        with pytest.raises(ConfigurationError, match="no content"):
            SystemBuilder().topology(peer_count=16).build()

    def test_both_content_modes_rejected(self):
        databases = {"p0": object()}
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            (
                SystemBuilder()
                .topology(peer_count=16)
                .planned_content()
                .real_content(databases)  # type: ignore[arg-type]
                .build()
            )

    def test_real_content_requires_background(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=8, seed=1))
        databases = build_peer_databases(
            overlay.peer_ids, MedicalWorkload(records_per_peer=2, seed=1)
        )
        with pytest.raises(ConfigurationError, match="background"):
            SystemBuilder().topology(overlay).real_content(databases).build()

    def test_bad_hit_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="hit_rate"):
            SystemBuilder().topology(peer_count=16).planned_content(
                hit_rate=1.5
            ).build()

    def test_bad_churn_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="duration_seconds"):
            _planned_builder(16).churn(duration_seconds=0.0).build()

    def test_bad_graceful_fraction_rejected(self):
        with pytest.raises(ConfigurationError, match="graceful_fraction"):
            _planned_builder(16).churn(3600.0, graceful_fraction=2.0).build()

    def test_negative_modification_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="rate_per_peer"):
            _planned_builder(16).modifications(3600.0, -1.0).build()

    def test_churn_without_domains_rejected(self):
        with pytest.raises(ConfigurationError, match="domains"):
            _planned_builder(16).domains(build=False).churn(3600.0).build()

    def test_topology_overlay_and_peer_count_conflict(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=8, seed=1))
        with pytest.raises(ConfigurationError, match="not both"):
            SystemBuilder().topology(overlay, peer_count=8)

    def test_topology_overlay_with_generation_knobs_rejected(self):
        """Knobs silently dropped on a prebuilt topology would hide seed sweeps."""
        overlay = Overlay.generate(TopologyConfig(peer_count=8, seed=1))
        with pytest.raises(ConfigurationError, match="not both"):
            SystemBuilder().topology(overlay, seed=9)
        with pytest.raises(ConfigurationError, match="not both"):
            SystemBuilder().topology(TopologyConfig(peer_count=8), average_degree=6)

    def test_protocol_config_and_kwargs_conflict(self):
        with pytest.raises(ConfigurationError, match="not both"):
            SystemBuilder().protocol(ProtocolConfig(), freshness_threshold=0.5)

    def test_protocol_knobs_validated_by_config(self):
        with pytest.raises(ConfigurationError):
            _planned_builder(16).protocol(freshness_threshold=7.0).build()


class TestBuildOutcome:
    def test_build_returns_session_with_domains(self):
        session = _planned_builder().build()
        assert isinstance(session, NetworkSession)
        assert session.planned
        assert session.domains
        assert session.construction_report is not None
        members = set(session.domains) | set(session.system.assignment)
        assert members == set(session.overlay.peer_ids)

    def test_domains_build_false_leaves_network_flat(self):
        session = _planned_builder().domains(build=False).build()
        assert session.domains == {}
        assert session.construction_report is None

    def test_forced_summary_peers_are_respected(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=32, seed=3))
        hub = max(overlay.peer_ids, key=overlay.degree)
        session = (
            SystemBuilder()
            .topology(overlay)
            .planned_content()
            .domains(summary_peers=[hub])
            .seed(3)
            .build()
        )
        assert set(session.domains) == {hub}

    def test_horizon_tracks_schedules(self):
        session = (
            _planned_builder(32)
            .churn(3600.0)
            .modifications(7200.0, 1.0 / 1800.0)
            .build()
        )
        assert session.horizon == 7200.0


class TestLegacyEquivalence:
    """The acceptance bar: session.query must match legacy pose_query exactly."""

    def _legacy_system(self, seed):
        overlay = Overlay.generate(
            TopologyConfig(peer_count=64, average_degree=4.0, seed=seed)
        )
        system = SummaryManagementSystem(overlay, config=ProtocolConfig(), seed=seed)
        system.use_planned_content(matching_fraction=0.1, seed=seed)
        system.build_domains()
        return system

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_routing_and_traffic_byte_identical(self, seed):
        session = _planned_builder(seed=seed).build()
        legacy = self._legacy_system(seed)

        originator = session.default_originator()
        for required in (None, 3, 64):
            answer = session.query(originator, required_results=required)
            result = legacy.pose_query(originator, required_results=required)
            assert answer.query_id == result.query_id
            assert answer.results == result.results
            assert answer.total_messages == result.total_messages
            assert answer.routing.flooding_messages == result.flooding_messages
            assert answer.contacted_peers == result.contacted_peers
            assert answer.responding_peers == result.responding_peers
        assert (
            session.system.counter.by_type() == legacy.counter.by_type()
        ), "message accounting diverged between the façade and the legacy path"

    def test_staleness_snapshot_does_not_perturb_ids_or_traffic(self):
        with_staleness = _planned_builder(seed=5).build()
        without = _planned_builder(seed=5).build()
        a = with_staleness.query(include_staleness=True)
        b = without.query(include_staleness=False)
        assert a.staleness is not None and b.staleness is None
        assert a.query_id == b.query_id
        assert a.total_messages == b.total_messages
        assert with_staleness.next_query_id() == without.next_query_id()


class TestQuerySurface:
    def test_query_answer_bundles_everything_planned(self):
        session = _planned_builder().build()
        answer = session.query(required_results=5)
        assert isinstance(answer, QueryAnswer)
        assert answer.results >= 5
        assert answer.staleness is not None
        assert answer.staleness.query_id == answer.query_id
        assert answer.query_messages == answer.total_messages
        assert answer.update_messages == 0
        assert answer.answer is None  # no real content to answer from
        assert answer.posed_at == session.now

    def test_query_batch_cycles_originators(self):
        session = _planned_builder().build()
        answers = session.query_batch(count=5, required_results=2)
        assert len(answers) == 5
        assert [a.query_id for a in answers] == [0, 1, 2, 3, 4]
        assert len({a.originator for a in answers}) > 1

    def test_query_batch_requires_exactly_one_input(self):
        session = _planned_builder().build()
        with pytest.raises(ConfigurationError, match="exactly one"):
            session.query_batch()
        with pytest.raises(ConfigurationError, match="exactly one"):
            session.query_batch(count=2, queries=[paper_example_query()])

    @pytest.mark.parametrize("limit", ["required_results", "max_domains"])
    def test_negative_limit_is_rejected_before_anything_moves(self, limit):
        """-1 used to route silently: ``max_domains=-1`` reached no domain,
        ``required_results=-1`` stopped after the first one."""
        session = _planned_builder().build()
        counter = session.system.counter.state_payload()
        valid = QueryRequest(session.default_originator(), required_results=2)
        invalid = QueryRequest(session.default_originator(), **{limit: -1})
        for pose in (
            lambda: session.query(**{limit: -1}),
            lambda: session.query_batch(count=2, **{limit: -1}),
            # The valid request ahead of the bad one is not posed either.
            lambda: session.query_batch(requests=[valid, invalid]),
            lambda: session.system.pose_query(
                session.default_originator(), **{limit: -1}
            ),
        ):
            with pytest.raises(ProtocolError, match=f"{limit} must be at least 0"):
                pose()
        assert session.system.counter.state_payload() == counter
        assert session.query(**{limit: 0}).query_id == 0  # no id was spent

    def test_staleness_passthrough_requires_planned_content(self):
        session = _real_session()
        with pytest.raises(ProtocolError):
            session.staleness()

    def test_explicit_staleness_on_real_content_surfaces_the_error(self):
        """include_staleness=True must not be silently ignored in real mode."""
        session = _real_session()
        with pytest.raises(ProtocolError, match="planned content"):
            session.query(query=paper_example_query(), include_staleness=True)


def _real_session(peer_count=24, seed=4):
    overlay = Overlay.generate(TopologyConfig(peer_count=peer_count, seed=seed))
    databases = build_peer_databases(
        overlay.peer_ids,
        MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=seed),
    )
    return (
        SystemBuilder()
        .topology(overlay)
        .background(medical_background_knowledge())
        .protocol(superpeer_fraction=1 / 8)
        .real_content(databases)
        .seed(seed)
        .build()
    )


class TestRealContentSession:
    def test_real_query_carries_approximate_answer(self):
        session = _real_session()
        answer = session.query(query=paper_example_query())
        assert answer.results > 0
        assert answer.staleness is None
        assert answer.answer is not None
        assert not answer.answer.is_empty
        labels = answer.answer.merged_output().get("age", frozenset())
        assert labels  # the example query characterizes ages

    def test_answer_can_be_disabled(self):
        session = _real_session()
        answer = session.query(query=paper_example_query(), include_answer=False)
        assert answer.answer is None

    def test_query_batch_over_real_queries(self):
        session = _real_session()
        answers = session.query_batch(queries=[paper_example_query()] * 3)
        assert len(answers) == 3
        assert all(a.results > 0 for a in answers)


class TestSimulationAndReports:
    def test_run_until_defaults_to_horizon(self):
        session = _planned_builder(48).churn(3600.0).build()
        events = session.run_until()
        assert events > 0
        assert session.now == 3600.0

    def test_maintenance_report_and_traffic(self):
        session = (
            _planned_builder(48)
            .churn(4 * 3600.0, graceful_fraction=1.0)
            .modifications(4 * 3600.0, 1.0 / 1800.0)
            .build()
        )
        session.run_until()
        report = session.maintenance_report()
        assert isinstance(report, MaintenanceReport)
        assert report.duration_seconds == 4 * 3600.0
        assert report.push_messages > 0
        assert report.update_messages > 0
        assert report.messages_per_node > 0
        traffic = session.traffic()
        assert isinstance(traffic, SessionTraffic)
        assert traffic.update.total_messages == report.update_messages
        session.query(required_results=2)
        assert session.traffic().query.total_messages > 0

    def test_wrapping_an_existing_system(self):
        """Migration path: NetworkSession over a hand-wired engine."""
        overlay = Overlay.generate(TopologyConfig(peer_count=32, seed=2))
        system = SummaryManagementSystem(overlay, seed=2)
        system.use_planned_content(matching_fraction=0.1, seed=2)
        system.build_domains()
        session = NetworkSession(system)
        answer = session.query(required_results=1)
        assert answer.results >= 1
