"""Session checkpoint/restore: byte-identical continuation guarantees.

The acceptance bar of the store subsystem: a session checkpointed to any
backend and restored via ``SystemBuilder.from_checkpoint`` answers queries
with routing results, staleness snapshots and traffic reports *equal* to the
never-persisted session — including checkpoints taken mid-simulation with
churn and modification events still pending.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.database.schema import patient_schema
from repro.exceptions import NetworkError, StoreError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.faults import FaultPlan, LinkFaults
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.serialization import hierarchy_content_hash
from repro.store import (
    CHECKPOINT_KIND,
    InMemoryBackend,
    JsonDirectoryBackend,
    SqliteBackend,
)
from repro.store.checkpoint import (
    _overlay_from_payload,
    _overlay_payload,
    list_checkpoints,
)
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query
from repro.workloads.registry import default_registry


@pytest.fixture(params=["memory", "json", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield InMemoryBackend()
    elif request.param == "json":
        yield JsonDirectoryBackend(tmp_path / "store")
    else:
        store = SqliteBackend(tmp_path / "store.sqlite")
        yield store
        store.close()


def _build(scenario_name, **overrides):
    scenario = default_registry().scenario(scenario_name, **overrides)
    return scenario.apply_dynamics(scenario.builder()).build()


def _drive(session, queries=8, required=3):
    """Run the session to its horizon and collect every observable output."""
    session.run_until()
    answers = [session.query(required_results=required) for _ in range(queries)]
    return {
        "routing": [answer.routing for answer in answers],
        "staleness": [answer.staleness for answer in answers],
        "traffic": session.traffic(),
        "maintenance": session.maintenance_report(),
        "final_staleness": session.staleness(),
    }


def _assert_identical(reference, restored):
    assert restored["routing"] == reference["routing"]
    assert restored["staleness"] == reference["staleness"]
    assert restored["traffic"] == reference["traffic"]
    assert restored["maintenance"] == reference["maintenance"]
    assert restored["final_staleness"] == reference["final_staleness"]


class TestTable3Scenarios:
    """The named Table-3 scenarios restore byte-identically on every backend."""

    @pytest.mark.parametrize(
        "scenario_name", ["table3-default", "churn-heavy", "high-freshness"]
    )
    def test_fresh_checkpoint_continues_identically(self, backend, scenario_name):
        reference = _drive(_build(scenario_name))

        live = _build(scenario_name)
        live.checkpoint(backend, name=scenario_name)
        restored = SystemBuilder.from_checkpoint(backend, name=scenario_name)
        _assert_identical(reference, _drive(restored))

    def test_smoke_scenario_via_session_facade(self, backend):
        reference = _drive(_build("smoke"), queries=5, required=2)
        live = _build("smoke")
        assert live.checkpoint(backend) == "session"
        restored = SystemBuilder.from_checkpoint(backend)
        _assert_identical(reference, _drive(restored, queries=5, required=2))

    def test_restored_metadata_matches(self, backend):
        live = _build("smoke")
        live.checkpoint(backend)
        restored = SystemBuilder.from_checkpoint(backend)
        assert restored.horizon == live.horizon
        assert restored.now == live.now
        assert restored.overlay.peer_ids == live.overlay.peer_ids
        assert list(restored.domains) == list(live.domains)
        assert restored.config == live.config
        assert restored.planned


class TestOneTally:
    """The message counter is the checkpoint's one tally of what a run sent."""

    def test_older_planned_checkpoint_continues_identically(
        self, backend, with_removed_tallies
    ):
        # Written while the maintenance engine kept message copies and a
        # reconciliation history and the protocol had two backoff knobs.
        reference_session = _build("smoke")
        reference_session.run_until(reference_session.horizon / 2)
        reference = _drive(reference_session)

        live = _build("smoke")
        live.run_until(live.horizon / 2)
        live.checkpoint(backend, name="mid")
        document = with_removed_tallies(backend.get(CHECKPOINT_KIND, "mid"))
        assert document["maintenance"]["history"]
        assert "retry_backoff_seconds" in document["config"]
        backend.put(CHECKPOINT_KIND, "older", document)

        restored = SystemBuilder.from_checkpoint(backend, name="older")
        assert restored.config == live.config
        assert restored.system.maintenance.stats == live.system.maintenance.stats
        _assert_identical(reference, _drive(restored))

    def test_fresh_checkpoint_has_none_of_the_removed_keys(self, backend):
        session = (
            SystemBuilder()
            .topology(peer_count=24, seed=4)
            .planned_content(hit_rate=0.2)
            .faults(FaultPlan(seed=1, link=LinkFaults(drop_probability=0.2)))
            .seed(4)
            .build()
        )
        session.run_until(1800.0)
        session.checkpoint(backend, name="fresh")
        document = backend.get(CHECKPOINT_KIND, "fresh")
        assert "retry_backoff_seconds" not in document["config"]
        assert "retry_backoff_factor" not in document["config"]
        assert set(document["maintenance"]) == {"reconciliations", "cold_starts"}
        assert "stats" not in document["faults"]


class TestCheckpointUnderChurn:
    """Checkpoint mid-simulation, after departures/rejoins already happened."""

    @pytest.mark.parametrize("when", [0.25, 0.5, 0.9])
    def test_mid_simulation_checkpoint_continues_identically(self, tmp_path, when):
        scenario_name = "churn-heavy"
        store = SqliteBackend(tmp_path / "mid.sqlite")

        reference_session = _build(scenario_name)
        horizon = reference_session.horizon
        reference_session.run_until(when * horizon)
        reference = _drive(reference_session)

        live = _build(scenario_name)
        live.run_until(when * horizon)
        # Real churn already executed and more events are still pending.
        assert live.system.simulator.processed_events > 0
        assert live.system.simulator.pending_events > 0
        live.checkpoint(store, name="mid")

        restored = SystemBuilder.from_checkpoint(store, name="mid")
        assert restored.now == live.now
        _assert_identical(reference, _drive(restored))
        store.close()

    def test_interleaved_queries_then_checkpoint(self, tmp_path):
        """Queries before the checkpoint advance RNG/plan state that must persist."""
        reference_session = _build("table3-default")
        reference_session.run_until(3600.0)
        early_reference = [reference_session.query() for _ in range(4)]
        reference = _drive(reference_session)

        live = _build("table3-default")
        live.run_until(3600.0)
        early_live = [live.query() for _ in range(4)]
        assert [a.routing for a in early_live] == [a.routing for a in early_reference]
        live.checkpoint(tmp_path / "store")

        restored = SystemBuilder.from_checkpoint(tmp_path / "store")
        _assert_identical(reference, _drive(restored))


class TestRealContent:
    @pytest.fixture
    def real_session_factory(self):
        def factory():
            overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=3))
            background = medical_background_knowledge()
            workload = MedicalWorkload(
                records_per_peer=6, matching_fraction=0.25, seed=3
            )
            databases = build_peer_databases(overlay.peer_ids, workload)
            session = (
                SystemBuilder()
                .topology(overlay)
                .background(background)
                .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
                .real_content(databases)
                .seed(3)
                .build()
            )
            return background, session

        return factory

    def test_real_content_roundtrip(self, backend, real_session_factory):
        query = paper_example_query()
        _background, reference = real_session_factory()
        reference_answers = [reference.query(query=query) for _ in range(3)]

        background, live = real_session_factory()
        live.checkpoint(backend, name="real")
        restored = SystemBuilder.from_checkpoint(
            backend, name="real", background=background
        )
        restored_answers = [restored.query(query=query) for _ in range(3)]

        assert [a.routing for a in restored_answers] == [
            a.routing for a in reference_answers
        ]
        for expected, actual in zip(reference_answers, restored_answers):
            if expected.answer is None:
                assert actual.answer is None
                continue
            assert [
                (c.interpretation, c.tuple_count) for c in actual.answer.classes
            ] == [(c.interpretation, c.tuple_count) for c in expected.answer.classes]
        # Every local summary rehydrates byte-identically.
        for peer_id, service in live.system.services.items():
            assert hierarchy_content_hash(
                restored.system.services[peer_id].summary
            ) == hierarchy_content_hash(service.summary)

    def test_insert_after_restore_is_a_change_to_summarize(
        self, tmp_path, real_session_factory
    ):
        """A relation created empty and then filled restores at its version."""
        background, live = real_session_factory()
        peer_id = sorted(live.system.databases)[0]
        database = live.system.databases[peer_id]
        database.create_relation("visit", patient_schema())
        database.insert("visit", {"id": "v1", "age": 30, "disease": "malaria"})
        service = live.system.services[peer_id]
        service.rebuild_from_database()
        live.checkpoint(tmp_path / "store")

        restored = SystemBuilder.from_checkpoint(
            tmp_path / "store", background=background
        )
        restored_database = restored.system.databases[peer_id]
        assert restored_database.version() == database.version()
        restored_database.insert("visit", {"id": "v2", "age": 40, "disease": "influenza"})
        assert restored.system.services[peer_id].refresh_incremental() > 0

    def test_real_restore_requires_background(self, backend, real_session_factory):
        _background, live = real_session_factory()
        live.checkpoint(backend, name="real")
        with pytest.raises(StoreError, match="background"):
            SystemBuilder.from_checkpoint(backend, name="real")

    def test_snapshots_shared_across_checkpoints(self, backend, real_session_factory):
        """Content addressing dedups hierarchies between two checkpoints."""
        from repro.store import SnapshotStore

        _background, live = real_session_factory()
        live.checkpoint(backend, name="first")
        count_after_first = len(SnapshotStore(backend).hashes())
        live.checkpoint(backend, name="second")
        assert len(SnapshotStore(backend).hashes()) == count_after_first
        assert list_checkpoints(backend) == ["first", "second"]


class TestErrors:
    def test_missing_checkpoint_lists_known_names(self, backend):
        _build("smoke").checkpoint(backend, name="known")
        with pytest.raises(StoreError, match="known"):
            SystemBuilder.from_checkpoint(backend, name="unknown")

    def test_unspecced_pending_event_refuses_checkpoint(self, backend):
        live = _build("smoke")
        live.system.simulator.schedule(10.0, lambda: None, label="ad-hoc")
        with pytest.raises(StoreError, match="ad-hoc"):
            live.checkpoint(backend)

    def test_asymmetric_adjacency_is_a_typed_error(self):
        """It used to be symmetrised silently, by the first-seen latency."""
        payload = _overlay_payload(Overlay.generate(TopologyConfig(peer_count=8)))
        assert _overlay_from_payload(payload).links == dict(
            (node, dict(neighbours)) for node, neighbours in payload["adjacency"]
        )
        node, neighbours = payload["adjacency"][0]
        neighbours[0][1] += 1.0  # one direction of one link
        with pytest.raises(NetworkError, match="one-sided or unequal"):
            _overlay_from_payload(payload)
        del neighbours[0]  # the other direction alone
        with pytest.raises(NetworkError, match="one-sided or unequal"):
            _overlay_from_payload(payload)

    def test_checkpoint_without_content_refuses(self, backend):
        session = (
            SystemBuilder()
            .topology(peer_count=8)
            .planned_content(hit_rate=0.2)
            .build()
        )
        session.system._content = None  # simulate a hand-wired system
        with pytest.raises(StoreError, match="content"):
            session.checkpoint(backend)
