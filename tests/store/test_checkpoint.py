"""Session checkpoint/restore: byte-identical continuation guarantees.

The acceptance bar of the store subsystem: a session checkpointed to any
backend and restored via ``SystemBuilder.from_checkpoint`` answers queries
with routing results, staleness snapshots and traffic reports *equal* to the
never-persisted session — including checkpoints taken mid-simulation with
churn and modification events still pending.
"""

import json
from pathlib import Path

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
    SNAPSHOT_KIND,
    InMemoryBackend,
    JsonDirectoryBackend,
    SqliteBackend,
)
from repro.store.checkpoint import (
    _EVENT_KEYS,
    _overlay_from_payload,
    _overlay_payload,
    list_checkpoints,
    resolve_checkpoint_payload,
)
from repro.store.migrate import _from_format_1, upgrade
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query
from repro.workloads.registry import default_registry


FORMAT_1_FIXTURE = Path(__file__).with_name("format1_checkpoint.json")


def _row_of(rows, entry):
    """The row index of the peer an adjacency entry names."""
    name = entry if isinstance(entry, str) else entry[0]
    return next(index for index, (node, _entries) in enumerate(rows) if node == name)


def _first_forward(rows):
    """The first ``[id, latency]`` entry (a link whose other end comes later)."""
    return next(e for _node, row in rows for e in row if not isinstance(e, str))


def _first_back(rows):
    """The first bare-id entry (a link whose latency an earlier row holds)."""
    return next(e for _node, row in rows for e in row if isinstance(e, str))


def _swap(rows, find, replace):
    """Replace the entry ``find`` picks by ``replace(entry)`` (drop it on None)."""
    target = find(rows)
    for _node, entries in rows:
        for index, entry in enumerate(entries):
            if entry is target:
                entries[index] = replace(entry)
                if entries[index] is None:
                    del entries[index]
                return


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

    def test_a_drop_before_the_checkpoint_keeps_the_restored_version(
        self, backend, real_session_factory
    ):
        """What a dropped relation retired is checkpointed, only when non-zero."""
        background, live = real_session_factory()
        peer_id = sorted(live.system.databases)[0]
        database = live.system.databases[peer_id]
        database.create_relation("visit", patient_schema())
        database.insert("visit", {"id": "v1", "age": 30, "disease": "malaria"})
        database.drop_relation("visit")
        live.checkpoint(backend, name="dropped")

        restored = SystemBuilder.from_checkpoint(
            backend, name="dropped", background=background
        )
        assert restored.system.databases[peer_id].version() == database.version()
        payload = resolve_checkpoint_payload(backend, "dropped")
        assert [peer for peer, state in payload["databases"] if "retired" in state] == [
            peer_id
        ]

    def test_a_database_of_an_unknown_peer_is_a_store_error(
        self, backend, real_session_factory
    ):
        background, live = real_session_factory()
        live.checkpoint(backend, name="real")
        document = backend.get(CHECKPOINT_KIND, "real")
        document["databases"][0][0] = "p999"
        backend.put(CHECKPOINT_KIND, "bad", document)
        with pytest.raises(StoreError, match="unknown peer 'p999'"):
            SystemBuilder.from_checkpoint(backend, name="bad", background=background)

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

    def test_a_full_save_commits_once_on_sqlite(self, tmp_path, real_session_factory):
        """Every new snapshot and the document land in one transaction."""
        _background, live = real_session_factory()
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            statements = []
            store._connection.set_trace_callback(statements.append)
            live.checkpoint(store, name="real")
            commits = [s for s in statements if s.upper().startswith("COMMIT")]
            assert len(store.keys(SNAPSHOT_KIND)) > 1
            assert len(commits) == 1

    def test_a_failed_save_rolls_back_on_sqlite(
        self, tmp_path, monkeypatch, real_session_factory
    ):
        """A save whose document write fails leaves no snapshot rows behind."""
        _background, live = real_session_factory()
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            put_encoded = store.put_encoded

            def failing(kind, key, encoded):
                if kind == CHECKPOINT_KIND:
                    raise OSError("disk full")
                put_encoded(kind, key, encoded)

            monkeypatch.setattr(store, "put_encoded", failing)
            with pytest.raises(OSError, match="disk full"):
                live.checkpoint(store, name="real")
            assert store.kinds() == []
            monkeypatch.undo()
            live.checkpoint(store, name="real")
            assert len(store.keys(SNAPSHOT_KIND)) > 1
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            assert list_checkpoints(store) == ["real"]


#: One spec of every shape a pending event can take, optional keys included.
_EVERY_EVENT_SHAPE = [
    {"kind": "departure", "peer_id": "p1", "graceful": True, "rejoin": True,
     "depart_at": 700.0, "downtime_seconds": 300.0, "horizon": 3600.0,
     "graceful_fraction": 0.7, "lifetime_mean_seconds": 3600.0,
     "lifetime_median_seconds": 1200.0},
    {"kind": "departure", "peer_id": "p2", "graceful": False, "rejoin": False,
     "depart_at": 700.5, "downtime_seconds": 300.0, "horizon": 3600.0,
     "graceful_fraction": 0.7, "lifetime_mean_seconds": 3600.0,
     "lifetime_median_seconds": 1200.0},
    {"kind": "modification", "peer_id": "p3"},
    {"kind": "rejoin", "peer_id": "p4"},
    {"kind": "heal"},
    {"kind": "partition", "fraction": 0.5},
    {"kind": "partition", "fraction": 0.5, "groups": [["p0", "p1"], ["p2"]]},
    {"kind": "domain_failure", "count": 2},
    {"kind": "massacre", "fraction": 0.5, "graceful": False},
    {"kind": "massacre", "fraction": 0.2, "graceful": True, "rejoin_after": 60.0},
    {"kind": "flash_crowd"},
    {"kind": "flash_crowd", "rejoin_count": 3},
]


class TestEventRows:
    """Pending events are rows over a fixed key table, every spec shape."""

    def _pending(self, session):
        return [
            (event.time, event.sequence, event.label, event.spec)
            for event in session.system.simulator.pending()
        ]

    def test_every_spec_shape_roundtrips(self, backend):
        live = _build("smoke")
        live.run_until(600.0)
        for spec in _EVERY_EVENT_SHAPE:
            live.system.schedule_event_from_spec(dict(spec), at=700.0)
        live.checkpoint(backend, name="shapes")
        rows = backend.get(CHECKPOINT_KIND, "shapes")["simulator"]["events"]
        assert {row[2] for row in rows} == set(range(len(_EVENT_KEYS)))
        restored = SystemBuilder.from_checkpoint(backend, name="shapes")
        assert self._pending(restored) == self._pending(live)

    def test_a_departure_row_reads_its_time_back(self, backend):
        live = _build("churn-heavy", peer_count=32, duration_seconds=3600.0)
        live.checkpoint(backend, name="start")
        document = backend.get(CHECKPOINT_KIND, "start")
        table = document["simulator"]["keys"]
        departures = [
            table[row[2]]
            for row in document["simulator"]["events"]
            if table[row[2]][0] == "departure"
        ]
        assert departures and all("depart_at" not in keys for keys in departures)
        restored = SystemBuilder.from_checkpoint(backend, name="start")
        assert self._pending(restored) == self._pending(live)

    def test_a_spec_no_row_describes_refuses_checkpoint(self, backend):
        live = _build("smoke")
        live.system.schedule_event_from_spec({"kind": "heal", "why": "?"}, at=700.0)
        with pytest.raises(StoreError, match="no checkpoint row"):
            live.checkpoint(backend)

    def test_a_label_other_than_the_kind_refuses_checkpoint(self, backend):
        live = _build("smoke")
        live.system.simulator.schedule(
            10.0, lambda: None, label="ad-hoc", spec={"kind": "heal"}
        )
        with pytest.raises(StoreError, match="ad-hoc"):
            live.checkpoint(backend)


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
        # Format 1 wrote each link under both ends; the upgrade checks them.
        recorded = json.loads(FORMAT_1_FIXTURE.read_text(encoding="utf-8"))["base"]
        overlay = recorded["overlay"]
        upgraded = upgrade(recorded)["overlay"]
        assert _overlay_from_payload(upgraded).links == dict(
            (node, dict(neighbours)) for node, neighbours in overlay["adjacency"]
        )
        node, neighbours = overlay["adjacency"][0]
        neighbours[0][1] += 1.0  # one direction of one link
        with pytest.raises(NetworkError, match="one-sided or unequal"):
            _from_format_1(recorded)
        del neighbours[0]  # the other direction alone
        with pytest.raises(NetworkError, match="one-sided or unequal"):
            _from_format_1(recorded)

    @pytest.mark.parametrize(
        "section,key", [("maintenance", "cold_starts"), ("overlay", "rng")]
    )
    def test_a_format_3_document_missing_a_key_is_a_store_error(
        self, backend, section, key
    ):
        """Restore reads one shape: a key the writer always writes has no default."""
        _build("smoke").checkpoint(backend, name="good")
        document = backend.get(CHECKPOINT_KIND, "good")
        assert document["format"] == 3
        del document[section][key]
        backend.put(CHECKPOINT_KIND, "bad", document)
        with pytest.raises(StoreError, match=key):
            SystemBuilder.from_checkpoint(backend, name="bad")

    def test_a_format_2_link_is_written_once(self):
        live = Overlay.generate(TopologyConfig(peer_count=8))
        payload = _overlay_payload(live)
        assert _overlay_from_payload(payload).links == live.links
        rows = payload["adjacency"]
        entries = [entry for _node, row_entries in rows for entry in row_entries]
        assert len(entries) == sum(map(len, live.links.values()))
        # Each link's latency once: a bare id names an earlier row, and only it.
        assert 2 * sum(not isinstance(entry, str) for entry in entries) == len(entries)
        assert all(
            isinstance(entry, str) == (_row_of(rows, entry) < row)
            for row, (_node, row_entries) in enumerate(rows)
            for entry in row_entries
        )

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda rows: _swap(rows, _first_back, lambda e: None), "one-sided"),
            (lambda rows: _swap(rows, _first_forward, lambda e: e[0]), "no earlier"),
            (lambda rows: _swap(rows, _first_forward, lambda e: "ghost"), "no earlier"),
            (lambda rows: _swap(rows, _first_back, lambda e: [e, 1.0]), "latency twice"),
        ],
        ids=["unanswered", "bare-later-peer", "bare-unknown-peer", "latency-twice"],
    )
    def test_a_malformed_format_2_link_is_a_network_error(self, corrupt, message):
        payload = _overlay_payload(Overlay.generate(TopologyConfig(peer_count=8)))
        corrupt(payload["adjacency"])
        with pytest.raises(NetworkError, match=message):
            _overlay_from_payload(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: payload["adjacency"][0][1].append(["p1", 1.0, "x"]),
            lambda payload: payload["adjacency"].append(["p99"]),
            lambda payload: payload["offline"].append("p99"),
            lambda payload: payload.__setitem__("offline", "p1"),
            lambda payload: payload.__setitem__("offline", {"p1": False}),
            lambda payload: payload["offline"].append(["p1"]),
        ],
        ids=[
            "entry", "adjacency-row", "offline-unknown-id", "offline-not-a-list",
            "offline-a-dict", "offline-unhashable-id",
        ],
    )
    def test_a_malformed_overlay_row_is_a_store_error(self, corrupt):
        payload = _overlay_payload(Overlay.generate(TopologyConfig(peer_count=8)))
        corrupt(payload)
        with pytest.raises(StoreError, match="overlay"):
            _overlay_from_payload(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda simulator: simulator["events"][0].__setitem__(2, 99),
            lambda simulator: simulator["events"][0].__setitem__(2, -1),
            lambda simulator: simulator["events"][0].__setitem__(2, True),
            lambda simulator: simulator["events"][0].append("extra"),
            lambda simulator: simulator["events"][0].pop(),
            lambda simulator: simulator["events"].append([1e9]),
            lambda simulator: simulator["events"].append([None, 1, 1, "p0"]),
            lambda simulator: simulator["keys"].append(["departure", "peer_id"]),
            lambda simulator: simulator.pop("keys"),
        ],
        ids=[
            "index-past-table", "negative-index", "bool-index", "long-row",
            "short-row", "no-index", "no-time", "unknown-keys", "no-key-table",
        ],
    )
    def test_a_malformed_event_row_is_a_store_error(self, backend, corrupt):
        live = _build("churn-heavy", peer_count=32, duration_seconds=3600.0)
        live.run_until(600.0)
        live.checkpoint(backend, name="good")
        document = backend.get(CHECKPOINT_KIND, "good")
        corrupt(document["simulator"])
        backend.put(CHECKPOINT_KIND, "bad", document)
        with pytest.raises(StoreError):
            SystemBuilder.from_checkpoint(backend, name="bad")

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
