"""Delta checkpoints: structural diff/patch and delta-chain restore.

The acceptance bar: a session checkpointed as a delta chain — full base, then
deltas on top, taken mid-simulation under churn — restores byte-identically
on every backend, and the delta documents are materially smaller than full
checkpoints.
"""

import random

import pytest

from repro.core.session import SystemBuilder
from repro.exceptions import StoreError
from repro.store import (
    CHECKPOINT_KIND,
    SNAPSHOT_KIND,
    InMemoryBackend,
    apply_patch,
    checkpoint_base_chain,
    diff_documents,
    list_checkpoints,
)
from repro.store.deltas import canonical_roundtrip
from repro.workloads.registry import default_registry


def _build(scenario_name, **overrides):
    scenario = default_registry().scenario(scenario_name, **overrides)
    return scenario.apply_dynamics(scenario.builder()).build()


def _drive(session, queries=8, required=3):
    session.run_until()
    answers = [session.query(required_results=required) for _ in range(queries)]
    return {
        "routing": [answer.routing for answer in answers],
        "staleness": [answer.staleness for answer in answers],
        "traffic": session.traffic(),
        "maintenance": session.maintenance_report(),
    }


class TestDiffPatch:
    """apply_patch(base, diff_documents(base, new)) == new, exactly."""

    CASES = [
        ({}, {}),
        ({"a": 1}, {"a": 1}),
        ({"a": 1}, {"a": 2}),
        ({"a": 1}, {"b": 2}),
        ({"a": 1, "b": 2}, {"a": 1}),
        ({"a": [1, 2, 3]}, {"a": [1, 9, 3]}),
        ({"a": [1, 2]}, {"a": [1, 2, 3]}),
        ({"a": {"b": {"c": [0] * 50}}}, {"a": {"b": {"c": [0] * 49 + [1]}}}),
        ({"a": 1}, {"a": 1.0}),
        ({"a": True}, {"a": 1}),
        ({"a": None}, {"a": 0}),
        ({"a": [{"x": 1}, {"y": 2}]}, {"a": [{"x": 1}, {"y": 3}]}),
        ({"a": "text"}, {"a": ["now", "a", "list"]}),
    ]

    @pytest.mark.parametrize("base,new", CASES)
    def test_roundtrip_exact(self, base, new):
        patch = diff_documents(base, new)
        assert apply_patch(base, patch) == new

    @pytest.mark.parametrize("base,new", CASES)
    def test_roundtrip_preserves_scalar_types(self, base, new):
        result = apply_patch(base, diff_documents(base, new))
        assert canonical_roundtrip(result) == canonical_roundtrip(new)
        # Stricter than ==: the canonical JSON text must match too (1 vs 1.0,
        # True vs 1), or a resolved delta would not be byte-identical.
        import json

        assert json.dumps(result, sort_keys=True) == json.dumps(new, sort_keys=True)

    def test_random_documents_roundtrip(self):
        rng = random.Random(42)

        def random_document(depth=0):
            kind = rng.random()
            if depth >= 3 or kind < 0.3:
                return rng.choice(
                    [None, True, False, rng.randint(-5, 5), rng.random(), "s"]
                )
            if kind < 0.65:
                return [random_document(depth + 1) for _ in range(rng.randint(0, 5))]
            return {
                f"k{i}": random_document(depth + 1) for i in range(rng.randint(0, 5))
            }

        def mutate(document):
            if isinstance(document, dict) and document and rng.random() < 0.7:
                key = rng.choice(sorted(document))
                copy = dict(document)
                copy[key] = mutate(copy[key])
                return copy
            if isinstance(document, list) and document and rng.random() < 0.7:
                copy = list(document)
                copy[rng.randrange(len(copy))] = random_document(2)
                return copy
            return random_document(1)

        for _ in range(200):
            base = canonical_roundtrip({"doc": random_document()})
            new = canonical_roundtrip(mutate(base))
            assert apply_patch(base, diff_documents(base, new)) == new

    def test_unchanged_subtrees_are_absent_from_patch(self):
        base = {"big": list(range(1000)), "small": 1}
        new = {"big": list(range(1000)), "small": 2}
        patch = diff_documents(base, new)
        assert "big" not in patch["$dict"]

    def test_aligning_against_nothing_builds_no_matcher(self, monkeypatch):
        """A drained or append-only list is one splice, read off directly."""
        import repro.store.deltas as deltas

        def no_matcher(*_args, **_kwargs):
            pytest.fail("an empty middle needs no SequenceMatcher")

        events = [{"sequence": index, "spec": {"peer": f"p{index}"}} for index in range(50)]
        monkeypatch.setattr(deltas.difflib, "SequenceMatcher", no_matcher)
        assert diff_documents(events, []) == {"$splice": [[0, 50, []]]}
        assert diff_documents(events[:20], events) == {"$splice": [[20, 0, events[20:]]]}
        assert diff_documents(events[5:], events) == {"$splice": [[0, 0, events[:5]]]}
        assert diff_documents(events, events[9:]) == {"$splice": [[0, 9, []]]}
        assert diff_documents([], events) == {"$set": events}

    def test_unchanged_children_are_confirmed_once_per_container(self, monkeypatch):
        """The ``==``-equal children confirm together, by bytes before text."""
        import repro.store.deltas as deltas

        encoded = []
        encode = deltas._encode
        monkeypatch.setattr(
            deltas, "_encode", lambda node: encoded.append(node) or encode(node)
        )
        peers = [{"peer_id": f"p{index}", "online": True} for index in range(200)]
        flipped = [dict(peer) for peer in peers]
        flipped[17]["online"] = False
        patch = diff_documents({"peers": peers, "n": 1}, {"peers": flipped, "n": 1})
        assert patch == {
            "$dict": {"peers": {"$list": [[17, {"$dict": {"online": {"$set": False}}}]]}}
        }
        # The 199 unchanged peers hold equal ``marshal`` bytes: no text at all
        # (2 encodings, one per side, before; 398 before that).  "n" and the
        # flipped peer's "peer_id" are the same objects on both sides.
        assert encoded == []

        # A lookalike inside one peer fails that container's bytes and text,
        # and only then is each candidate confirmed on its own: the other 198
        # by their bytes, peer 40 by its text, likewise its "online".
        flipped[40]["online"] = 1
        encoded.clear()
        patch = diff_documents({"peers": peers}, {"peers": flipped})
        assert patch == {
            "$dict": {
                "peers": {
                    "$list": [
                        [17, {"$dict": {"online": {"$set": False}}}],
                        [40, {"$dict": {"online": {"$set": 1}}}],
                    ]
                }
            }
        }
        assert len(encoded) == (2 + 2) + (2 + 2)

    def test_a_mostly_changed_list_is_set_without_diffing_its_children(
        self, monkeypatch
    ):
        """The verdict count picks ``$set`` before a child patch is built."""
        import repro.store.deltas as deltas

        calls = []
        diff = deltas.diff_documents
        monkeypatch.setattr(
            deltas,
            "diff_documents",
            lambda base, new: calls.append(len(calls)) or diff(base, new),
        )
        base = [{"peer": f"p{index}", "online": True} for index in range(100)]
        new = [dict(peer, online=index >= 80) for index, peer in enumerate(base)]
        assert deltas.diff_documents(base, new) == {"$set": new}
        # 1 + 80 changed peers + their 80 "online" keys before.
        assert len(calls) == 1

        # At the threshold the patch is sparse, and exactly the changed
        # children are diffed.
        new = [dict(peer, online=index >= 75) for index, peer in enumerate(base)]
        calls.clear()
        patch = deltas.diff_documents(base, new)
        assert [index for index, _edit in patch["$list"]] == list(range(75))
        assert len(calls) == 1 + 75 + 75

    def test_malformed_patch_raises(self):
        with pytest.raises(StoreError, match="patch"):
            apply_patch({"a": 1}, {"$bogus": 1})
        with pytest.raises(StoreError, match="expects an object"):
            apply_patch([1], {"$dict": {"a": {"$set": 1}}})
        with pytest.raises(StoreError, match="expects an array"):
            apply_patch({"a": 1}, {"$list": [[0, {"$set": 1}]]})

    @pytest.mark.parametrize(
        "base,patch,entry",
        [
            ([1, 2, 3], {"$splice": [[0, 1, "ab"]]}, "[0, 1, 'ab']"),
            ([1, 2, 3], {"$list": [[-1, {"$set": 9}]]}, "[-1, {'$set': 9}]"),
            ([1, 2, 3], {"$list": [[True, {"$set": 9}]]}, "[True, {'$set': 9}]"),
            ([1, 2, 3], {"$list": [[3, {"$set": 9}]]}, "[3, {'$set': 9}]"),
            ([1, 2, 3], {"$splice": [[4, 0, [9]]]}, "[4, 0, [9]]"),
            ([1, 2, 3], {"$splice": [[False, 0, [9]]]}, "[False, 0, [9]]"),
            ([1, 2, 3], {"$splice": [[0, -1, [9]]]}, "[0, -1, [9]]"),
            ([1, 2, 3], {"$splice": [[1, 3, [9]]]}, "[1, 3, [9]]"),
            ([1, 2, 3], {"$splice": [[2, 0, [9]], [0, 1, []]]}, "[2, 0, [9]]"),
            ([1, 2, 3], {"$splice": [[0, 2, [9]], [1, 1, []]]}, "[0, 2, [9]]"),
            ([1, 2, 3], {"$splice": [[0, 1]]}, "[0, 1]"),
            ([1, 2, 3], {"$list": {"0": {"$set": 9}}}, "{'0': {'$set': 9}}"),
            ({"a": 1, "b": 2, "ab": 3}, {"$dict": {}, "$drop": "ab"}, "'ab'"),
            ({"a": 1}, {"$dict": {}, "$drop": [1]}, "[1]"),
            ({"a": 1}, {"$dict": [["a", {"$set": 2}]]}, "[['a', {'$set': 2}]]"),
        ],
        ids=[
            "splice-items-not-a-list",
            "negative-list-index",
            "bool-list-index",
            "list-index-past-the-end",
            "splice-start-past-the-end",
            "bool-splice-start",
            "negative-splice-count",
            "splice-count-past-the-end",
            "descending-splices",
            "overlapping-splices",
            "short-splice-entry",
            "list-entries-not-a-list",
            "drop-not-a-list",
            "drop-not-strings",
            "dict-changes-not-an-object",
        ],
    )
    def test_a_malformed_patch_entry_is_refused_by_name(self, base, patch, entry):
        with pytest.raises(StoreError, match="malformed") as raised:
            apply_patch(base, patch)
        assert entry in str(raised.value)

    def test_nested_malformed_entries_are_refused_too(self):
        with pytest.raises(StoreError, match=r"\[-1, 0, \[\]\]"):
            apply_patch(
                {"events": [[1, 2]]},
                {"$dict": {"events": {"$list": [[0, {"$splice": [[-1, 0, []]]}]]}}},
            )

    def test_edge_splices_replay(self):
        """Inserts at either end, and two at one place, are well formed."""
        patch = {"$splice": [[0, 0, ["a"]], [1, 0, ["b"]], [1, 0, ["c"]], [3, 0, ["d"]]]}
        assert apply_patch([1, 2, 3], patch) == ["a", 1, "b", "c", 2, 3, "d"]
        assert apply_patch([], {"$splice": [[0, 0, [1]]]}) == [1]


class TestDeltaCheckpoints:
    def test_delta_chain_restores_byte_identically_under_churn(self, backend):
        """Full base → delta → delta, all mid-simulation; restore == live."""
        scenario_name = "churn-heavy"
        reference_session = _build(scenario_name)
        horizon = reference_session.horizon
        reference_session.run_until(0.8 * horizon)
        reference = _drive(reference_session)

        live = _build(scenario_name)
        live.run_until(0.3 * horizon)
        live.checkpoint(backend, name="base")
        live.run_until(0.6 * horizon)
        live.checkpoint(backend, name="mid", base="base")
        live.run_until(0.8 * horizon)
        assert live.system.simulator.pending_events > 0
        live.checkpoint(backend, name="late", base="mid")

        assert checkpoint_base_chain(backend, "late") == ["late", "mid", "base"]
        restored = SystemBuilder.from_checkpoint(backend, name="late")
        assert restored.now == live.now
        result = _drive(restored)
        assert result == reference

    def test_delta_resolves_to_full_payload(self, backend):
        """A delta's resolved payload equals the full checkpoint's document."""
        from repro.store.checkpoint import resolve_checkpoint_payload

        live = _build("smoke")
        live.run_until(0.5 * live.horizon)
        live.checkpoint(backend, name="base")
        live.run_until()
        live.checkpoint(backend, name="tip", base="base")
        live.checkpoint(backend, name="tip-full")

        assert resolve_checkpoint_payload(backend, "tip") == backend.get(
            CHECKPOINT_KIND, "tip-full"
        )

    def test_delta_is_smaller_than_full(self, backend):
        live = _build("table3-default")
        live.run_until(0.4 * live.horizon)
        live.checkpoint(backend, name="base")
        live.run_until(0.5 * live.horizon)
        live.checkpoint(backend, name="delta", base="base")
        live.checkpoint(backend, name="full")

        delta_bytes = backend.size_bytes(CHECKPOINT_KIND, "delta")
        full_bytes = backend.size_bytes(CHECKPOINT_KIND, "full")
        # "Materially smaller": the topology/peer bulk must not be re-stored.
        assert delta_bytes < 0.5 * full_bytes

    #: The same pair's tip as format 1 stored it, pending events as dicts.
    FORMAT_1_MID_RUN_TIP_BYTES = 150_864

    def test_a_mid_run_delta_splices_the_pending_events(self, backend):
        """Event rows name a fixed key table, so the queue's patch is a splice."""
        live = _build("churn-heavy", seed=1)
        live.run_until(0.25 * live.horizon)
        live.checkpoint(backend, name="base")
        live.run_until(0.5 * live.horizon)
        live.checkpoint(backend, name="tip", base="base")

        patch = backend.get(CHECKPOINT_KIND, "tip")["patch"]["$dict"]["simulator"]
        assert "keys" not in patch["$dict"]
        assert set(patch["$dict"]["events"]) == {"$splice"}
        tip_bytes = backend.size_bytes(CHECKPOINT_KIND, "tip")
        assert tip_bytes <= self.FORMAT_1_MID_RUN_TIP_BYTES

    def test_restore_from_intermediate_link_works(self, backend):
        live = _build("smoke")
        live.run_until(0.5 * live.horizon)
        live.checkpoint(backend, name="base")
        reference = _drive(_restored_clone(backend, "base"))
        live.run_until()
        live.checkpoint(backend, name="tip", base="base")
        # The base link is still a valid checkpoint of the earlier moment.
        assert _drive(SystemBuilder.from_checkpoint(backend, name="base")) == reference
        assert list_checkpoints(backend) == ["base", "tip"]

    def test_missing_base_raises_with_chain_context(self, backend):
        live = _build("smoke")
        live.checkpoint(backend, name="base")
        live.checkpoint(backend, name="tip", base="base")
        backend.delete(CHECKPOINT_KIND, "base")
        with pytest.raises(StoreError, match="base of 'tip'"):
            SystemBuilder.from_checkpoint(backend, name="tip")

    def test_delta_against_unknown_base_refuses(self, backend):
        live = _build("smoke")
        with pytest.raises(StoreError, match="no checkpoint 'nope'"):
            live.checkpoint(backend, name="tip", base="nope")
        assert not backend.contains(CHECKPOINT_KIND, "tip")

    def test_delta_of_itself_refuses(self, backend):
        live = _build("smoke")
        live.checkpoint(backend, name="self")
        with pytest.raises(StoreError, match="itself"):
            live.checkpoint(backend, name="self", base="self")

    def test_indirect_cycle_refused_at_save(self, backend):
        """Overwriting a base with a delta of its own descendant must refuse."""
        live = _build("smoke")
        live.checkpoint(backend, name="a")
        live.checkpoint(backend, name="b", base="a")
        with pytest.raises(StoreError, match="resolves through"):
            live.checkpoint(backend, name="a", base="b")
        # The full checkpoint survived the refused save; both still restore.
        SystemBuilder.from_checkpoint(backend, name="a")
        SystemBuilder.from_checkpoint(backend, name="b")

    def test_cyclic_chain_detected(self, backend):
        backend.put(
            CHECKPOINT_KIND, "a", {"format": 1, "base": "b", "patch": {"$dict": {}}}
        )
        backend.put(
            CHECKPOINT_KIND, "b", {"format": 1, "base": "a", "patch": {"$dict": {}}}
        )
        with pytest.raises(StoreError, match="cyclic"):
            SystemBuilder.from_checkpoint(backend, name="a")

    def test_delta_on_delta_of_real_content(self, backend):
        """Real-content sessions (with snapshots) delta just as well."""
        from repro.core.config import ProtocolConfig
        from repro.fuzzy.vocabularies import medical_background_knowledge
        from repro.network.overlay import Overlay
        from repro.network.topology import TopologyConfig
        from repro.saintetiq.serialization import hierarchy_content_hash
        from repro.workloads.patients import MedicalWorkload, build_peer_databases

        overlay = Overlay.generate(TopologyConfig(peer_count=12, seed=5))
        background = medical_background_knowledge()
        workload = MedicalWorkload(records_per_peer=5, matching_fraction=0.25, seed=5)
        databases = build_peer_databases(overlay.peer_ids, workload)
        live = (
            SystemBuilder()
            .topology(overlay)
            .background(background)
            .protocol(ProtocolConfig(superpeer_fraction=1 / 6, construction_ttl=3))
            .real_content(databases)
            .seed(5)
            .build()
        )
        live.checkpoint(backend, name="base")
        live.checkpoint(backend, name="tip", base="base")
        restored = SystemBuilder.from_checkpoint(
            backend, name="tip", background=background
        )
        for peer_id, service in live.system.services.items():
            assert hierarchy_content_hash(
                restored.system.services[peer_id].summary
            ) == hierarchy_content_hash(service.summary)


def _real_session(seed):
    from repro.core.config import ProtocolConfig
    from repro.fuzzy.vocabularies import medical_background_knowledge
    from repro.network.overlay import Overlay
    from repro.network.topology import TopologyConfig
    from repro.workloads.patients import MedicalWorkload, build_peer_databases

    overlay = Overlay.generate(TopologyConfig(peer_count=12, seed=seed))
    workload = MedicalWorkload(records_per_peer=5, matching_fraction=0.25, seed=seed)
    return (
        SystemBuilder()
        .topology(overlay)
        .background(medical_background_knowledge())
        .protocol(ProtocolConfig(superpeer_fraction=1 / 6, construction_ttl=3))
        .real_content(build_peer_databases(overlay.peer_ids, workload))
        .seed(seed)
        .build()
    )


class TestRefusedSaves:
    """A save refused for its base writes nothing, snapshots included."""

    @pytest.mark.parametrize(
        "name,base,message",
        [
            ("tip", "missing", "no checkpoint 'missing'"),
            ("self", "self", "itself"),
            ("a", "b", "resolves through"),
        ],
        ids=["missing-base", "self-base", "indirect-cycle"],
    )
    def test_refused_saves_leave_the_checkpoints_untouched(
        self, backend, name, base, message
    ):
        stored = _real_session(seed=5)
        for full in {name, "a"} - {"tip"}:
            stored.checkpoint(backend, name=full)
        stored.checkpoint(backend, name="b", base="a")
        checkpoints = {
            key: backend.get(CHECKPOINT_KIND, key)
            for key in backend.keys(CHECKPOINT_KIND)
        }
        snapshots = backend.keys(SNAPSHOT_KIND)

        live = _real_session(seed=6)
        with pytest.raises(StoreError, match=message):
            live.checkpoint(backend, name=name, base=base)
        assert {
            key: backend.get(CHECKPOINT_KIND, key)
            for key in backend.keys(CHECKPOINT_KIND)
        } == checkpoints
        assert backend.keys(SNAPSHOT_KIND) == snapshots
        # The refused save had snapshots to file: a valid one files them.
        live.checkpoint(backend, name="fresh")
        assert set(backend.keys(SNAPSHOT_KIND)) > set(snapshots)


class _CountingMemoryBackend(InMemoryBackend):
    """Counts the checkpoint documents read (each one is a fetch and a parse)."""

    def __init__(self):
        super().__init__()
        self.checkpoint_reads = []

    def get(self, kind, key):
        if kind == CHECKPOINT_KIND:
            self.checkpoint_reads.append(key)
        return super().get(kind, key)


class TestMemoryBackendReadsEachLinkOnce:
    """A delta save fetches each link of its base chain once (memory backend)."""

    def test_delta_against_a_full_base_reads_it_once(self):
        store = _CountingMemoryBackend()
        live = _build("smoke")
        live.checkpoint(store, name="base")
        live.run_until(0.5 * live.horizon)
        assert store.checkpoint_reads == []
        live.checkpoint(store, name="tip", base="base")
        assert store.checkpoint_reads == ["base"]

    def test_delta_on_a_chain_reads_each_link_once(self):
        store = _CountingMemoryBackend()
        live = _build("smoke")
        live.checkpoint(store, name="a")
        for fraction, name, base in ((0.3, "b", "a"), (0.6, "c", "b")):
            live.run_until(fraction * live.horizon)
            live.checkpoint(store, name=name, base=base)
        live.run_until()
        store.checkpoint_reads.clear()
        live.checkpoint(store, name="tip", base="c")
        assert store.checkpoint_reads == ["c", "b", "a"]
        assert checkpoint_base_chain(store, "tip") == ["tip", "c", "b", "a"]
        # ... and what those reads resolved to is the live session.
        reference = _build("smoke")
        assert _drive(SystemBuilder.from_checkpoint(store, name="tip")) == _drive(reference)


def _restored_clone(backend, name):
    return SystemBuilder.from_checkpoint(backend, name=name)
