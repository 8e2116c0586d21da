"""A capture is what the store would parse back, down to its key order.

The store writes every dict with its keys sorted.  A fresh capture lists its
keys in that same order and builds an overlay's adjacency rows once, so a
delta save confirms what did not move by one ``marshal`` comparison against
the parsed base (:mod:`repro.store.deltas`) instead of encoding both sides.
"""

import gc
import weakref

import pytest

import repro.store.deltas as deltas
from golden_patches import canonical, medical_session, planned_session
from repro.core.session import SystemBuilder
from repro.store import InMemoryBackend
from repro.store.checkpoint import _adjacency_rows, capture_session
from repro.workloads.registry import default_registry


def _unsorted_dicts(node, path="$"):
    """Paths of the dicts under ``node`` whose keys are not in sorted order."""
    if isinstance(node, dict):
        found = [] if list(node) == sorted(node) else [path]
        for key, value in node.items():
            found += _unsorted_dicts(value, f"{path}.{key}")
        return found
    if isinstance(node, (list, tuple)):
        found = []
        for index, item in enumerate(node):
            found += _unsorted_dicts(item, f"{path}[{index}]")
        return found
    return []


def _partition_heal_stops():
    """48-peer ``partition-heal``, captured at half its horizon and at its end."""
    scenario = default_registry().scenario("partition-heal", peer_count=48, seed=7)
    session = scenario.apply_dynamics(scenario.builder()).build()
    horizon = scenario.duration_seconds
    captures = []
    for until in (horizon / 2, horizon):
        session.run_until(until)
        captures.append(capture_session(session)[0])
    return captures


def _planned():
    session = planned_session()
    session.run_until(session.horizon)
    return [capture_session(session)[0]]


def _medical():
    session = medical_session()
    session.run_until(session.horizon)
    return [capture_session(session)[0]]


@pytest.mark.parametrize(
    "captures",
    [_planned, _medical, _partition_heal_stops],
    ids=["planned-64", "medical-16", "partition-heal-48"],
)
def test_a_capture_lists_every_dicts_keys_in_stored_order(captures):
    for payload in captures():
        assert _unsorted_dicts(payload) == []


def test_a_delta_save_encodes_no_confirmation_text_for_the_adjacency(monkeypatch):
    session = planned_session()
    backend = InMemoryBackend()
    session.run_until(session.horizon / 2)
    session.checkpoint(backend, name="base")
    session.run_until(session.horizon)

    encoded = []
    encode = deltas._encode
    monkeypatch.setattr(deltas, "_encode", lambda node: encoded.append(encode(node)) or encoded[-1])
    session.checkpoint(backend, name="tip", base="base")

    adjacency = canonical(capture_session(session)[0]["overlay"]["adjacency"])
    assert "adjacency" not in backend.get("checkpoint", "tip")["patch"]["$dict"]["overlay"]["$dict"]
    assert not any(adjacency in text for text in encoded)


def test_adjacency_rows_are_built_once_per_overlay_and_restore_alike(backend):
    session = planned_session()
    session.run_until(session.horizon)
    overlay = session.system.overlay
    first, _snapshots = capture_session(session)
    rows = first["overlay"]["adjacency"]
    assert rows == _adjacency_rows(overlay.links)
    assert capture_session(session)[0]["overlay"]["adjacency"] is rows

    session.checkpoint(backend, name="tip")
    restored = SystemBuilder.from_checkpoint(backend, name="tip")
    assert capture_session(restored)[0] == capture_session(session)[0]

    # Held only while the overlay lives.
    alive = weakref.ref(overlay)
    del session, overlay, restored
    gc.collect()
    assert alive() is None
