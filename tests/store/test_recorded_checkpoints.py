"""Checkpoints written by earlier writers still restore and continue identically.

Each fixture was recorded once, by the last writer of its format, from the
same run: a 48-peer planned ``partition-heal`` run (seed 7) saved as a full
``base`` at 25 % of its horizon and as a ``tip`` delta on it at 50 % (the
partition is then in force and its heal still pending), plus the SHA-256 of
the live run's :func:`continuation` from the tip to the horizon.

* ``format1_checkpoint.json`` — format 1 (events and peers as dicts).
* ``format2_checkpoint.json`` — format 2 as written before
  ``overlay.offline``: one ``overlay.peers`` row per peer, whose columns
  besides ``online`` mirrored the assignment.
* ``format2_on_format1_checkpoint.json`` — the format-1 fixture's base with
  a ``tip`` delta that same format-2 writer saved on it, from a session
  restored from that base: its patch was computed against the format-1
  upgrade and edits ``overlay.peers``, so it holds the upgrade to the text
  it produced then.

The writer no longer produces any of them, so no fixture can be
regenerated; they stand for every store written before the format changed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.session import SystemBuilder
from repro.exceptions import StoreError
from repro.serve.wire import encode_answer
from repro.store import CHECKPOINT_KIND, collect_garbage
from repro.store.checkpoint import (
    compact_checkpoint,
    resolve_checkpoint_payload,
    save_session,
)

FIXTURES = {
    "format1": Path(__file__).with_name("format1_checkpoint.json"),
    "format2": Path(__file__).with_name("format2_checkpoint.json"),
    "format2-on-format1": Path(__file__).with_name("format2_on_format1_checkpoint.json"),
}


def _sha(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def continuation(session, horizon: float) -> str:
    """Run ``session`` to ``horizon``, ask five queries, hash what it did.

    Nothing hashed here is checkpoint text: answers, the message counter,
    clock, content and fault state, the overlay and the domains' reports.
    """
    session.run_until(horizon)
    answers = session.query_batch(count=5, required_results=3)
    system = session.system
    links = system.overlay.links
    return _sha(
        {
            "answers": [encode_answer(answer) for answer in answers],
            "counter": system.counter.state_payload(),
            "now": session.now,
            "processed": session.runtime.processed_events,
            "content": system.content.state_payload(),
            "faults": system.faults.state_payload(),
            "links": [[node, list(nbrs.items())] for node, nbrs in links.items()],
            "assignment": list(system.assignment.items()),
            "traffic": repr(session.traffic()),
            "maintenance": repr(session.maintenance_report()),
            "staleness": repr(session.staleness()),
        }
    )


def _load(name):
    return json.loads(FIXTURES[name].read_text(encoding="utf-8"))


@pytest.fixture(params=sorted(FIXTURES))
def recorded(request):
    return _load(request.param)


def _store(backend, recorded):
    backend.put(CHECKPOINT_KIND, "base", recorded["base"])
    backend.put(CHECKPOINT_KIND, "tip", recorded["delta"])
    return backend


def _offline_from_rows(payload):
    """``payload`` with pre-``offline`` peer rows read as the offline ids."""
    overlay = payload["overlay"]
    if "peers" in overlay:
        rows = overlay.pop("peers")
        nodes = [node for node, _entries in overlay["adjacency"]]
        overlay["offline"] = [node for node, row in zip(nodes, rows) if not row[1]]
    return payload


def test_fixtures_are_in_their_formats():
    format1, format2 = _load("format1"), _load("format2")
    mixed = _load("format2-on-format1")
    assert format1["base"]["format"] == format1["delta"]["format"] == 1
    assert format2["base"]["format"] == format2["delta"]["format"] == 2
    assert "peers" in format2["base"]["overlay"]
    assert "offline" not in format2["base"]["overlay"]
    assert mixed["base"] == format1["base"] and mixed["delta"]["format"] == 2
    assert "peers" in mixed["delta"]["patch"]["$dict"]["overlay"]["$dict"]
    for fixture in (format1, format2, mixed):
        assert fixture["delta"]["base"] == "base"
    # One run, three writers: the same continuation.
    assert format1["continuation"] == format2["continuation"] == mixed["continuation"]


@pytest.mark.parametrize("name", ["base", "tip"])
def test_a_recorded_checkpoint_restores_and_continues_as_recorded(
    backend, recorded, name
):
    restored = SystemBuilder.from_checkpoint(_store(backend, recorded), name=name)
    if name == "tip":
        assert restored.now == recorded["horizon"] / 2
        assert continuation(restored, recorded["horizon"]) == recorded["continuation"]
    else:
        restored.run_until(recorded["horizon"] / 2)
        assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_a_delta_on_a_recorded_checkpoint_is_written_in_the_current_format(
    backend, recorded
):
    _store(backend, recorded)
    live = SystemBuilder.from_checkpoint(backend, name="base")
    live.run_until(recorded["horizon"] / 2)
    save_session(live, backend, name="upgraded", base="base")
    document = backend.get(CHECKPOINT_KIND, "upgraded")
    assert document["format"] == 2 and document["base"] == "base"

    resolved = resolve_checkpoint_payload(backend, "upgraded")
    assert resolved["format"] == 2
    assert "peers" not in resolved["overlay"]
    assert resolved == _offline_from_rows(resolve_checkpoint_payload(backend, "tip"))
    save_session(live, backend, name="full")
    assert resolved == backend.get(CHECKPOINT_KIND, "full")

    restored = SystemBuilder.from_checkpoint(backend, name="upgraded")
    assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_compaction_keeps_a_recorded_chain_in_its_format(backend, recorded):
    """Other deltas may rest on a compacted link: its text must stay."""
    _store(backend, recorded)
    written = recorded["delta"]["format"]
    child = {"format": written, "base": "tip", "patch": {"$dict": {}}}
    backend.put(CHECKPOINT_KIND, "child", child)
    assert compact_checkpoint(backend, "tip")
    compacted = backend.get(CHECKPOINT_KIND, "tip")
    assert compacted["format"] == written
    assert "peers" in compacted["overlay"]  # the text as written, not upgraded
    collect_garbage(backend)
    assert resolve_checkpoint_payload(backend, "child") == (
        resolve_checkpoint_payload(backend, "tip")
    )
    restored = SystemBuilder.from_checkpoint(backend, name="child")
    assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_a_format_1_delta_on_a_format_2_base_is_refused(backend):
    _store(backend, _load("format1"))
    live = SystemBuilder.from_checkpoint(backend, name="base")
    save_session(live, backend, name="base")  # the base rewritten in format 2
    with pytest.raises(StoreError, match="format-1 delta"):
        SystemBuilder.from_checkpoint(backend, name="tip")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda overlay: overlay["peers"].pop(),
        lambda overlay: overlay["peers"][0].clear(),
    ],
    ids=["peer-count", "no-online-column"],
)
def test_malformed_pre_offline_peer_rows_are_a_store_error(backend, corrupt):
    base = _load("format2")["base"]
    corrupt(base["overlay"])
    backend.put(CHECKPOINT_KIND, "bad", base)
    with pytest.raises(StoreError, match="overlay"):
        SystemBuilder.from_checkpoint(backend, name="bad")
