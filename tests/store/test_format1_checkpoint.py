"""Checkpoints written in format 1 still restore and continue identically.

``format1_checkpoint.json`` was recorded once by the last format-1 writer:
a 48-peer planned ``partition-heal`` run (seed 7) saved as a full ``base``
at 25 % of its horizon and as a ``tip`` delta on it at 50 % (the partition
is then in force and its heal still pending), plus the SHA-256 of the live
run's :func:`continuation` from the tip to the horizon.  The writer now
stores format 2 only, so the fixture cannot be regenerated; it stands for
every store written before the format changed.
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

FIXTURE = Path(__file__).with_name("format1_checkpoint.json")


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


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _store(backend, recorded):
    backend.put(CHECKPOINT_KIND, "base", recorded["base"])
    backend.put(CHECKPOINT_KIND, "tip", recorded["delta"])
    return backend


def test_fixture_is_format_1(recorded):
    assert recorded["base"]["format"] == 1
    assert recorded["delta"]["format"] == 1
    assert recorded["delta"]["base"] == "base"


@pytest.mark.parametrize("name", ["base", "tip"])
def test_format_1_restores_and_continues_as_recorded(backend, recorded, name):
    restored = SystemBuilder.from_checkpoint(_store(backend, recorded), name=name)
    if name == "tip":
        assert restored.now == recorded["horizon"] / 2
        assert continuation(restored, recorded["horizon"]) == recorded["continuation"]
    else:
        restored.run_until(recorded["horizon"] / 2)
        assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_a_delta_on_format_1_is_written_in_format_2(backend, recorded):
    _store(backend, recorded)
    live = SystemBuilder.from_checkpoint(backend, name="base")
    live.run_until(recorded["horizon"] / 2)
    save_session(live, backend, name="upgraded", base="base")
    document = backend.get(CHECKPOINT_KIND, "upgraded")
    assert document["format"] == 2 and document["base"] == "base"

    resolved = resolve_checkpoint_payload(backend, "upgraded")
    assert resolved["format"] == 2
    assert resolved == resolve_checkpoint_payload(backend, "tip")
    save_session(live, backend, name="full")
    assert resolved == backend.get(CHECKPOINT_KIND, "full")

    restored = SystemBuilder.from_checkpoint(backend, name="upgraded")
    assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_compaction_keeps_a_format_1_chain_in_format_1(backend, recorded):
    """Other format-1 deltas may rest on a compacted link: its text must stay."""
    _store(backend, recorded)
    child = {"format": 1, "base": "tip", "patch": {"$dict": {}}}
    backend.put(CHECKPOINT_KIND, "child", child)
    assert compact_checkpoint(backend, "tip")
    assert backend.get(CHECKPOINT_KIND, "tip")["format"] == 1
    collect_garbage(backend)
    assert resolve_checkpoint_payload(backend, "child") == (
        resolve_checkpoint_payload(backend, "tip")
    )
    restored = SystemBuilder.from_checkpoint(backend, name="child")
    assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_a_format_1_delta_on_a_format_2_base_is_refused(backend, recorded):
    _store(backend, recorded)
    live = SystemBuilder.from_checkpoint(backend, name="base")
    save_session(live, backend, name="base")  # the base rewritten in format 2
    with pytest.raises(StoreError, match="format-1 delta"):
        SystemBuilder.from_checkpoint(backend, name="tip")
