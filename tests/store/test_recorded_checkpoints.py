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
* ``format2_offline_checkpoint.json`` — format 2 as written with
  ``overlay.offline``, the last text stored under that number.

The writer (format 3) no longer produces any of them, so no fixture can be
regenerated; they stand for every store written before the format changed.

The run from ``base`` goes through the partition (from 1,800 s) under the
current protocol, which no longer produces the recorded tip: a
reconciliation that omits a partner cut off by the partition now unassigns
it too, so it stops sending lost pushes into the partition until the heal.
Each recorded tip still holds 18 peers that are assigned to a domain that
does not list them, and continues to the recorded continuation; the base
path continues to :data:`BASE_PATH`'s, the same for all four fixtures.
"""

import copy
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.exceptions import StoreError
from repro.serve.wire import encode_answer
from repro.store import CHECKPOINT_KIND, collect_garbage
from repro.store.checkpoint import (
    _rng_payload,
    compact_checkpoint,
    resolve_checkpoint_payload,
    save_session,
)
from repro.store.migrate import upgrade

FIXTURES = {
    "format1": Path(__file__).with_name("format1_checkpoint.json"),
    "format2": Path(__file__).with_name("format2_checkpoint.json"),
    "format2-on-format1": Path(__file__).with_name("format2_on_format1_checkpoint.json"),
    "format2-offline": Path(__file__).with_name("format2_offline_checkpoint.json"),
}


#: What the run from each fixture's ``base`` reaches under the current
#: protocol: the payload at the tip's time and the continuation from there.
BASE_PATH = {
    "tip": "bb655b186c02d2ef1856f18bde3e924b4d64264b178930b44d0e9ac32e072658",
    "continuation": "19fc66cf003a6bc73e38c60d08e5c2d35000c0a7a774daf484e496da9b6e0512",
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


def test_fixtures_are_in_their_formats():
    format1, format2 = _load("format1"), _load("format2")
    mixed, offline = _load("format2-on-format1"), _load("format2-offline")
    assert format1["base"]["format"] == format1["delta"]["format"] == 1
    for fixture in (format2, offline):
        assert fixture["base"]["format"] == fixture["delta"]["format"] == 2
    assert "peers" in format2["base"]["overlay"]
    assert "offline" not in format2["base"]["overlay"]
    assert "offline" in offline["base"]["overlay"]
    assert "peers" not in offline["base"]["overlay"]
    assert mixed["base"] == format1["base"] and mixed["delta"]["format"] == 2
    assert "peers" in mixed["delta"]["patch"]["$dict"]["overlay"]["$dict"]
    for fixture in (format1, format2, mixed, offline):
        assert fixture["delta"]["base"] == "base"
    # One run, four writers: the same continuation.
    assert len({_load(name)["continuation"] for name in FIXTURES}) == 1


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
        assert continuation(restored, recorded["horizon"]) == BASE_PATH["continuation"]


def test_a_delta_on_a_recorded_checkpoint_is_written_in_the_current_format(
    backend, recorded
):
    _store(backend, recorded)
    live = SystemBuilder.from_checkpoint(backend, name="base")
    live.run_until(recorded["horizon"] / 2)
    save_session(live, backend, name="upgraded", base="base")
    document = backend.get(CHECKPOINT_KIND, "upgraded")
    assert document["format"] == 3 and document["base"] == "base"

    resolved = resolve_checkpoint_payload(backend, "upgraded")
    assert resolved["format"] == 3
    assert "peers" not in resolved["overlay"]
    assert _sha(resolved) == BASE_PATH["tip"]
    # The recorded tip, less the peers it assigns to a domain that omitted
    # them, and less the pushes they lost into the partition.
    tip = resolve_checkpoint_payload(backend, "tip")
    listed = {
        (peer, domain["summary_peer_id"])
        for domain in tip["domains"]
        for peer, _distance in domain["distances"]
    }
    assert resolved["assignment"] == [
        pair for pair in tip["assignment"] if tuple(pair) in listed
    ]
    assert len(tip["assignment"]) - len(resolved["assignment"]) == 18
    moved = {key for key in tip if resolved[key] != tip[key]}
    assert moved == {"assignment", "counter"}
    save_session(live, backend, name="full")
    assert resolved == backend.get(CHECKPOINT_KIND, "full")

    restored = SystemBuilder.from_checkpoint(backend, name="upgraded")
    assert continuation(restored, recorded["horizon"]) == BASE_PATH["continuation"]


def test_compaction_keeps_a_recorded_chain_in_its_format(backend, recorded):
    """Other deltas may rest on a compacted link: its text must stay."""
    _store(backend, recorded)
    written = recorded["delta"]["format"]
    child = {"format": written, "base": "tip", "patch": {"$dict": {}}}
    backend.put(CHECKPOINT_KIND, "child", child)
    assert compact_checkpoint(backend, "tip")
    compacted = backend.get(CHECKPOINT_KIND, "tip")
    assert compacted["format"] == written
    # The text as written, not upgraded: format 3 holds no peer rows.
    assert ("peers" in compacted["overlay"]) == ("peers" in recorded["base"]["overlay"])
    collect_garbage(backend)
    assert resolve_checkpoint_payload(backend, "child") == (
        resolve_checkpoint_payload(backend, "tip")
    )
    restored = SystemBuilder.from_checkpoint(backend, name="child")
    assert continuation(restored, recorded["horizon"]) == recorded["continuation"]


def test_format_2_to_3_fills_each_key_a_restore_once_defaulted():
    upgraded = upgrade(_load("format2-offline")["base"])
    older = _load("format2-offline")["base"]
    del older["maintenance"]["cold_starts"], older["overlay"]["rng"]
    del older["config"]["query_max_retries"]
    older["config"]["retry_backoff_seconds"] = 2.0
    older["runtime"] = "simulator"
    for domain in older["domains"]:
        del domain["global_summary"]
    kept = copy.deepcopy(older)
    filled = upgrade(older)
    assert older == kept  # an upgrade never edits the payload it reads
    assert filled["format"] == 3 and "runtime" not in filled
    assert filled["maintenance"] == {**upgraded["maintenance"], "cold_starts": 0}
    assert filled["overlay"]["rng"] == _rng_payload(random.Random(0))
    assert filled["config"] == {
        **upgraded["config"], "query_max_retries": ProtocolConfig().query_max_retries
    }
    assert filled["domains"] == upgraded["domains"]


def _rewrite_base_in_format_2(backend):
    backend.put(CHECKPOINT_KIND, "base", _load("format2")["base"])


def _rewrite_base_in_format_3(backend):
    live = SystemBuilder.from_checkpoint(backend, name="base")
    save_session(live, backend, name="base")


@pytest.mark.parametrize(
    "delta,rewrite",
    [("format1", _rewrite_base_in_format_2), ("format2", _rewrite_base_in_format_3)],
    ids=["1-on-2", "2-on-3"],
)
def test_a_delta_older_than_its_base_is_refused(backend, delta, rewrite):
    """A patch applies to its base in the patch's own format, never a newer one."""
    recorded = _load(delta)
    _store(backend, recorded)
    rewrite(backend)
    with pytest.raises(StoreError, match=f"format-{recorded['delta']['format']} delta"):
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
