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
* ``format3_checkpoint.json`` — format 3: ``assignment`` as ``[peer,
  summary_peer]`` pairs in the mapping's insertion order.

The writer (format 4) no longer produces any of them, so no fixture can be
regenerated; they stand for every store written before the format changed.

The four older fixtures were recorded before a reconciliation that omits a
partner cut off by the partition (from 1,800 s) also unassigned it, so it
stops sending lost pushes into the partition until the heal.  Each of those
tips holds 18 peers assigned to a domain that does not list them, and
continues to :data:`OLDER_TIP_PATH`.  All five were recorded before a
departure push went through the fault plan: the run from a ``base`` now loses
the departure pushes sent into the partition (each charged with its retries,
none marking its partner), so its domains, described sets and counter leave
every recorded tip, and the format-3 tip continues to
:data:`FORMAT3_TIP_PATH`.  Every base path continues to :data:`BASE_PATH`'s.

A continuation hashes the assignment sorted: the mapping's order is no
state, and a restore rebuilds it in adjacency-row order.  The four older
fixtures' recorded ``continuation`` hashed it in insertion order; the
order-free digests here were computed from the same restores by the writer
that recorded the format-3 fixture.
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
from repro.store.migrate import FORMAT, upgrade

FIXTURES = {
    "format1": Path(__file__).with_name("format1_checkpoint.json"),
    "format2": Path(__file__).with_name("format2_checkpoint.json"),
    "format2-on-format1": Path(__file__).with_name("format2_on_format1_checkpoint.json"),
    "format2-offline": Path(__file__).with_name("format2_offline_checkpoint.json"),
    "format3": Path(__file__).with_name("format3_checkpoint.json"),
}


#: What the run from each fixture's ``base`` reaches under the current
#: protocol: the payload at the tip's time and the continuation from there.
BASE_PATH = {
    "tip": "2bb686e8644cd2445da82c0e857a2d52e5f3df68364badb67df16633bae30ce8",
    "continuation": "c57f521f7bfa4bac48757a621edf11f2d3eb88920c74aba697b68663235e8ba6",
}
#: Where the four older fixtures' tips continue to, order-free.
OLDER_TIP_PATH = "0045c3bf73fccda34e5c0b7a26a7280f91d9c9ff8caf6ace5b3903311e8a582e"
#: Where the format-3 fixture's tip continues to.
FORMAT3_TIP_PATH = "ad975fc45b674311876222457447396f2dc2f164174098038ef03d16b5a5f29d"
#: Each fixture's recorded ``continuation`` -> its tip's order-free one.
TIP_PATH = {
    "b2c3845eef49acbf4f6e1ed7721ef03c9ce5728f4847c2e44f37cb77258949fa": OLDER_TIP_PATH,
    "4691576ced4bdb91423c9144a03b16c91d1262b3acefd4e9cc8b269d936064f3": FORMAT3_TIP_PATH,
}


def _sha(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def continuation(session, horizon: float) -> str:
    """Run ``session`` to ``horizon``, ask five queries, hash what it did.

    Nothing hashed here is checkpoint text: answers, the message counter,
    clock, content and fault state, the overlay, the assignment (sorted: its
    order is no state) and the domains' reports.
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
            "assignment": sorted(system.assignment.items()),
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
    format3 = _load("format3")
    assert format1["base"]["format"] == format1["delta"]["format"] == 1
    for fixture in (format2, offline):
        assert fixture["base"]["format"] == fixture["delta"]["format"] == 2
    assert format3["base"]["format"] == format3["delta"]["format"] == 3
    assert "peers" in format2["base"]["overlay"]
    assert "offline" not in format2["base"]["overlay"]
    for fixture in (offline, format3):
        assert "offline" in fixture["base"]["overlay"]
        assert "peers" not in fixture["base"]["overlay"]
    assert all(len(pair) == 2 for pair in format3["base"]["assignment"])
    assert "$splice" in format3["delta"]["patch"]["$dict"]["assignment"]
    assert mixed["base"] == format1["base"] and mixed["delta"]["format"] == 2
    assert "peers" in mixed["delta"]["patch"]["$dict"]["overlay"]["$dict"]
    for fixture in (format1, format2, mixed, offline, format3):
        assert fixture["delta"]["base"] == "base"
    # One run, four writers: the same continuation.
    assert len({fixture["continuation"] for fixture in (format1, format2, mixed, offline)}) == 1
    assert sorted(TIP_PATH) == sorted({_load(name)["continuation"] for name in FIXTURES})


@pytest.mark.parametrize("name", ["base", "tip"])
def test_a_recorded_checkpoint_restores_and_continues_as_recorded(
    backend, recorded, name
):
    restored = SystemBuilder.from_checkpoint(_store(backend, recorded), name=name)
    if name == "tip":
        assert restored.now == recorded["horizon"] / 2
        assert continuation(restored, recorded["horizon"]) == TIP_PATH[recorded["continuation"]]
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
    assert document["format"] == FORMAT and document["base"] == "base"
    assert set(document["patch"]["$dict"].get("assignment", {"$list": []})) == {"$list"}

    resolved = resolve_checkpoint_payload(backend, "upgraded")
    assert resolved["format"] == FORMAT
    assert "peers" not in resolved["overlay"]
    assert _sha(resolved) == BASE_PATH["tip"]
    # The recorded tip, less the peers it assigns to a domain that omitted
    # them (none in the format-3 fixture), and less what the pushes they and
    # the departing partners lost into the partition would have marked.
    tip = resolve_checkpoint_payload(backend, "tip")
    listed = {
        (peer, domain["summary_peer_id"])
        for domain in tip["domains"]
        for peer, _distance in domain["distances"]
    }
    rows = [node for node, _entries in tip["overlay"]["adjacency"]]
    assert resolved["assignment"] == [
        sp if (peer, sp) in listed else None for peer, sp in zip(rows, tip["assignment"])
    ]
    unlisted = sum(sp is not None for sp in tip["assignment"]) - sum(
        sp is not None for sp in resolved["assignment"]
    )
    moved = {key for key in tip if resolved[key] != tip[key]}
    if recorded["base"]["format"] == 3:
        assert unlisted == 0 and moved == {"counter", "described", "domains"}
    else:
        assert unlisted == 18
        assert moved == {"assignment", "counter", "described", "domains"}
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
    assert continuation(restored, recorded["horizon"]) == TIP_PATH[recorded["continuation"]]


def test_format_2_to_3_fills_each_key_a_restore_once_defaulted():
    upgraded = upgrade(_load("format2-offline")["base"], 3)
    older = _load("format2-offline")["base"]
    del older["maintenance"]["cold_starts"], older["overlay"]["rng"]
    del older["config"]["query_max_retries"]
    older["config"]["retry_backoff_seconds"] = 2.0
    older["runtime"] = "simulator"
    for domain in older["domains"]:
        del domain["global_summary"]
    kept = copy.deepcopy(older)
    filled = upgrade(older, 3)
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
    backend.put(CHECKPOINT_KIND, "base", _load("format3")["base"])


def _rewrite_base_in_format_4(backend):
    live = SystemBuilder.from_checkpoint(backend, name="base")
    save_session(live, backend, name="base")


@pytest.mark.parametrize(
    "delta,rewrite",
    [
        ("format1", _rewrite_base_in_format_2),
        ("format2", _rewrite_base_in_format_3),
        ("format3", _rewrite_base_in_format_4),
    ],
    ids=["1-on-2", "2-on-3", "3-on-4"],
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


def test_format_3_to_4_lays_the_pairs_out_by_adjacency_row():
    recorded = _load("format3")["base"]
    kept = copy.deepcopy(recorded)
    upgraded = upgrade(recorded)
    assert recorded == kept  # an upgrade never edits the payload it reads
    rows = [node for node, _entries in recorded["overlay"]["adjacency"]]
    assigned = dict(recorded["assignment"])
    assert upgraded["format"] == 4
    assert upgraded["assignment"] == [assigned.get(node) for node in rows]
    assert {key for key in recorded if upgraded[key] != recorded[key]} == {
        "assignment", "format"
    }


def test_a_format_3_pair_naming_no_peer_is_a_store_error(backend):
    """The pair used to be restored, run with, and written into the next save."""
    recorded = _load("format3")
    recorded["base"]["assignment"].append(["nope", "also-nope"])
    _store(backend, recorded)
    for name in ("base", "tip"):
        with pytest.raises(StoreError, match=r"assignment of \['nope'\] names no adjacency row"):
            SystemBuilder.from_checkpoint(backend, name=name)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda assignment: assignment.pop(),
        lambda assignment: assignment.append(None),
        lambda assignment: assignment.__setitem__(assignment.index(None), "nope"),
        lambda assignment: assignment.__setitem__(0, ["p0"]),
    ],
    ids=["short", "long", "unknown-peer", "not-an-id"],
)
def test_a_malformed_assignment_is_a_store_error(backend, corrupt):
    live = SystemBuilder.from_checkpoint(_store(backend, _load("format3")), name="base")
    save_session(live, backend, name="current")
    document = copy.deepcopy(backend.get(CHECKPOINT_KIND, "current"))
    corrupt(document["assignment"])
    backend.put(CHECKPOINT_KIND, "bad", document)
    with pytest.raises(StoreError, match="assignment"):
        SystemBuilder.from_checkpoint(backend, name="bad")
