"""The fixed document pairs behind ``golden_patches.json``.

``diff_documents`` may get faster but never different: a patch is a function
of the two stored texts alone, so the canonical text of every pair's patch was
recorded once — at the last commit whose ``_equal`` confirmed every
``==``-equal element by encoding both sides one element at a time — and
``test_golden_patches.py`` holds every later commit to it.  The pairs cover
each branch of the patch grammar and the pairs ``==`` cannot tell apart
(``1`` / ``1.0`` / ``True``, ``0.0`` / ``-0.0``, a tuple against an equal
list, equal dicts in a different key order, a ``==``-equal container with one
such leaf deep inside).  The session entries are the SHA-256 of a 64-peer
planned and a 16-peer medical checkpoint's base payload, tip payload and the
patch between them.  Regenerate only for a deliberate change of the patch
grammar or the checkpoint format::

    PYTHONPATH=src python tests/store/golden_patches.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.store import CHECKPOINT_KIND, InMemoryBackend, diff_documents
from repro.store.checkpoint import resolve_checkpoint_payload
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.registry import default_registry

FIXTURE = Path(__file__).with_name("golden_patches.json")


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _event(rng: random.Random, sequence: int) -> Dict[str, Any]:
    return {
        "time": round(rng.uniform(0, 3600), 3),
        "sequence": sequence,
        "label": rng.choice(["churn", "modification", "query"]),
        "spec": {"kind": rng.choice(["leave", "join", "modify"]), "peer": f"p{rng.randrange(40)}"},
    }


def _peer(index: int, online: bool = True) -> Dict[str, Any]:
    return {
        "peer_id": f"p{index}",
        "online": online,
        "summary_peer_distance": float(index % 4),
        "known_summary_peers": [f"sp{index % 3}", f"sp{(index + 1) % 3}"],
    }


def _random_document(rng: random.Random, depth: int = 0) -> Any:
    kind = rng.random()
    if depth >= 3 or kind < 0.3:
        return rng.choice(
            [None, True, False, 0, 1, 1.0, 0.0, -0.0, rng.randint(-5, 5), rng.random(), "s", ""]
        )
    if kind < 0.65:
        return [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 6))]
    return {f"k{i}": _random_document(rng, depth + 1) for i in range(rng.randint(0, 5))}


def _mutate(rng: random.Random, document: Any) -> Any:
    if isinstance(document, dict) and document and rng.random() < 0.8:
        copy = dict(document)
        for key in rng.sample(sorted(copy), k=rng.randint(1, len(copy))):
            roll = rng.random()
            if roll < 0.15:
                del copy[key]
            elif roll < 0.7:
                copy[key] = _mutate(rng, copy[key])
        if rng.random() < 0.3:
            copy[f"n{rng.randrange(3)}"] = _random_document(rng, 2)
        return copy
    if isinstance(document, list) and document and rng.random() < 0.8:
        copy = list(document)
        roll = rng.random()
        if roll < 0.3:
            copy[rng.randrange(len(copy))] = _mutate(rng, copy[rng.randrange(len(copy))])
        elif roll < 0.5:
            copy.insert(rng.randrange(len(copy) + 1), _random_document(rng, 2))
        elif roll < 0.7:
            del copy[rng.randrange(len(copy))]
        elif roll < 0.85:
            copy = copy[rng.randrange(len(copy)) :] + [_random_document(rng, 2)]
        else:
            copy = [_mutate(rng, item) for item in copy]
        return copy
    return _random_document(rng, 1)


def document_pairs() -> Iterator[Tuple[str, Any, Any]]:
    """``(name, base, new)`` — built from code, so tuples and key orders survive."""
    rng = random.Random(22)
    events = [_event(rng, sequence) for sequence in range(40)]
    fresh = [_event(rng, 100 + sequence) for sequence in range(6)]
    peers = [_peer(index) for index in range(30)]

    yield "list/drained", {"events": events}, {"events": []}
    yield "list/filled-from-empty", {"events": []}, {"events": events}
    yield "list/append-only", {"history": events[:25]}, {"history": events}
    yield "list/prepend", {"history": events[10:]}, {"history": events}
    yield "list/consumed-prefix", {"events": events}, {"events": events[12:]}
    yield (
        "list/consumed-prefix-and-insertions",
        {"events": events},
        {"events": events[12:20] + fresh[:2] + events[20:33] + fresh[2:4] + events[33:]},
    )
    yield (
        "list/middle-replaced",
        {"events": events},
        {"events": events[:15] + fresh + events[22:]},
    )
    yield "list/trailing-removed", {"events": events}, {"events": events[:31]}
    yield "list/splice-mostly-new", {"events": events[:4]}, {"events": events[:1] + fresh}
    yield "list/to-empty-scalar-items", {"a": [1, 2, 3]}, {"a": []}
    yield "list/repeated-items", {"a": [0, 0, 1, 0, 0]}, {"a": [0, 1, 0, 0, 0, 0]}
    flipped = [dict(peer) for peer in peers]
    for index in (3, 17, 28):
        flipped[index]["online"] = False
    yield "list/same-length-sparse", {"peers": peers}, {"peers": flipped}
    most = [_peer(index, online=index % 5 == 0) for index in range(30)]
    yield "list/same-length-mostly-changed", {"peers": peers}, {"peers": most}
    yield "list/same-length-at-threshold", {"a": [0, 0, 0, 0]}, {"a": [1, 1, 1, 0]}
    yield "list/same-length-over-threshold", {"a": [0, 0, 0, 0]}, {"a": [1, 1, 1, 1]}
    yield "list/empty-both", {"a": []}, {"a": []}
    yield "dict/dropped-and-added", {"a": 1, "b": 2, "c": [1]}, {"a": 1, "d": {"x": 1}}
    yield "dict/all-dropped", {"a": 1, "b": 2}, {}
    yield "dict/identical-objects", {"peers": peers}, {"peers": peers}
    yield "dict/type-change", {"a": "text", "b": [1]}, {"a": ["now", "a", "list"], "b": {"0": 1}}
    yield "root/scalar-to-dict", 3, {"a": 3}
    yield "root/list-to-list", [1, 2, 3], [1, 2, 3, 4]
    yield (
        "nested/mix",
        {
            "simulator": {"now": 10.0, "events": events, "processed": 7},
            "overlay": {"peers": peers, "nodes": [f"p{i}" for i in range(30)]},
            "maintenance": {"history": events[:5], "push_messages": 3},
            "gone": True,
        },
        {
            "simulator": {"now": 20.0, "events": events[9:] + fresh[:1], "processed": 16},
            "overlay": {"peers": flipped, "nodes": [f"p{i}" for i in range(30)]},
            "maintenance": {"history": events[:9], "push_messages": 3},
            "runtime": "concurrent",
        },
    )

    # What ``==`` cannot tell apart but the stored text can (or the reverse).
    yield "lax/int-float", {"a": 1, "b": 2}, {"a": 1.0, "b": 2}
    yield "lax/bool-int", {"a": True, "b": 0}, {"a": 1, "b": False}
    yield "lax/list-int-float-bool", {"a": [1, 1.0, True, 2]}, {"a": [True, 1, 1.0, 2]}
    yield "lax/negative-zero", {"a": 0.0, "b": [0.0, -0.0]}, {"a": -0.0, "b": [-0.0, 0.0]}
    yield "lax/tuple-for-equal-list", {"a": [1, 2], "b": [[1], 2]}, {"a": (1, 2), "b": [(1,), 2]}
    yield "lax/tuple-both-sides", {"a": (1, 2), "b": 1}, {"a": (1, 2), "b": 2}
    yield (
        "lax/key-order",
        {"a": {"x": 1, "y": 2}, "b": [{"x": 1, "y": 2}], "c": 0},
        {"a": {"y": 2, "x": 1}, "b": [{"y": 2, "x": 1}], "c": 1},
    )
    yield (
        "lax/deep-leaf-in-equal-dict",
        {"keep": peers[:3], "x": {"deep": [1, {"v": 1, "w": [0, 2]}]}, "y": "same"},
        {"keep": peers[:3], "x": {"deep": [1, {"v": 1.0, "w": [0, 2]}]}, "y": "same"},
    )
    yield (
        "lax/deep-leaf-in-equal-same-length-list",
        {"a": [peers[0], {"v": [True, 2]}, peers[1], 7]},
        {"a": [peers[0], {"v": [1, 2]}, peers[1], 8]},
    )
    yield (
        "lax/deep-leaf-in-equal-prefix",
        {"a": [{"v": 1}, {"v": 2}, {"v": 3}, {"v": 4}]},
        {"a": [{"v": 1}, {"v": 2.0}, {"v": 3}, {"v": 4}, {"v": 5}]},
    )
    yield (
        "lax/deep-leaf-in-equal-suffix",
        {"a": [{"v": 0}, {"v": 1}, {"v": 2}, {"v": 3}]},
        {"a": [{"v": 1}, {"v": 2}, {"v": 3.0}]},
    )
    yield (
        "lax/prefix-and-suffix-overlap",
        {"a": [1, 1, 1]},
        {"a": [1, 1, 1, 1, 1]},
    )
    yield "lax/splice-of-lax-items", {"a": [1, True, 1.0]}, {"a": [1.0, 1, True, 1]}

    for seed in range(24):
        rng = random.Random(1000 + seed)
        base = {"doc": _random_document(rng), "list": [_random_document(rng, 1) for _ in range(8)]}
        new = _mutate(rng, base)
        while canonical(new) == canonical(base):
            new = _mutate(rng, base)
        yield f"random/{seed:02d}", base, new


# -- whole sessions ------------------------------------------------------------------


_MEDICAL_HORIZON = 1800.0


def planned_session():
    scenario = default_registry().scenario(
        "churn-heavy", peer_count=64, duration_seconds=3600.0, seed=1
    )
    # The runtime is named: ``$REPRO_RUNTIME`` would otherwise enter the payload.
    return scenario.apply_dynamics(scenario.builder().runtime("simulator")).build()


def medical_session(seed: int = 1, peers: int = 16):
    overlay = Overlay.generate(TopologyConfig(peer_count=peers, seed=seed))
    workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=seed)
    return (
        SystemBuilder()
        .topology(overlay)
        .background(medical_background_knowledge())
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(build_peer_databases(overlay.peer_ids, workload))
        .modifications(_MEDICAL_HORIZON, 1.0 / 300.0)
        .churn(duration_seconds=_MEDICAL_HORIZON)
        .runtime("simulator")
        .seed(seed)
        .build()
    )


def session_digests(session, backend) -> Dict[str, str]:
    """SHA-256 of the base payload, the tip payload and the stored patch."""
    session.run_until(session.horizon / 2)
    session.checkpoint(backend, name="base")
    session.run_until(session.horizon)
    session.checkpoint(backend, name="tip", base="base")
    texts = {
        "base": canonical(resolve_checkpoint_payload(backend, "base")),
        "tip": canonical(resolve_checkpoint_payload(backend, "tip")),
        "patch": canonical(backend.get(CHECKPOINT_KIND, "tip")["patch"]),
    }
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in texts.items()}


def patches() -> Dict[str, Any]:
    recorded: Dict[str, Any] = {
        f"pair/{name}": canonical(diff_documents(base, new))
        for name, base, new in document_pairs()
    }
    for name, build in (("planned-64", planned_session), ("medical-16", medical_session)):
        for part, digest in session_digests(build(), InMemoryBackend()).items():
            recorded[f"session/{name}/{part}"] = digest
    return recorded


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(patches(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
