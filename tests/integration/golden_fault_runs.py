"""The faulted runs behind ``golden_fault_runs.json``.

Every fault path — the partition cut, the per-hop retries on a lossy link,
the charges to ``MessageCounter`` and the observability series beside them —
may be restructured but never change what a run does.  Each named adversity
scenario is run at a fixed seed and a small size under
``Observability.with_ring()`` with an in-memory store attached (so a
massacred summary peer reclaims its domain); five queries are posed halfway
through the horizon (a partition is then in force) and five at its end.
Three SHA-256 digests per scenario were recorded once and
``test_golden_fault_runs.py`` holds every later commit to them:

* ``checkpoint`` — the canonical checkpoint payload at the horizon;
* ``answers`` — ``wire.encode_answer`` of the ten queries;
* ``metrics`` — the metrics registry's sorted snapshot.

Regenerate only for a deliberate change of the fault or protocol
accounting, or of the checkpoint format (which moves ``checkpoint`` alone)::

    PYTHONPATH=src python tests/integration/golden_fault_runs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict

from repro.core.session import NetworkSession
from repro.obs import Observability
from repro.serve.wire import encode_answer
from repro.store import InMemoryBackend
from repro.store.checkpoint import capture_session
from repro.workloads.registry import ADVERSITY_SCENARIOS, default_registry

FIXTURE = Path(__file__).with_name("golden_fault_runs.json")

PEERS = 48
SEED = 7
QUERIES_PER_POINT = 5


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _sha(document: Any) -> str:
    return hashlib.sha256(canonical(document).encode("utf-8")).hexdigest()


def run_digests(
    name: str, at_each_stop: Callable[[NetworkSession], None] = lambda session: None
) -> Dict[str, str]:
    """The three digests of ``name``'s run; ``at_each_stop`` sees the session
    after each batch of queries (the last stop is the one checkpointed)."""
    scenario = default_registry().scenario(name, peer_count=PEERS, seed=SEED)
    obs = Observability.with_ring()
    session = scenario.apply_dynamics(scenario.builder()).observability(obs).build()
    session.attach_store(InMemoryBackend())
    horizon = scenario.duration_seconds
    answers = []
    for until in (horizon / 2, horizon):
        session.run_until(until)
        answers.extend(session.query_batch(count=QUERIES_PER_POINT))
        at_each_stop(session)
    payload, _snapshots = capture_session(session)
    session.detach_store()
    return {
        "checkpoint": _sha(payload),
        "answers": _sha([encode_answer(answer) for answer in answers]),
        "metrics": _sha(obs.metrics.snapshot()),
    }


def digests() -> Dict[str, Dict[str, str]]:
    return {name: run_digests(name) for name in ADVERSITY_SCENARIOS}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
