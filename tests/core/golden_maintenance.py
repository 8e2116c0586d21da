"""The maintenance horizons behind ``golden_maintenance.json``.

The discrete-event loop that runs §4's maintenance — departures and their
pushes, rejoins, modifications, ring reconciliations at α — may get cheaper
but never different: the same seed must fire the same events in the same
order and leave the same state.  Each case builds ``table3-default`` with its
churn and modifications, runs it to half its horizon and then to the end,
and at each stop hashes three things:

* ``counter`` — ``MessageCounter.state_payload()``;
* ``pending`` — the pending events as ``[time, sequence, label, spec]``
  rows, in firing order;
* ``checkpoint`` — the canonical checkpoint payload.

The cases are the paper's 500-peer default and the 2000-peer point, seeds
1–2, under the simulator backend, plus a 64-peer run under
:class:`~repro.runtime.ConcurrentBackend` with a 2 ms I/O wait on every
maintenance-shaped event (its windows drain through ``due`` and
``run(until=)``).  The digests were recorded once, before the event queue
moved to tuple heap entries; ``checkpoint`` and the half-horizon ``pending``
were re-recorded once since, when checkpoints went to format 3 and
``schedule_at(t)`` began storing ``t`` itself (it had stored
``now + (t - now)``, one ulp off for a few departures); ``checkpoint`` alone
again when format 4 wrote the assignment by adjacency row.
``test_golden_maintenance.py`` holds every later commit to them.  Regenerate only for a deliberate change of the
maintenance protocol, the churn model or the checkpoint format::

    PYTHONPATH=src python tests/core/golden_maintenance.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.runtime import ConcurrentBackend
from repro.store.checkpoint import capture_session
from repro.workloads.registry import default_registry

FIXTURE = Path(__file__).with_name("golden_maintenance.json")

PEER_COUNTS = (500, 2000)
SEEDS = (1, 2)

#: The concurrent case: peers, horizon, modification rate, seed.
IO_PEERS = 64
IO_HORIZON_S = 2 * 3600.0
IO_MODIFICATION_RATE = 1.0 / 600.0
IO_SEED = 1
IO_LABELS = frozenset({"modification", "departure", "rejoin"})


def io_model(label: str) -> float:
    return 0.002 if label in IO_LABELS else 0.0


def cases() -> Iterator[Tuple[str, int, int, bool]]:
    for peer_count in PEER_COUNTS:
        for seed in SEEDS:
            yield f"table3-default/{peer_count}/seed-{seed}", peer_count, seed, False
    yield f"table3-default/{IO_PEERS}/concurrent-io", IO_PEERS, IO_SEED, True


def _sha(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def horizon_digests(peer_count: int, seed: int, concurrent: bool) -> Dict[str, str]:
    """``{"<stop>/<what>": sha256}`` at half the horizon and at its end."""
    registry = default_registry()
    if concurrent:
        scenario = registry.scenario(
            "table3-default",
            peer_count=peer_count,
            duration_seconds=IO_HORIZON_S,
            seed=seed,
        )
        builder = scenario.builder().runtime(
            ConcurrentBackend(io_model=io_model, quantum_seconds=120.0, max_concurrency=16)
        )
        builder = scenario.apply_dynamics(
            builder, modification_rate_per_peer=IO_MODIFICATION_RATE
        )
    else:
        scenario = registry.scenario("table3-default", peer_count=peer_count, seed=seed)
        builder = scenario.apply_dynamics(scenario.builder())
    session = builder.build()
    horizon = scenario.duration_seconds
    digests: Dict[str, str] = {}
    for stop, until in (("half", horizon / 2), ("end", horizon)):
        session.run_until(until)
        digests[f"{stop}/counter"] = _sha(session.system.counter.state_payload())
        digests[f"{stop}/pending"] = _sha(
            [
                [event.time, event.sequence, event.label, event.spec]
                for event in session.simulator.pending()
            ]
        )
        digests[f"{stop}/checkpoint"] = _sha(capture_session(session)[0])
    return digests


def record() -> Dict[str, Dict[str, str]]:
    return {
        name: horizon_digests(peers, seed, concurrent)
        for name, peers, seed, concurrent in cases()
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
