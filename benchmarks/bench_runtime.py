"""Runtime backend benchmark: concurrent fan-out vs serial simulator.

The acceptance bench of the :mod:`repro.runtime` layer, on a
maintenance-heavy multi-domain workload (one modification per peer every ten
minutes — 18× the Table-3 default) where every churn/modification event
carries an I/O-shaped cost (~2 ms: a push RPC, a snapshot write).  The
:class:`~repro.runtime.simulator.SimulatorBackend` pays those waits one
``time.sleep`` at a time; the
:class:`~repro.runtime.concurrent.ConcurrentBackend` overlaps them per drain
window across actor mailboxes, so the same run finishes in a fraction of the
wall clock while producing byte-identical answers and message counters.

``test_runtime_speedup_guard`` is the CI guard: the concurrent backend must
be at least ``MIN_SPEEDUP``× faster than the simulator backend *and* its
answers/counters must equal the simulator's — a fast backend that answers
differently is a failure, not a result.
"""

import time

import pytest

from benchmarks.conftest import attach_table, full_scale
from repro.reporting import ExperimentTable
from repro.runtime import ConcurrentBackend, SimulatorBackend
from repro.workloads.registry import default_registry

#: Network scale of the maintenance-heavy workload.
RUNTIME_PEERS = 128 if full_scale() else 64
#: Simulated horizon (seconds).
HORIZON = 7200.0
#: One modification per peer per 10 minutes: maintenance-heavy.
MODIFICATION_RATE = 1.0 / 600.0
#: Wall-clock cost modelled per maintenance-shaped event (seconds).
IO_COST_SECONDS = 0.002
#: CI guard floor for the concurrent/simulator wall-clock ratio.  Local runs
#: measure ~7×; the slack absorbs shared CI runners, not regressions.
MIN_SPEEDUP = 2.0

#: Labels that carry the modelled I/O cost (the events scenario runs
#: schedule: content modifications and churn arrivals/departures).
IO_LABELS = frozenset({"modification", "departure", "rejoin"})


def _io_model(label):
    return IO_COST_SECONDS if label in IO_LABELS else 0.0


def _build(runtime):
    scenario = default_registry().scenario(
        "table3-default", peer_count=RUNTIME_PEERS, duration_seconds=HORIZON
    )
    builder = scenario.builder().runtime(runtime)
    return scenario.apply_dynamics(
        builder, modification_rate_per_peer=MODIFICATION_RATE
    ).build()


def _run(runtime):
    """Run the workload on ``runtime``; returns (wall seconds, fingerprint)."""
    session = _build(runtime)
    started = time.perf_counter()
    session.run_until()
    wall = time.perf_counter() - started
    fingerprint = {
        "answers": session.query_batch(count=4, required_results=3),
        "counter": session.system.counter.state_payload(),
        "now": session.now,
    }
    return wall, fingerprint


@pytest.mark.benchmark(group="runtime")
def test_runtime_backend_profile(benchmark):
    """Wall clock of the three executions: CPU-only, serial I/O, overlapped."""
    rows = []

    def sweep():
        rows.clear()
        for label, runtime in (
            ("simulator (no io)", SimulatorBackend()),
            ("simulator + io", SimulatorBackend(io_model=_io_model)),
            (
                "concurrent + io",
                ConcurrentBackend(
                    io_model=_io_model, quantum_seconds=120.0, max_concurrency=16
                ),
            ),
        ):
            wall, fingerprint = _run(runtime)
            rows.append({"backend": label, "wall_s": wall, "fp": fingerprint})
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    # All three executions are the same virtual run.
    assert rows[0]["fp"] == rows[1]["fp"] == rows[2]["fp"]

    table = ExperimentTable(
        name=f"Runtime backends at {RUNTIME_PEERS} peers, {HORIZON:.0f}s horizon",
        columns=["backend", "wall_s"],
        expectation="identical answers/counters; the concurrent backend "
        "overlaps the I/O waits the serial simulator pays one at a time",
        parameters={
            "peers": RUNTIME_PEERS,
            "modification_rate_per_peer": MODIFICATION_RATE,
            "io_cost_ms": IO_COST_SECONDS * 1000,
        },
    )
    for row in rows:
        table.add_row(backend=row["backend"], wall_s=round(row["wall_s"], 3))
    attach_table(benchmark, table)


@pytest.mark.benchmark(group="runtime")
def test_runtime_speedup_guard(benchmark):
    """CI guard: concurrent ≥ ``MIN_SPEEDUP``× simulator, equivalence-gated."""

    def race():
        serial_wall, serial_fp = _run(SimulatorBackend(io_model=_io_model))
        backend = ConcurrentBackend(
            io_model=_io_model, quantum_seconds=120.0, max_concurrency=16
        )
        overlap_wall, overlap_fp = _run(backend)
        return {
            "serial_s": serial_wall,
            "concurrent_s": overlap_wall,
            "speedup": serial_wall / overlap_wall,
            "fanout_rounds": backend.fanout_rounds,
            "overlapped_events": backend.overlapped_events,
            "equal": serial_fp == overlap_fp,
        }

    result = benchmark.pedantic(race, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {k: v for k, v in result.items() if k != "equal"}
    )
    print(
        f"\nruntime speedup: {result['speedup']:.2f}x "
        f"(serial {result['serial_s']:.2f}s, concurrent {result['concurrent_s']:.2f}s, "
        f"{result['overlapped_events']} overlapped events in "
        f"{result['fanout_rounds']} rounds, {RUNTIME_PEERS} peers)"
    )
    # Equivalence gates the timing: a fast-but-wrong backend must fail here.
    assert result["equal"], "concurrent answers diverged from the simulator"
    assert result["overlapped_events"] > 0, "the fan-out path never ran"
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"concurrent backend speedup {result['speedup']:.2f}x is below the "
        f"{MIN_SPEEDUP}x guard"
    )
