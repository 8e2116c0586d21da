"""Serve-load benchmark: queries/sec and latency vs concurrent clients.

The acceptance bench of the serve subsystem: an in-process ``repro serve``
daemon answers ``query_batch`` requests over HTTP from 1/4/16/64 concurrent
clients against the 2000-peer Table-3 checkpoint (5000 with
``REPRO_BENCH_FULL=1``).  Reported per level: queries/sec and p50/p99 request
latency.  ``test_serve_throughput_guard`` is the CI guard: throughput at 16
concurrent clients must stay above ``MIN_GUARD_QPS``.

Answers are verified against a local ``restore_session`` of the same
checkpoint before any timing is trusted: a fast server that answers wrong is
a failure, not a result.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.conftest import attach_table, full_scale
from repro.reporting import ExperimentTable
from repro.serve import ServeClient, start_server
from repro.serve.supervisor import Supervisor
from repro.store.checkpoint import (
    open_readonly_session,
    restore_session,
    save_session,
)
from repro.workloads.registry import default_registry

#: Network scale: the paper's 2000-peer Table-3 point (5000 full-scale).
LOAD_PEERS = 5000 if full_scale() else 2000
#: Concurrency levels swept by the latency profile.
CLIENT_LEVELS = [1, 4, 16, 64]
#: Requests per level, split across the clients of that level.
TOTAL_REQUESTS = 64
#: Queries per request: small batches model interactive traffic.
QUERIES_PER_REQUEST = 2
#: CI guard floor for queries/sec at 16 concurrent clients.  Local runs
#: measure an order of magnitude above this; the slack absorbs shared CI
#: runners, not regressions.
MIN_GUARD_QPS = 25.0
#: Worker processes for the supervised fleet (``repro serve --workers N``).
WORKER_COUNT = 4
#: Floor for supervised/single throughput at 16 clients.  Worker *processes*
#: sidestep the GIL, so on a multi-core machine the fleet must beat the
#: single daemon outright; on fewer cores than workers the processes time-
#: slice one CPU and the guard only demands the supervision layer (proxy
#: hop, admission control, health checks) keeps most of the throughput.
MIN_WORKERS_RATIO = 1.5 if (os.cpu_count() or 1) >= WORKER_COUNT else 0.5


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    scenario = default_registry().scenario(
        "table3-default", peer_count=LOAD_PEERS, duration_seconds=3600.0
    )
    session = scenario.builder().build()
    path = tmp_path_factory.mktemp("serve-bench") / "load.sqlite"
    save_session(session, str(path))
    return path


@pytest.fixture(scope="module")
def served(checkpoint_path):
    path = checkpoint_path
    readonly = open_readonly_session(str(path))
    server = start_server(readonly, close_session_on_stop=True)
    required = max(1, round(0.1 * readonly.overlay.size))

    # Correctness gate: the served batch must equal a local restore's batch.
    over_http = ServeClient(server.url).query_batch(
        count=QUERIES_PER_REQUEST, required_results=required
    )
    local = restore_session(str(path)).query_batch(
        count=QUERIES_PER_REQUEST, required_results=required
    )
    assert over_http == local, "served answers diverge from a local restore"

    yield server, required
    if not readonly.closed:
        server.stop()


@pytest.fixture(scope="module")
def served_workers(checkpoint_path):
    """A supervised worker fleet (``repro serve --workers N``), same checkpoint.

    The response cache is disabled: the guard measures multi-process
    parallelism, and with a cache every repeated benchmark request would be
    answered from memory without touching a worker.
    """
    path = checkpoint_path
    supervisor = Supervisor(
        str(path),
        workers=WORKER_COUNT,
        max_inflight=128,
        deadline_ms=120_000,
        cache_size=0,
        startup_timeout=600.0,
    ).start()
    required = None

    # Correctness gate: the fleet must answer like a local restore.
    local_session = restore_session(str(path))
    required = max(1, round(0.1 * local_session.overlay.size))
    local = local_session.query_batch(
        count=QUERIES_PER_REQUEST, required_results=required
    )
    client = ServeClient(supervisor.url)
    for _worker in range(WORKER_COUNT):
        over_http = client.query_batch(
            count=QUERIES_PER_REQUEST, required_results=required
        )
        assert over_http == local, "fleet answers diverge from a local restore"

    yield supervisor, required
    supervisor.stop()


def _run_level(url: str, clients: int, required: int) -> dict:
    """Drive one concurrency level; returns qps and latency percentiles."""
    per_client = max(1, TOTAL_REQUESTS // clients)

    def worker():
        client = ServeClient(url)
        latencies = []
        for _ in range(per_client):
            started = time.perf_counter()
            answers = client.query_batch(
                count=QUERIES_PER_REQUEST, required_results=required
            )
            latencies.append(time.perf_counter() - started)
            assert len(answers) == QUERIES_PER_REQUEST
        return latencies

    with ThreadPoolExecutor(max_workers=clients) as pool:
        wall_start = time.perf_counter()
        futures = [pool.submit(worker) for _ in range(clients)]
        latencies = [latency for future in futures for latency in future.result()]
        wall = time.perf_counter() - wall_start

    latencies.sort()
    requests = clients * per_client
    return {
        "clients": clients,
        "requests": requests,
        "qps": requests * QUERIES_PER_REQUEST / wall,
        "p50_ms": 1000 * latencies[len(latencies) // 2],
        "p99_ms": 1000 * latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))],
    }


@pytest.mark.benchmark(group="serve-load")
def test_serve_load_latency_profile(served, benchmark):
    """Queries/sec and p50/p99 latency at 1/4/16/64 concurrent clients."""
    server, required = served
    rows = []

    def sweep():
        rows.clear()
        for clients in CLIENT_LEVELS:
            rows.append(_run_level(server.url, clients, required))
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = ExperimentTable(
        name=f"Serve load at {LOAD_PEERS} peers",
        columns=["clients", "requests", "qps", "p50_ms", "p99_ms"],
        expectation="one shared read-only session; latency grows with "
        "queueing, throughput stays flat (handler threads share one GIL)",
        parameters={
            "peers": LOAD_PEERS,
            "queries_per_request": QUERIES_PER_REQUEST,
        },
    )
    for row in rows:
        table.add_row(**{k: round(v, 2) if isinstance(v, float) else v for k, v in row.items()})
    attach_table(benchmark, table)
    for row in rows:
        assert row["qps"] > 0
        assert row["p50_ms"] <= row["p99_ms"]


@pytest.mark.benchmark(group="serve-load")
def test_serve_throughput_guard(served, benchmark):
    """CI guard: ≥ ``MIN_GUARD_QPS`` queries/sec at 16 concurrent clients."""
    server, required = served
    result = benchmark.pedantic(
        lambda: _run_level(server.url, 16, required), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    print(
        f"\nserve throughput at 16 clients: {result['qps']:.1f} q/s "
        f"(p50 {result['p50_ms']:.1f} ms, p99 {result['p99_ms']:.1f} ms, "
        f"{LOAD_PEERS} peers)"
    )
    assert result["qps"] >= MIN_GUARD_QPS, (
        f"serve throughput {result['qps']:.1f} q/s at 16 clients is below "
        f"the {MIN_GUARD_QPS} q/s guard"
    )


@pytest.mark.benchmark(group="serve-load")
def test_serve_workers_vs_single_process(served, served_workers, benchmark):
    """Supervised worker fleet vs the single-process daemon at 16 clients.

    Handler threads of one process share one GIL; worker *processes*
    execute protocol work truly in parallel.  On a
    machine with >= ``WORKER_COUNT`` cores (the CI runners) the fleet is
    guarded at ``1.5x`` the single daemon; on smaller machines the processes
    time-slice one CPU and the guard only polices supervision overhead.
    """
    single_server, required = served
    supervisor, _workers_required = served_workers

    def race():
        single = _run_level(single_server.url, 16, required)
        fleet = _run_level(supervisor.url, 16, required)
        return {"single": single, "fleet": fleet}

    result = benchmark.pedantic(race, rounds=1, iterations=1)
    single_qps = result["single"]["qps"]
    fleet_qps = result["fleet"]["qps"]
    ratio = fleet_qps / single_qps
    health = ServeClient(supervisor.url).health()
    benchmark.extra_info.update(
        {
            "single_qps": single_qps,
            "fleet_qps": fleet_qps,
            "ratio": ratio,
            "workers": WORKER_COUNT,
            "cpus": os.cpu_count(),
            "shed_total": health["shed_total"],
            "restarts_total": health["restarts_total"],
        }
    )
    print(
        f"\nserve fleet ({WORKER_COUNT} workers, {os.cpu_count()} cpus) vs "
        f"single process at 16 clients: {fleet_qps:.1f} vs {single_qps:.1f} "
        f"q/s ({ratio:.2f}x), p99 {result['fleet']['p99_ms']:.1f} vs "
        f"{result['single']['p99_ms']:.1f} ms"
    )

    # The run must have been clean: no worker died, nothing was shed —
    # otherwise the throughput number measures recovery, not serving.
    assert health["restarts_total"] == 0
    assert health["shed_total"] == 0
    assert health["workers_live"] == WORKER_COUNT
    assert ratio >= MIN_WORKERS_RATIO, (
        f"fleet throughput {fleet_qps:.1f} q/s is {ratio:.2f}x the single "
        f"daemon ({single_qps:.1f} q/s); the floor on this machine "
        f"({os.cpu_count()} cpus) is {MIN_WORKERS_RATIO}x"
    )
