"""Query-path benchmark: what observability costs the batched query path.

``test_obs_overhead_guard`` is the observability CI guard: a repeated
planned-query batch at the 2000-peer Table-3 scale with metrics+tracing
installed must stay within ``MAX_OBS_OVERHEAD`` of the uninstrumented run,
and produce equal answers.
"""

import time

import pytest

from benchmarks.conftest import full_scale
from repro.core.routing import QueryRequest, RoutingPolicy
from repro.workloads.registry import default_registry

#: Network scale of the guard: the paper's 2000-peer Table-3 point.
THROUGHPUT_PEERS = 5000 if full_scale() else 2000
#: Queries per measured leg; large enough that per-query costs dominate.
THROUGHPUT_QUERIES = 60


def _table3_session():
    scenario = default_registry().scenario(
        "table3-default", peer_count=THROUGHPUT_PEERS, duration_seconds=3600.0
    )
    # No churn/modification dynamics: this bench isolates the query path.
    return scenario.builder().build()


def _requests(session, count):
    originators = session.partner_ids()
    required = max(1, round(0.1 * session.overlay.size))
    return [
        QueryRequest(
            originator=originators[(7 * index) % len(originators)],
            query_id=session.next_query_id(),
            policy=RoutingPolicy.ALL,
            required_results=required,
        )
        for index in range(count)
    ]


#: Enabled-observability ceiling on the repeated-query workload: the
#: instrumented run may cost at most 10% over the uninstrumented one (plus
#: measurement slack absorbed by best-of-N minima on both legs).
MAX_OBS_OVERHEAD = 1.10
OVERHEAD_ROUNDS = 5


@pytest.mark.benchmark(group="query-engine-obs")
def test_obs_overhead_guard(benchmark):
    """CI guard: metrics+tracing cost ≤10% on the batched query path."""
    from repro.obs import Observability

    session = _table3_session()
    requests = _requests(session, THROUGHPUT_QUERIES)
    content = session.content
    for request in requests:
        content.matching_peers(request.query_id)

    def leg():
        return session.query_batch(requests=requests, include_staleness=False)

    # Warm every per-query cache once so both legs measure steady state.
    plain_results = leg()

    obs = Observability.with_ring()
    session.install_observability(obs)
    instrumented_results = leg()
    session.install_observability(None)
    assert instrumented_results == plain_results, (
        "observability changed the answers"
    )
    assert obs.metrics.value("repro_queries_total") > 0, (
        "instrumented leg recorded no query metrics"
    )

    # Interleave the legs so machine drift (thermal, cache, GC pressure)
    # hits both equally; minima per leg, ratio of the minima.
    plain_seconds = instrumented_seconds = float("inf")
    for _round in range(OVERHEAD_ROUNDS):
        t0 = time.perf_counter()
        leg()
        plain_seconds = min(plain_seconds, time.perf_counter() - t0)

        session.install_observability(obs)
        try:
            t0 = time.perf_counter()
            leg()
            instrumented_seconds = min(
                instrumented_seconds, time.perf_counter() - t0
            )
        finally:
            session.install_observability(None)

    benchmark.pedantic(leg, rounds=1, iterations=1)
    overhead = instrumented_seconds / plain_seconds
    benchmark.extra_info["plain_seconds"] = plain_seconds
    benchmark.extra_info["instrumented_seconds"] = instrumented_seconds
    benchmark.extra_info["obs_overhead"] = overhead
    print(
        f"\nobs overhead: plain {plain_seconds:.4f}s vs instrumented "
        f"{instrumented_seconds:.4f}s — {overhead:.3f}x at "
        f"{session.overlay.size} peers ({THROUGHPUT_QUERIES} queries/leg)"
    )
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"observability overhead {overhead:.3f}x exceeds the "
        f"{MAX_OBS_OVERHEAD}x guard"
    )
