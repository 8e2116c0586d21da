"""Query-path benchmark: what observability costs a served query.

``test_obs_overhead_guard`` is the observability CI guard, and it measures
what ships: requests answered one at a time by a read-only session of the
2000-peer Table-3 checkpoint — the session shape and call ``repro serve``
runs — with metrics+tracing installed as :class:`SummaryQueryServer` installs
them by default (span ring, per-domain detail on).  It is the in-process
measurement behind the ledger's ``obs.overhead_ratio``; the instrumented leg
must stay within ``MAX_OBS_OVERHEAD`` of the uninstrumented one and produce
equal answers.
"""

import gc
import time

import pytest

from benchmarks.conftest import full_scale
from repro.obs import Observability
from repro.store.checkpoint import open_readonly_session, save_session
from repro.workloads.registry import default_registry

#: Network scale of the guard: the paper's 2000-peer Table-3 point, where a
#: query walks 125 domains.
THROUGHPUT_PEERS = 5000 if full_scale() else 2000
#: Requests per measured leg; large enough that per-query costs dominate.
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
        {
            "originator": originators[(7 * index) % len(originators)],
            "required_results": required,
        }
        for index in range(count)
    ]


#: Enabled-observability ceiling.  At 125 domains per query the always-on
#: part — the ``query`` span, six counter updates, one batched histogram
#: update — reads ≈1.06× and the two trace rows per domain ≈0.10× on top
#: (1.15–1.17 on the dev box); best-of-N minima on both legs absorb the
#: measurement slack, and eleven rounds hold the ratio of minima to ±0.015.
MAX_OBS_OVERHEAD = 1.20
OVERHEAD_ROUNDS = 11


@pytest.mark.benchmark(group="query-engine-obs")
def test_obs_overhead_guard(benchmark, tmp_path):
    """CI guard: the daemon's default metrics+tracing cost ≤20% of a query."""
    store = str(tmp_path / "table3.sqlite")
    save_session(_table3_session(), store)
    session = open_readonly_session(store)
    requests = _requests(session, THROUGHPUT_QUERIES)

    def leg():
        return [session.query(**request) for request in requests]

    # Warm every per-query cache once so both legs measure steady state.
    plain_results = leg()

    # SummaryQueryServer's default (serve/server.py): what every daemon runs.
    obs = Observability.with_ring(detail=True)
    session.install_observability(obs)
    instrumented_results = leg()
    session.install_observability(None)
    assert instrumented_results == plain_results, (
        "observability changed the answers"
    )
    assert obs.metrics.value("repro_queries_total") > 0, (
        "instrumented leg recorded no query metrics"
    )
    assert any(span.name == "route-domain" for span in obs.ring.spans()), (
        "instrumented leg recorded no per-domain detail"
    )

    # Interleave the legs so machine drift (thermal, cache) hits both
    # equally; minima per leg, ratio of the minima.  Each leg starts from a
    # collected heap: left alone, the two-leg cycle falls in step with full
    # GC passes and one leg pays for the other's garbage.
    plain_seconds = instrumented_seconds = float("inf")
    for _round in range(OVERHEAD_ROUNDS):
        gc.collect()
        t0 = time.perf_counter()
        leg()
        plain_seconds = min(plain_seconds, time.perf_counter() - t0)

        session.install_observability(obs)
        try:
            gc.collect()
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
        f"\nobs overhead (ring + detail, read-only session): plain "
        f"{plain_seconds:.4f}s vs instrumented {instrumented_seconds:.4f}s — "
        f"{overhead:.3f}x at {session.overlay.size} peers "
        f"({THROUGHPUT_QUERIES} queries/leg)"
    )
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"observability overhead {overhead:.3f}x exceeds the "
        f"{MAX_OBS_OVERHEAD}x guard"
    )
