"""``repro.obs`` — metrics registry, structured tracing, live profiling.

The observability substrate every layer reports through.  One
:class:`Observability` object bundles a :class:`MetricsRegistry` (counters,
gauges, fixed-bucket histograms) with a :class:`Tracer` (span trees on the
simulator *and* wall clocks, emitted to a pluggable :class:`TraceSink`).

Instrumented components — the protocol engine, query router, fault injector,
snapshot store, lazy hierarchy source, and the serve daemon —
each hold an ``Observability`` hook that is ``None`` by default.  With the
hook unset every instrumentation site is a single pointer test, so the
uninstrumented path is byte-identical (answers, message counters, RNG state)
to a build without observability at all; the identity suite in
``tests/obs/test_identity.py`` pins that.

Enable it per session::

    session = (
        SystemBuilder()
        .topology(peer_count=60, seed=7)
        .observability()           # or .observability(trace_path="run.jsonl")
        .build()
    )
    session.run_until(1800.0)
    print(session.observability.metrics.render_prometheus())

or on a live daemon via ``repro serve`` (enabled there by default) and read it
back with ``curl /metrics`` (Prometheus text format), ``curl /trace`` (span
tail), or the ``repro metrics`` / ``repro trace`` CLI commands.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs.registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.trace import (
    JsonlSink,
    NullSink,
    RingBufferSink,
    Span,
    TraceSink,
    Tracer,
    connected_trace,
    span_tree,
)

__all__ = [
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "HistogramSnapshot",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "Observability",
    "RingBufferSink",
    "Span",
    "TraceSink",
    "Tracer",
    "connected_trace",
    "parse_prometheus",
    "span_tree",
]

#: Histograms whose boundaries are fixed up front so snapshots from different
#: runs and processes merge bucket-for-bucket.  Time histograms are seconds.
_COUNT_HISTOGRAMS = (
    ("repro_query_domains_visited", "domains visited per query"),
    ("repro_routing_messages_per_domain", "query messages spent in one domain"),
    ("repro_push_retries_per_delta", "retransmissions per delta push"),
)
_TIME_HISTOGRAMS = (
    ("repro_serve_request_seconds", "wall-clock time serving one HTTP request"),
)


class Observability:
    """One registry + one tracer, shared by every instrumented layer."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_sink: Optional[TraceSink] = None,
        detail: bool = False,
    ) -> None:
        if tracer is not None and trace_sink is not None:
            raise ValueError("pass either tracer or trace_sink, not both")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(sink=trace_sink)
        #: Gates the fine-grained records: two trace rows per domain a query
        #: visits (listed by readers as ``route-domain`` and
        #: ``hierarchy-selection`` spans under the ``query`` span) and the
        #: concurrent runtime's per-round fan-out span.  Coarse spans and every
        #: metric are always recorded.  A row is three clock reads and two
        #: small tuples, ≈1 µs a domain — ≈0.15 ms on a 125-domain query at
        #: 2000 peers, beside ≈0.1 ms for the always-on part — so the serve
        #: daemon and artifact recording turn it on; a simulated batch of
        #: thousands of queries nobody will read span by span leaves it off.
        self.detail = detail

    # -- construction helpers ----------------------------------------------------------

    @classmethod
    def with_ring(cls, capacity: int = 2048, detail: bool = False) -> "Observability":
        """Metrics plus an in-memory span ring (the serve daemon's default)."""
        return cls(trace_sink=RingBufferSink(capacity), detail=detail)

    @classmethod
    def with_jsonl(cls, path: str, detail: bool = True) -> "Observability":
        """Metrics plus a JSONL trace file at ``path`` (full detail: the
        artifact is for offline analysis, and is written span by span — rows
        expanded — so it reads back with :meth:`JsonlSink.read` alone)."""
        return cls(trace_sink=JsonlSink(path), detail=detail)

    # -- convenience passthroughs ------------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.metrics.inc(name, amount, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.observe(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.set_gauge(name, value, **labels)

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None, **kwargs: Any):
        return self.tracer.span(name, attrs=attrs, **kwargs)

    def bind_sim_clock(self, sim_clock: Callable[[], float]) -> None:
        """Point the tracer at a simulator clock (installed by the system)."""
        self.tracer.sim_clock = sim_clock

    @property
    def ring(self) -> Optional[RingBufferSink]:
        """The tracer's ring sink, when it has one (``/trace`` reads this)."""
        sink = self.tracer.sink
        return sink if isinstance(sink, RingBufferSink) else None

    def close(self) -> None:
        self.tracer.sink.close()
