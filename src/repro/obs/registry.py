"""A deterministic metrics registry: counters, gauges, histograms.

The registry is the numeric half of :mod:`repro.obs`.  Like
:class:`~repro.network.metrics.MessageCounter` it is deterministic and
seed-independent — recording never consumes randomness, never reads the wall
clock, and iteration order is sorted — so two runs of the same seeded scenario
produce byte-identical snapshots.  Unlike ``MessageCounter`` it is generic:
any instrumented layer (protocol, store, serve daemon) records into one shared
:class:`MetricsRegistry` under its own metric names and label sets.

Three instrument kinds, mirroring the Prometheus data model:

* **counters** — monotonically increasing totals (``inc``),
* **gauges** — last-write-wins values (``set_gauge``),
* **histograms** — observations bucketed into *fixed* boundaries declared up
  front (``declare_histogram`` + ``observe``), so merged snapshots from
  different processes always line up bucket-for-bucket.

Snapshots (:meth:`MetricsRegistry.snapshot`) are JSON-compatible and
re-importable (:meth:`MetricsRegistry.merge_snapshot`), and the whole registry
renders to the Prometheus text exposition format (:meth:`render_prometheus`)
for the serve daemon's ``/metrics`` endpoint.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError

#: Default histogram boundaries (seconds): spans request latencies from
#: sub-millisecond in-process calls to multi-second cold starts.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default boundaries for small discrete counts (messages per domain, domains
#: per query, retries per push...).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    escaped = []
    for name, value in pairs:
        value = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        escaped.append(f'{name}="{value}"')
    return "{" + ",".join(escaped) + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


@dataclass
class HistogramSnapshot:
    """One histogram series: fixed bucket boundaries plus count/sum."""

    buckets: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    total_count: int = 0
    total_sum: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.total_count += 1
        self.total_sum += value
        # The first bucket whose bound is >= value (``le`` semantics); past
        # the last bound that is the overflow slot at ``len(buckets)``.
        self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative(self) -> List[int]:
        """Cumulative per-bucket counts, Prometheus ``le`` semantics."""
        running = 0
        out = []
        for count in self.counts[:-1]:
            running += count
            out.append(running)
        return out

    def merge(self, other: "HistogramSnapshot") -> None:
        if other.buckets != self.buckets:
            raise ConfigurationError(
                "cannot merge histograms with different bucket boundaries"
            )
        self.total_count += other.total_count
        self.total_sum += other.total_sum
        for index, count in enumerate(other.counts):
            self.counts[index] += count


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms with deterministic snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, HistogramSnapshot]] = {}
        self._histogram_buckets: Dict[str, Tuple[float, ...]] = {}
        self._help: Dict[str, str] = {}

    # -- declaration -------------------------------------------------------------------

    def declare_histogram(
        self, name: str, buckets: Iterable[float], help: str = ""  # noqa: A002
    ) -> None:
        """Fix ``name``'s bucket boundaries (must be sorted, non-empty)."""
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} needs sorted, non-empty bucket boundaries"
            )
        with self._lock:
            existing = self._histogram_buckets.get(name)
            if existing is not None and existing != bounds:
                raise ConfigurationError(
                    f"histogram {name!r} already declared with different buckets"
                )
            self._histogram_buckets[name] = bounds
            self._histograms.setdefault(name, {})
            if help:
                self._help[name] = help

    def describe(self, name: str, help: str) -> None:  # noqa: A002
        with self._lock:
            self._help[name] = help

    # -- recording ---------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            buckets = self._histogram_buckets.get(name)
            if buckets is None:
                buckets = DEFAULT_TIME_BUCKETS
                self._histogram_buckets[name] = buckets
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = HistogramSnapshot(buckets=buckets)
            histogram.observe(float(value))

    def observe_many(self, name: str, values: Iterable[float], **labels: Any) -> None:
        """Record a batch of observations under one lock acquisition.

        Hot instrumentation sites (per-domain routing stats recorded once per
        query) use this so a 100-domain query pays one registry round-trip,
        not one hundred.
        """
        key = _label_key(labels)
        with self._lock:
            buckets = self._histogram_buckets.get(name)
            if buckets is None:
                buckets = DEFAULT_TIME_BUCKETS
                self._histogram_buckets[name] = buckets
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = HistogramSnapshot(buckets=buckets)
            observe = histogram.observe
            for value in values:
                observe(float(value))

    # -- reading -----------------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never incremented)."""
        key = _label_key(labels)
        with self._lock:
            value = self._counters.get(name, {}).get(key, 0)
        return value

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        key = _label_key(labels)
        with self._lock:
            return self._gauges.get(name, {}).get(key)

    def histogram(self, name: str, **labels: Any) -> Optional[HistogramSnapshot]:
        key = _label_key(labels)
        with self._lock:
            found = self._histograms.get(name, {}).get(key)
            if found is None:
                return None
            return HistogramSnapshot(
                buckets=found.buckets,
                counts=list(found.counts),
                total_count=found.total_count,
                total_sum=found.total_sum,
            )

    def counter_series(self, name: str) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._counters.get(name, {}))

    def series_names(self) -> List[str]:
        """Sorted names of every metric with at least one recorded series."""
        with self._lock:
            names = set()
            for table in (self._counters, self._gauges, self._histograms):
                for name, series in table.items():
                    if series:
                        names.add(name)
            return sorted(names)

    # -- snapshot / merge --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-compatible, deterministic dump of every series."""
        with self._lock:
            return {
                "counters": {
                    name: [[list(map(list, key)), value] for key, value in sorted(series.items())]
                    for name, series in sorted(self._counters.items())
                    if series
                },
                "gauges": {
                    name: [[list(map(list, key)), value] for key, value in sorted(series.items())]
                    for name, series in sorted(self._gauges.items())
                    if series
                },
                "histograms": {
                    name: [
                        [
                            list(map(list, key)),
                            {
                                "buckets": list(h.buckets),
                                "counts": list(h.counts),
                                "count": h.total_count,
                                "sum": h.total_sum,
                            },
                        ]
                        for key, h in sorted(series.items())
                    ]
                    for name, series in sorted(self._histograms.items())
                    if series
                },
            }

    def merge_snapshot(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` payload into this registry."""
        for name, series in payload.get("counters", {}).items():
            for key, value in series:
                self.inc(name, value, **dict((k, v) for k, v in key))
        for name, series in payload.get("gauges", {}).items():
            for key, value in series:
                self.set_gauge(name, value, **dict((k, v) for k, v in key))
        for name, series in payload.get("histograms", {}).items():
            for key, data in series:
                buckets = tuple(float(b) for b in data["buckets"])
                self.declare_histogram(name, buckets)
                incoming = HistogramSnapshot(
                    buckets=buckets,
                    counts=[int(c) for c in data["counts"]],
                    total_count=int(data["count"]),
                    total_sum=float(data["sum"]),
                )
                label_key = tuple((k, v) for k, v in map(tuple, key))
                with self._lock:
                    table = self._histograms.setdefault(name, {})
                    existing = table.get(label_key)
                    if existing is None:
                        table[label_key] = incoming
                    else:
                        existing.merge(incoming)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- prometheus exposition ---------------------------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition format (one ``# TYPE`` block per metric)."""
        lines: List[str] = []
        with self._lock:
            counters = {n: dict(s) for n, s in self._counters.items() if s}
            gauges = {n: dict(s) for n, s in self._gauges.items() if s}
            histograms = {n: dict(s) for n, s in self._histograms.items() if s}
            helps = dict(self._help)
        for name in sorted(counters):
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(counters[name].items()):
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name in sorted(gauges):
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(gauges[name].items()):
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name in sorted(histograms):
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} histogram")
            for key, histogram in sorted(histograms[name].items()):
                cumulative = histogram.cumulative()
                for bound, count in zip(histogram.buckets, cumulative):
                    extra = ("le", _format_value(bound))
                    lines.append(f"{name}_bucket{_render_labels(key, extra)} {count}")
                lines.append(
                    f'{name}_bucket{_render_labels(key, ("le", "+Inf"))} '
                    f"{histogram.total_count}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(key)} {_format_value(histogram.total_sum)}"
                )
                lines.append(f"{name}_count{_render_labels(key)} {histogram.total_count}")
        return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse a text exposition back into ``{metric: {labelled-series: value}}``.

    A deliberately small parser — enough for the CI smoke job and tests to
    assert that ``/metrics`` output is well-formed and count distinct series.
    Raises :class:`~repro.exceptions.ConfigurationError` on malformed lines.
    """
    out: Dict[str, Dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, raw_value = line.rsplit(" ", 1)
            value = float(raw_value)
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed exposition line {lineno}: {line!r}"
            ) from exc
        name = series.split("{", 1)[0]
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise ConfigurationError(f"malformed metric name on line {lineno}: {line!r}")
        if "{" in series and not series.endswith("}"):
            raise ConfigurationError(f"unbalanced labels on line {lineno}: {line!r}")
        out.setdefault(name, {})[series] = value
    return out
