"""MetricsRegistry: counters, gauges, histograms, snapshot/merge, exposition."""

import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)


def test_counters_accumulate_per_label_set():
    registry = MetricsRegistry()
    registry.inc("msgs_total")
    registry.inc("msgs_total", 4)
    registry.inc("msgs_total", 2, type="push")
    registry.inc("msgs_total", type="push")
    assert registry.value("msgs_total") == 5
    assert registry.value("msgs_total", type="push") == 3
    assert registry.value("never_touched_total") == 0


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    registry.inc("m", a="1", b="2")
    registry.inc("m", b="2", a="1")
    assert registry.value("m", b="2", a="1") == 2


def test_gauges_overwrite():
    registry = MetricsRegistry()
    registry.set_gauge("uptime_seconds", 1.5)
    registry.set_gauge("uptime_seconds", 9.0)
    assert registry.gauge_value("uptime_seconds") == 9.0
    assert registry.gauge_value("absent") is None


def test_histogram_buckets_and_overflow():
    registry = MetricsRegistry()
    registry.declare_histogram("h", [1.0, 10.0])
    for value in (0.5, 0.7, 5.0, 100.0):
        registry.observe("h", value)
    histogram = registry.histogram("h")
    assert histogram.total_count == 4
    assert histogram.total_sum == pytest.approx(106.2)
    assert histogram.counts == [2, 1, 1]  # <=1, <=10, +Inf overflow
    assert histogram.cumulative() == [2, 3]


def test_histogram_value_on_a_bound_counts_in_that_bucket():
    """``le`` semantics at every boundary, and just past the last one."""
    registry = MetricsRegistry()
    registry.declare_histogram("h", [1.0, 10.0, 10.0, 25.0])
    for value in (1.0, 10.0, 25.0, 25.000001, 0.0, -3.0):
        registry.observe("h", value)
    assert registry.histogram("h").counts == [3, 1, 0, 1, 1]


def test_observe_many_equals_observe_loop():
    one_by_one, batched = MetricsRegistry(), MetricsRegistry()
    values = [0.2, 3.0, 7.5, 0.2, 40.0]
    for registry in (one_by_one, batched):
        registry.declare_histogram("h", DEFAULT_COUNT_BUCKETS)
    for value in values:
        one_by_one.observe("h", value)
    batched.observe_many("h", values)
    assert one_by_one.histogram("h") == batched.histogram("h")


def test_undeclared_histogram_gets_default_time_buckets():
    registry = MetricsRegistry()
    registry.observe("latency_seconds", 0.2)
    assert registry.histogram("latency_seconds").buckets == tuple(
        DEFAULT_TIME_BUCKETS
    )


def test_snapshot_merge_is_additive():
    a, b = MetricsRegistry(), MetricsRegistry()
    for registry, count in ((a, 2), (b, 5)):
        registry.inc("msgs_total", count, type="query")
        registry.declare_histogram("h", [1.0, 2.0])
        registry.observe("h", 0.5)
    merged = MetricsRegistry()
    merged.merge_snapshot(a.snapshot())
    merged.merge_snapshot(b.snapshot())
    assert merged.value("msgs_total", type="query") == 7
    assert merged.histogram("h").total_count == 2


def test_merge_rejects_mismatched_buckets():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.declare_histogram("h", [1.0])
    b.declare_histogram("h", [2.0])
    a.observe("h", 0.5)
    b.observe("h", 0.5)
    with pytest.raises(ConfigurationError):
        a.merge_snapshot(b.snapshot())


def test_render_parse_roundtrip():
    registry = MetricsRegistry()
    registry.inc("reqs_total", 3, endpoint="/query")
    registry.inc("reqs_total", 1, endpoint="/stats")
    registry.set_gauge("uptime_seconds", 12.5)
    registry.declare_histogram("latency_seconds", [0.1, 1.0])
    registry.observe("latency_seconds", 0.05)
    registry.observe("latency_seconds", 0.5)

    parsed = parse_prometheus(registry.render_prometheus())
    assert parsed["reqs_total"]['reqs_total{endpoint="/query"}'] == 3
    assert parsed["uptime_seconds"]["uptime_seconds"] == 12.5
    assert parsed["latency_seconds_bucket"]['latency_seconds_bucket{le="+Inf"}'] == 2
    assert parsed["latency_seconds_count"]["latency_seconds_count"] == 2


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigurationError):
        parse_prometheus("not a metric line at all and no value")
    with pytest.raises(ConfigurationError):
        parse_prometheus('bad{unclosed="x" 3')


def test_registry_is_thread_safe():
    registry = MetricsRegistry()

    def hammer():
        for _ in range(1000):
            registry.inc("c")
            registry.observe("h", 1.0)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.value("c") == 8000
    assert registry.histogram("h").total_count == 8000


def test_reset_clears_series():
    registry = MetricsRegistry()
    registry.inc("c")
    registry.observe("h", 1.0)
    registry.reset()
    assert registry.series_names() == []
