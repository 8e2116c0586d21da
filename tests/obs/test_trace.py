"""Tracer, sinks, span payloads, implicit parenting, connectivity checks."""

import json
import threading

import pytest

from repro.obs.trace import (
    JsonlSink,
    NullSink,
    RingBufferSink,
    Span,
    Tracer,
    connected_trace,
    expand,
    span_tree,
)


def test_span_ids_are_counters_not_randomness():
    tracer = Tracer(sink=NullSink(), origin="test")
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    sink = RingBufferSink()
    tracer2 = Tracer(sink=sink, origin="test")
    with tracer2.span("a"):
        pass
    with tracer2.span("b"):
        pass
    first, second = sink.spans()
    assert first.trace_id == "test-t000001"
    assert first.span_id == "test-s000001"
    assert second.trace_id == "test-t000002"
    assert second.span_id == "test-s000002"


def test_nested_spans_parent_implicitly():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink)
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert tracer.current_span() is inner
        assert tracer.current_span() is outer
    assert tracer.current_span() is None

    emitted = {span.name: span for span in sink.spans()}
    assert emitted["inner"].parent_id == emitted["outer"].span_id
    assert emitted["inner"].trace_id == emitted["outer"].trace_id
    assert emitted["outer"].parent_id is None


def test_sibling_roots_get_distinct_traces():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink)
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    first, second = sink.spans()
    assert first.trace_id != second.trace_id


def test_adopted_remote_context_wins_over_stack():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink, origin="server")
    with tracer.span(
        "serve /query", trace_id="client-t000001", parent_id="client-s000001"
    ):
        with tracer.span("query"):
            pass
    query, request = {s.name: s for s in sink.spans()}["query"], None
    spans = {s.name: s for s in sink.spans()}
    request = spans["serve /query"]
    assert request.trace_id == "client-t000001"
    assert request.parent_id == "client-s000001"
    assert spans["query"].trace_id == "client-t000001"
    assert spans["query"].parent_id == request.span_id
    assert query.span_id.startswith("server-")


def test_sim_clock_is_recorded_when_bound():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink, sim_clock=lambda: 42.5)
    with tracer.span("op"):
        pass
    span = sink.spans()[0]
    assert span.start_sim == 42.5 and span.end_sim == 42.5
    assert span.end_wall >= span.start_wall > 0


def test_deterministic_payload_strips_wall_clock():
    tracer = Tracer(sink=NullSink(), sim_clock=lambda: 1.0)
    with tracer.span("op", {"k": "v"}) as span:
        pass
    payload = span.deterministic_payload()
    assert "start_wall" not in payload and "end_wall" not in payload
    full = span.to_payload()
    assert full["start_wall"] > 0
    assert Span.from_payload(full) == span


def test_ring_buffer_caps_and_counts():
    sink = RingBufferSink(capacity=3)
    tracer = Tracer(sink=sink)
    for index in range(5):
        with tracer.span(f"op{index}"):
            pass
    assert sink.emitted == 5
    assert [s.name for s in sink.spans()] == ["op2", "op3", "op4"]
    assert [s.name for s in sink.tail(2)] == ["op3", "op4"]
    sink.clear()
    assert sink.spans() == [] and sink.emitted == 5


def test_jsonl_sink_roundtrips(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    tracer = Tracer(sink=sink, sim_clock=lambda: 7.0)
    with tracer.span("outer"):
        with tracer.span("inner", {"n": 3}):
            pass
    sink.close()

    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert len(lines) == 2
    spans = JsonlSink.read(path)
    assert {s.name for s in spans} == {"outer", "inner"}
    inner = next(s for s in spans if s.name == "inner")
    assert inner.attrs == {"n": 3}
    assert connected_trace(spans, spans[0].trace_id)


def test_span_tree_and_connectivity():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink)
    with tracer.span("root"):
        with tracer.span("child"):
            pass
        with tracer.span("sibling"):
            pass
    spans = sink.spans()
    root = next(s for s in spans if s.name == "root")
    tree = span_tree(spans)
    assert {s.name for s in tree[root.span_id]} == {"child", "sibling"}
    assert connected_trace(spans, root.trace_id)
    assert not connected_trace(spans, "no-such-trace")


def test_tracing_is_thread_safe_and_stacks_are_per_thread():
    sink = RingBufferSink(capacity=10000)
    tracer = Tracer(sink=sink)

    def worker(tag):
        for index in range(50):
            with tracer.span(f"{tag}-outer{index}"):
                with tracer.span(f"{tag}-inner{index}"):
                    pass

    threads = [
        threading.Thread(target=worker, args=(f"w{n}",)) for n in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    spans = sink.spans()
    assert len(spans) == 4 * 50 * 2
    assert len({s.span_id for s in spans}) == len(spans), "span ids collided"
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            # A child must parent under its own thread's outer span.
            assert parent.name.split("-")[0] == span.name.split("-")[0]


# -- rows: work recorded on an open span, listed by readers as child spans --------------


def _span_with_rows(tracer, name, steps):
    """One span whose ``steps`` are recorded as (inner, outer) row pairs."""
    with tracer.span(name) as span:
        rows = tracer.open_rows()
        assert rows is span.rows
        for step in range(steps):
            rows.append(("inner", 1.0, 2.0, 1, ("step",), step))
            rows.append(("outer", 1.0, 3.0, 0, ("step", "ok"), step, True))
    return span


def test_open_rows_is_none_outside_a_span():
    assert Tracer(sink=NullSink()).open_rows() is None


def test_rows_expand_to_child_spans_in_finish_order():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink, sim_clock=lambda: 9.0, origin="test")
    span = _span_with_rows(tracer, "root", steps=2)

    listed = sink.spans()
    assert listed == expand(span)
    assert [s.name for s in listed] == ["inner", "outer", "inner", "outer", "root"]
    assert listed[-1] is span
    # Ids hang off the one counter-minted id; nothing else was minted.
    assert [s.span_id for s in listed] == [
        "test-s000001.1", "test-s000001.2", "test-s000001.3", "test-s000001.4",
        "test-s000001",
    ]
    with tracer.span("next") as after:
        pass
    assert after.span_id == "test-s000002"
    inner, outer = listed[0], listed[1]
    assert inner.parent_id == outer.span_id and outer.parent_id == span.span_id
    assert inner.attrs == {"step": 0} and outer.attrs == {"step": 0, "ok": True}
    assert (inner.start_wall, inner.end_wall) == (1.0, 2.0)
    # Rows are stamped on the wall clock only; simulator time is the span's.
    assert {(s.start_sim, s.end_sim) for s in listed} == {(9.0, 9.0)}
    assert {s.trace_id for s in listed} == {span.trace_id}
    assert connected_trace(listed, span.trace_id)
    # Rows are not payload: what a reader stores is each listed span's own.
    assert "rows" not in span.to_payload()
    assert Span.from_payload(span.to_payload()) == span


def test_ring_tail_validates_and_limits():
    sink = RingBufferSink()
    tracer = Tracer(sink=sink)
    _span_with_rows(tracer, "root", steps=2)  # listed as 5 spans
    assert sink.tail(0) == []
    assert [s.name for s in sink.tail(2)] == ["outer", "root"]
    assert len(sink.tail(99)) == 5
    with pytest.raises(ValueError):
        sink.tail(-1)


def test_ring_counts_and_caps_listed_spans_not_entries():
    """``emitted`` and ``capacity`` mean what they meant when every row was a
    span: the ring never lists more than ``capacity`` spans — always the
    newest of the stream — while entries far larger than it pass through."""
    sink = RingBufferSink(capacity=64)
    tracer = Tracer(sink=sink, origin="test")
    stream = []
    for index in range(6):
        stream.extend(expand(_span_with_rows(tracer, f"query{index}", steps=125)))
        with tracer.span(f"serve{index}") as request:
            pass
        stream.append(request)
        assert sink.emitted == len(stream)
        listed = sink.spans()
        assert len(listed) == 64
        assert listed == stream[-64:]
    # An entry bigger than the ring is listed in part, newest rows first to
    # stay; the entries behind it are gone, not kept beside it.
    assert len(sink._entries) == 2  # noqa: SLF001


def test_jsonl_sink_writes_rows_as_spans(tmp_path):
    path = str(tmp_path / "rows.jsonl")
    sink = JsonlSink(path)
    span = _span_with_rows(Tracer(sink=sink, sim_clock=lambda: 3.0), "root", steps=3)
    sink.close()
    assert JsonlSink.read(path) == expand(span)
