"""The one served query behind ``golden_trace_tree.json``.

What ``/trace`` lists for a request is a contract — ``serve /query`` →
``query`` → ``route-domain`` → ``hierarchy-selection``, in finish order, with
these attrs and simulator-clock fields — and it is pinned by a recording, not
by a retained second way of tracing: the tree below was recorded once on the
last commit that opened one real span per domain and per hierarchy selection.
``test_trace_rows.py`` holds what every later commit renders from the rows on
the ``query`` span to it.  Regenerate only for a deliberate change to what a
trace says::

    PYTHONPATH=src python tests/obs/golden_trace_tree.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any, Dict, List

from repro.obs import RingBufferSink, Span, Tracer
from repro.serve import ServeClient, start_server
from repro.store.checkpoint import open_readonly_session, save_session
from repro.workloads.registry import default_registry

FIXTURE = Path(__file__).with_name("golden_trace_tree.json")


def save_fixture_store(path: str) -> str:
    """``test_serve_obs.py``'s 32-peer planned network, checkpointed at 120 s
    so the recorded simulator times are not all zero."""
    scenario = default_registry().scenario(
        "table3-default", peer_count=32, duration_seconds=300.0
    )
    session = scenario.builder().build()
    session.run_until(120.0)
    save_session(session, path)
    return path


def tree_of(spans: List[Span]) -> List[Dict[str, Any]]:
    """``spans`` in listed order, ids replaced by positions in that order.

    Span ids are free to change shape; names, parent links, attrs, simulator
    times and the order spans are listed in are not.  A parent outside the
    list (the client's span, in another process's sink) reads ``"remote"``.
    """
    position = {span.span_id: index for index, span in enumerate(spans)}
    assert len(position) == len(spans), "span ids collided"
    return [
        {
            "name": span.name,
            "parent": (
                None
                if span.parent_id is None
                else position.get(span.parent_id, "remote")
            ),
            "attrs": span.attrs,
            "start_sim": span.start_sim,
            "end_sim": span.end_sim,
        }
        for span in spans
    ]


def served_query_tree(store_path: str) -> List[Dict[str, Any]]:
    """Serve the fixture, pose the seeded query, return its server-side tree."""
    session = open_readonly_session(store_path)
    server = start_server(session, close_session_on_stop=True)
    try:
        with ServeClient(server.url, tracer=Tracer(sink=RingBufferSink())) as client:
            # Enough results that the query walks every domain of the fixture.
            answer = client.query(required_results=session.overlay.size)
            assert answer.routing.domains_visited == len(session.domains) > 1
            payloads = client.trace()["spans"]
    finally:
        server.stop()
    spans = [Span.from_payload(payload) for payload in payloads]
    trace_id = spans[0].trace_id
    return tree_of([span for span in spans if span.trace_id == trace_id])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = served_query_tree(save_fixture_store(f"{scratch}/obs.sqlite"))
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(recorded)} spans)")
