"""Structured, span-style tracing for protocol and serve hot paths.

A :class:`Span` is one timed operation: it carries a ``trace_id`` shared by
every span of one logical request, a ``span_id``, its ``parent_id`` (``None``
for a root), a name, free-form attributes, and start/end times on *two*
clocks — the deterministic simulator clock (``start_sim``/``end_sim``) and the
wall clock (``start_wall``/``end_wall``).  Only the wall-clock fields vary
between identically-seeded runs; :meth:`Span.deterministic_payload` strips
them, which is what the trace-determinism property suite compares.

Span and trace ids are **derived from counters, never from randomness or the
clock**: a tracer mints ``<origin>-t<N>`` / ``<origin>-s<N>`` ids in arrival
order, so a single-threaded scenario run produces the same span tree every
time and tracing never perturbs the protocol's seeded RNG streams.

Parenting is implicit per thread: :meth:`Tracer.span` pushes onto a
thread-local stack, so a query span opened by the serve worker automatically
becomes the parent of whatever the protocol records underneath it.
Cross-process traces (``ServeClient`` → daemon) link explicitly: the client
sends its ``trace_id``/``span_id`` in HTTP headers and the server adopts them
as the root's ``trace_id``/``parent_id``.

There are two ways to record work:

* **Open a span** (:meth:`Tracer.span`): an id is minted under the tracer's
  lock, the span is pushed on the thread's stack so later work parents under
  it, and on exit it is handed to the sink.  Several microseconds — right for
  a request, a query, a reconciliation.
* **Append a row to the span that is open** (:meth:`Tracer.open_rows`): one
  tuple (:data:`Row` — name, wall start/end, attrs) appended to ``Span.rows``
  by the thread that owns the span.  No id, no lock, no stack push, no sink
  call: about a microsecond — right for a loop *inside* a span (a query's
  per-domain routing runs 125 times per request at 2000 peers).  A row
  cannot parent a span: nothing opened while it is being timed hangs under
  it.

Readers never see rows: :func:`expand` renders a span's rows as ordinary
child spans — ids ``<span_id>.<k>`` derived from the span's own counter-minted
id, in the order real spans would have finished — and both sinks that keep
spans list them that way.

Finished spans are emitted to a :class:`TraceSink`:

* :class:`NullSink` — drop everything (tracing structurally on, output off),
* :class:`RingBufferSink` — keep the last N spans in memory, rows expanded on
  read (the daemon's ``/trace`` tail endpoint reads this),
* :class:`JsonlSink` — append one JSON object per span to a file, rows
  expanded on write.

A custom sink is handed each finished span once, rows still on it; it lists
them by calling :func:`expand`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from contextlib import contextmanager

#: Attribute keys a span payload is ordered by; attrs stay a plain dict.
_WALL_FIELDS = ("start_wall", "end_wall")

#: One finished piece of work recorded on an open span in place of a child
#: span, as one flat tuple: ``(name, start_wall, end_wall, under, attr_names,
#: *attr_values)``.  Attr names travel apart from the values so a loop shares
#: one constant ``attr_names`` across its rows and builds no dict per step.
#: Rows are kept in finish order, the order spans are emitted in; ``under``
#: says where the row hangs — 0 directly under the span, n under the row that
#: finishes n rows after it (a step timed inside a larger one is appended
#: first, ``under=1``).
Row = Tuple[Any, ...]


@dataclass
class Span:
    """One timed operation in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    start_sim: Optional[float] = None
    end_sim: Optional[float] = None
    start_wall: float = 0.0
    end_wall: float = 0.0
    #: Work recorded inside this span without opening child spans (see
    #: :meth:`Tracer.open_rows`); not part of the payload — :func:`expand`
    #: renders each row as a span of its own.
    rows: List[Row] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
        }

    def deterministic_payload(self) -> Dict[str, Any]:
        """The payload minus wall-clock fields — identical across same-seed runs."""
        payload = self.to_payload()
        for fieldname in _WALL_FIELDS:
            payload.pop(fieldname)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            name=payload["name"],
            attrs=dict(payload.get("attrs", {})),
            start_sim=payload.get("start_sim"),
            end_sim=payload.get("end_sim"),
            start_wall=payload.get("start_wall", 0.0),
            end_wall=payload.get("end_wall", 0.0),
        )


def expand(span: Span) -> List[Span]:
    """``span`` as readers list it: its rows rendered as spans, then itself.

    A row becomes a span of ``span``'s trace with id ``<span_id>.<k>`` (``k``
    its 1-based position among the rows — no counter, clock or randomness
    involved, so same-seed runs render the same ids) and with ``span``'s
    simulator-clock interval: rows are stamped on the wall clock only, and the
    work they record happens inside one simulator event, as ``span`` does.
    """
    rows = span.rows
    if not rows:
        return [span]
    prefix = span.span_id
    spans = [
        Span(
            trace_id=span.trace_id,
            span_id=f"{prefix}.{k}",
            parent_id=f"{prefix}.{k + under}" if under else prefix,
            name=name,
            attrs=dict(zip(attr_names, attr_values)),
            start_sim=span.start_sim,
            end_sim=span.end_sim,
            start_wall=start_wall,
            end_wall=end_wall,
        )
        for k, (name, start_wall, end_wall, under, attr_names, *attr_values)
        in enumerate(rows, 1)
    ]
    spans.append(span)
    return spans


class TraceSink:
    """Destination for finished spans.  Subclasses override :meth:`emit`."""

    def emit(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default is a no-op
        pass


class NullSink(TraceSink):
    """Discard every span."""

    def emit(self, span: Span) -> None:
        pass


class RingBufferSink(TraceSink):
    """Keep the most recent ``capacity`` spans in memory (thread-safe).

    Spans are counted as readers see them: an entry — one emitted span — counts
    for itself plus one per row, because :meth:`spans` lists every row as a
    span.  ``emitted`` is the number of spans ever listed that way (so
    ``emitted >= len(spans())``), and ``capacity`` bounds what is listed: an
    entry is dropped once the entries after it fill the ring by themselves, so
    only the oldest one kept can be listed in part (its newest spans, exactly
    the last ``capacity`` of the stream) and memory stays within ``capacity``
    spans plus that one entry's rows.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[Span] = deque()  # oldest first
        self._listed = 0  # spans the entries are listed as
        self._lock = threading.Lock()
        self._emitted = 0

    def emit(self, span: Span) -> None:
        listed = 1 + len(span.rows)
        with self._lock:
            entries = self._entries
            entries.append(span)
            self._emitted += listed
            self._listed += listed
            while self._listed - (1 + len(entries[0].rows)) >= self.capacity:
                self._listed -= 1 + len(entries.popleft().rows)

    @property
    def emitted(self) -> int:
        """Total spans ever emitted, rows included (also ones since dropped)."""
        return self._emitted

    def spans(self) -> List[Span]:
        return self.tail()

    def tail(self, limit: Optional[int] = None) -> List[Span]:
        """The newest ``limit`` listed spans, oldest first (all with ``None``)."""
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        limit = self.capacity if limit is None else min(limit, self.capacity)
        with self._lock:
            entries = list(self._entries)
        # Expand from the newest entry back, and only as far as ``limit``
        # reaches: a short tail of a full ring renders a handful of spans.
        newest_first: List[List[Span]] = []
        found = 0
        for span in reversed(entries):
            if found >= limit:
                break
            chunk = expand(span)
            newest_first.append(chunk)
            found += len(chunk)
        spans = [span for chunk in reversed(newest_first) for span in chunk]
        return spans[found - limit :] if found > limit else spans

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._listed = 0


class JsonlSink(TraceSink):
    """Append one JSON object per finished span to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, span: Span) -> None:
        lines = "".join(
            json.dumps(listed.to_payload(), sort_keys=True) + "\n"
            for listed in expand(span)
        )
        with self._lock:
            self._handle.write(lines)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    @staticmethod
    def read(path: str) -> List[Span]:
        """Load spans back from a JSONL trace file."""
        spans = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(Span.from_payload(json.loads(line)))
        return spans


class Tracer:
    """Mints spans with deterministic ids and a per-thread parent stack."""

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        sim_clock: Optional[Callable[[], float]] = None,
        origin: str = "main",
    ) -> None:
        self.sink = sink if sink is not None else RingBufferSink()
        self.sim_clock = sim_clock
        self.origin = origin
        self._lock = threading.Lock()
        self._next_trace = 0
        self._next_span = 0
        self._local = threading.local()

    # -- id minting --------------------------------------------------------------------

    def _mint_trace_id(self) -> str:
        with self._lock:
            self._next_trace += 1
            return f"{self.origin}-t{self._next_trace:06d}"

    def _mint_span_id(self) -> str:
        with self._lock:
            self._next_span += 1
            return f"{self.origin}-s{self._next_span:06d}"

    # -- stack -------------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open_rows(self) -> Optional[List[Row]]:
        """The row list of the span this thread has open (``None`` without one).

        The cheap way to record a loop inside a span: append one :data:`Row`
        per finished step instead of opening a child span per step.  Only the
        thread that opened the span may append, and only until the span
        finishes; readers get each row back as a child span (:func:`expand`).
        """
        stack = getattr(self._local, "stack", None)
        return stack[-1].rows if stack else None

    # -- span lifecycle ----------------------------------------------------------------

    def start(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> Span:
        """Open a span; it parents under the thread's current span by default.

        Pass ``trace_id``/``parent_id`` to adopt remote context (a client's
        ids arriving in HTTP headers) — they win over the implicit stack.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self._mint_trace_id()
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        span = Span(
            trace_id=trace_id,
            span_id=self._mint_span_id(),
            parent_id=parent_id,
            name=name,
            attrs=dict(attrs or {}),
            start_sim=None if self.sim_clock is None else self.sim_clock(),
            start_wall=time.time(),
        )
        stack.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close ``span``, pop it off the stack, and emit it to the sink."""
        if attrs:
            span.attrs.update(attrs)
        span.end_sim = None if self.sim_clock is None else self.sim_clock()
        span.end_wall = time.time()
        stack = self._stack()
        # Identity, not equality: dataclass __eq__ would compare attr dicts,
        # and a span must only ever pop itself (and anything left above it).
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index:]
                break
        self.sink.emit(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> Iterator[Span]:
        opened = self.start(name, attrs=attrs, trace_id=trace_id, parent_id=parent_id)
        try:
            yield opened
        finally:
            self.finish(opened)


def span_tree(spans: List[Span]) -> Dict[Optional[str], List[Span]]:
    """Index spans by ``parent_id`` — a cheap adjacency map for assertions."""
    tree: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        tree.setdefault(span.parent_id, []).append(span)
    return tree


def connected_trace(spans: List[Span], trace_id: str) -> bool:
    """True when every span of ``trace_id`` reaches a root via parent links."""
    members = [s for s in spans if s.trace_id == trace_id]
    if not members:
        return False
    by_id = {s.span_id: s for s in members}
    for span in members:
        seen = set()
        node: Optional[Span] = span
        while node is not None and node.parent_id is not None:
            if node.span_id in seen:
                return False
            seen.add(node.span_id)
            node = by_id.get(node.parent_id)
        # A dangling parent_id is allowed only for the adopted remote root:
        # its parent lives in another process's sink.
        if node is None:
            continue
    return True
