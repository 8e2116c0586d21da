"""A minimal span recorder for the benchmark's own call sites.

Spans are recorded around the calls the benchmark makes *into* a layer — never
inside the program — kept in memory, and written out once when the run ends.
Deliberately not ``repro.obs``: the instrument must not change when the thing
it measures is refactored.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed call: who caused it (``parent``) and which request it served."""

    __slots__ = ("id", "name", "parent", "request", "start", "end")

    def __init__(self, name: str, request: Optional[str]) -> None:
        self.id: Optional[int] = None
        self.name = name
        self.parent: Optional[int] = None
        self.request = request
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Times every span; keeps them only while ``enabled`` (the traced run)."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(
        self,
        name: str,
        request: Optional[str] = None,
        parent: Optional[Span] = None,
    ) -> Iterator[Span]:
        """Time a call; ``parent`` links a span opened on another thread."""
        span = Span(name, request)
        stack: List[Span] = []
        if self.enabled:
            stack = self._local.__dict__.setdefault("stack", [])
            cause = stack[-1] if stack else parent
            if cause is not None:
                span.parent = cause.id
                if span.request is None:
                    span.request = cause.request
            with self._lock:
                span.id = len(self.spans)
                self.spans.append(span)
            stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.enabled:
                stack.pop()

    def self_times(self) -> Dict[int, float]:
        """Per span id: its duration minus the part its children cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            # Children of concurrent clients overlap: count their union once.
            for child in sorted(children.get(span.id, []), key=lambda c: c.start):
                start, end = max(child.start, reach), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result[span.id] = span.seconds - covered
        return result

    def write_jsonl(self, path: Path) -> None:
        self_times = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "request": span.request,
                    "start": span.start,
                    "end": span.end,
                    "self_s": self_times[span.id],
                }
                handle.write(json.dumps(record) + "\n")


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of a non-empty list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]
