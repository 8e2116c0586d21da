"""Exact response caching for the serve layer.

Served answers are **deterministic by construction**: a request reads the
read-only session and writes nothing to it, so two identical
requests against the same checkpoint produce byte-identical response bodies
no matter when they run or which worker process answers them.
That turns response caching from a staleness trade-off into a provably
correct optimization — a cache hit *is* the answer the worker would have
computed.

:class:`ResponseCache` is a small thread-safe LRU keyed by
``(canonical request, checkpoint digest)``:

* the canonical request is the method, path and the request body re-encoded
  with sorted keys and compact separators, so two JSON spellings of the same
  request share one entry;
* the checkpoint digest (:func:`checkpoint_digest`) chains the SHA-256 of the
  checkpoint document through its delta-base chain, so a cache outlives a
  daemon restart only if it is truly answering for the same bytes.

Hits and misses are counted (and exported as
``repro_serve_cache_{hits,misses}_total`` by the supervisor); only successful
(HTTP 200) responses to query-shaped endpoints are admitted.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import StoreError

#: Endpoints whose successful responses are pure functions of the request.
CACHEABLE_PATHS = frozenset({"/query", "/query_batch", "/staleness"})


def canonical_request_key(method: str, path: str, body: bytes) -> str:
    """One canonical string per logical request.

    The body is parsed and re-encoded with sorted keys/compact separators so
    key order and whitespace do not split cache entries; a body that is not a
    JSON object keeps its raw bytes (the worker will reject it anyway, and a
    reject is not cached).
    """
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (UnicodeDecodeError, ValueError):
        canonical = repr(body)
    return f"{method} {path} {canonical}"


def checkpoint_digest(backend: Any, name: str) -> str:
    """SHA-256 identity of a stored checkpoint, delta chain included.

    Two stores holding the same logical checkpoint digest identically; any
    change to the checkpoint document *or to any base it deltas against*
    changes the digest, so responses cached under it can never leak across
    different session states.
    """
    from repro.store.checkpoint import CHECKPOINT_KIND

    digest = hashlib.sha256()
    seen = set()
    current: Optional[str] = name
    while current is not None:
        if current in seen:
            raise StoreError(
                f"checkpoint {name!r} has a cyclic delta chain at {current!r}"
            )
        seen.add(current)
        document = backend.get(CHECKPOINT_KIND, current)
        encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
        digest.update(current.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(encoded.encode("utf-8"))
        digest.update(b"\x00")
        current = document.get("base")
    return digest.hexdigest()


class ResponseCache:
    """Thread-safe LRU of complete HTTP responses.

    Values are ``(status, content_type, body_bytes)`` triples — everything
    needed to replay the response verbatim, which keeps cached and uncached
    answers byte-identical by construction.
    """

    def __init__(self, capacity: int, checkpoint: str = "") -> None:
        if capacity < 0:
            raise StoreError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.checkpoint = checkpoint
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[int, str, bytes]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _key(self, method: str, path: str, body: bytes) -> str:
        return f"{self.checkpoint}|{canonical_request_key(method, path, body)}"

    def lookup(
        self, method: str, path: str, body: bytes
    ) -> Optional[Tuple[int, str, bytes]]:
        """The cached response for this request, or ``None`` (counted)."""
        if self.capacity == 0 or path not in CACHEABLE_PATHS:
            return None
        key = self._key(method, path, body)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(
        self,
        method: str,
        path: str,
        body: bytes,
        status: int,
        content_type: str,
        response: bytes,
    ) -> None:
        """Admit a successful response; evicts least-recently-used beyond capacity."""
        if (
            self.capacity == 0
            or path not in CACHEABLE_PATHS
            or status != 200
        ):
            return
        key = self._key(method, path, body)
        with self._lock:
            self._entries[key] = (status, content_type, response)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_payload(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
