"""Lazy, content-addressed hierarchy loading for restored sessions.

No restore materializes a summary hierarchy up front: domains and summary
services are given loader callables bound to a snapshot hash, and the
hierarchy is decoded only on first touch, so a session pays for the
summaries its workload touches and for no others.  The two ways to open a
checkpoint differ in what a loader shares, not in when it loads:

* :func:`repro.store.checkpoint.restore_session` binds each consumer its own
  :class:`StoredSnapshot`: the snapshot's text, fetched at restore time, and
  decoded into a fresh hierarchy on first touch.  A mutable session edits
  its hierarchies in place, so two peers whose summaries share a digest must
  never share one object.
* :func:`repro.store.checkpoint.open_readonly_session` binds every consumer
  to one :class:`HierarchySource`, which fetches on first touch.  Because
  snapshots are content-addressed, two peers whose hierarchies hash to the
  same digest share one materialized object, and so do all the threads
  answering from one session.  That sharing is safe because nothing a
  read-only session runs mutates a hierarchy: a query only fills the
  hierarchy's memos (aggregate caches, the query index, cached selections),
  each a function of the immutable tree and published whole, so concurrent
  first touches at worst compute the same value twice.

The :class:`HierarchySource` keeps an LRU keyed by snapshot hash so a
long-running server's working set stays bounded; consumers
(``Domain``/``LocalSummaryService``) hold strong references to whatever they
have already materialized, so eviction only bounds the *source's* dedup
window, never invalidates a hierarchy in use.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.store.snapshots import decode_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.saintetiq.hierarchy import SummaryHierarchy
    from repro.fuzzy.background import BackgroundKnowledge
    from repro.store.snapshots import SnapshotStore

DEFAULT_CACHE_SIZE = 256


class StoredSnapshot:
    """A mutable restore's loader: one snapshot's stored text, decoded on call.

    Each call decodes a fresh hierarchy, so consumers never share one.  The
    text is held from restore time on, so the backend it came from may be
    closed before the first touch.  Until then a checkpoint files the
    summary straight from this text: the loader answers
    :meth:`~repro.store.snapshots.SnapshotStore.missing_snapshot` like the
    hierarchy it stands for (``known_content_address`` and
    ``content_snapshot``), and is never decoded to be encoded again.
    """

    __slots__ = ("digest", "encoded", "_background")

    def __init__(
        self, digest: str, encoded: str, background: "BackgroundKnowledge"
    ) -> None:
        self.digest = digest
        self.encoded = encoded
        self._background = background

    @property
    def known_content_address(self) -> str:
        return self.digest

    def content_snapshot(self) -> Tuple[str, str]:
        return self.digest, self.encoded

    def __call__(self) -> "SummaryHierarchy":
        return decode_snapshot(self.digest, self.encoded, self._background)


class HierarchySource:
    """Pull summary hierarchies from a snapshot store on first touch.

    Thread-safe: a read-only server has many worker threads racing to
    materialize the same digest; the lock guarantees one fetch per digest
    (while cached) and consistent counters.
    """

    def __init__(
        self,
        snapshots: "SnapshotStore",
        background: Optional["BackgroundKnowledge"],
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self._snapshots = snapshots
        self._background = background
        self._cache_size = int(cache_size)
        self._cache: "OrderedDict[str, SummaryHierarchy]" = OrderedDict()
        self._lock = threading.Lock()
        self._fetches = 0
        self._hits = 0
        self._evictions = 0
        #: Metrics+trace hook; None keeps ``get`` on the uninstrumented path.
        self.observability = None

    # -- observability -----------------------------------------------------

    @property
    def fetches(self) -> int:
        """Number of hierarchies rehydrated from the snapshot store."""
        return self._fetches

    @property
    def hits(self) -> int:
        """Number of ``get`` calls served from the LRU without a fetch."""
        return self._hits

    @property
    def evictions(self) -> int:
        """Number of hierarchies the LRU has pushed out to stay bounded."""
        return self._evictions

    @property
    def cached(self) -> int:
        """Number of hierarchies currently held in the LRU."""
        return len(self._cache)

    @property
    def cache_size(self) -> int:
        return self._cache_size

    def stats_payload(self) -> dict:
        return {
            "fetches": self.fetches,
            "hits": self.hits,
            "evictions": self.evictions,
            "cached": self.cached,
            "cache_size": self.cache_size,
        }

    # -- loading -----------------------------------------------------------

    def get(self, digest: str) -> "SummaryHierarchy":
        """Return the hierarchy for ``digest``, fetching it on first touch."""
        obs = self.observability
        with self._lock:
            try:
                hierarchy = self._cache[digest]
            except KeyError:
                pass
            else:
                self._cache.move_to_end(digest)
                self._hits += 1
                if obs is not None:
                    obs.inc("repro_lazy_hits_total")
                return hierarchy
            hierarchy = self._snapshots.get_hierarchy(digest, self._background)
            self._fetches += 1
            if obs is not None:
                obs.inc("repro_lazy_fetches_total")
            self._cache[digest] = hierarchy
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self._evictions += 1
                if obs is not None:
                    obs.inc("repro_lazy_evictions_total")
            return hierarchy

    def install_observability(self, obs) -> None:
        """Wire the hook through this source and its snapshot store."""
        self.observability = obs
        self._snapshots.observability = obs

    def loader(self, digest: str) -> Callable[[], "SummaryHierarchy"]:
        """A zero-argument callable materializing ``digest`` on invocation."""
        return lambda: self.get(digest)
