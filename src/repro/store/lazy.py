"""Lazy, content-addressed hierarchy loading for read-only sessions.

A restored session normally materializes every peer's summary hierarchy up
front, which makes opening a large checkpoint pay for peers a query workload
may never touch.  :class:`HierarchySource` defers that work: domains and
summary services are given loader callables bound to a snapshot hash, and the
hierarchy is rehydrated from the :class:`~repro.store.snapshots.SnapshotStore`
only on first touch.

Because snapshots are content-addressed, two peers whose hierarchies hash to
the same digest share one materialized object, and so do all the threads
answering from one session.  That sharing is safe because nothing a read-only
session runs mutates a hierarchy: a query only fills the hierarchy's memos
(aggregate caches, the query index, cached selections), each a function of
the immutable tree and published whole, so concurrent first touches at worst
compute the same value twice.  Lazy loading is therefore reserved for the
read-only open mode (see :func:`repro.store.checkpoint.open_readonly_session`).

The source keeps an LRU keyed by snapshot hash so a long-running server's
working set stays bounded; consumers (``Domain``/``LocalSummaryService``)
hold strong references to whatever they have already materialized, so
eviction only bounds the *source's* dedup window, never invalidates a
hierarchy in use.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.saintetiq.hierarchy import SummaryHierarchy
    from repro.saintetiq.knowledge import BackgroundKnowledge
    from repro.store.snapshots import SnapshotStore

DEFAULT_CACHE_SIZE = 256


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
