"""Warm-start session cache: skip construction on repeated sweeps.

Building a session — generating the topology, electing summary peers, running
the construction protocol, scheduling churn — dominates the wall-clock of
repeated experiment sweeps.  A :class:`SessionCache` checkpoints each freshly
built session under a key derived from its full parameter set; the next run
with the same parameters restores the checkpoint instead of rebuilding.
Because restore is byte-identical (see :mod:`repro.store.checkpoint`), warm
and cold sweeps produce exactly the same figures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

from repro.fuzzy.background import BackgroundKnowledge
from repro.saintetiq.serialization import content_hash
from repro.store.backend import StoreBackend, open_store, owns_backend
from repro.store.checkpoint import CHECKPOINT_KIND, restore_session, save_session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.session import NetworkSession
    from repro.store.gc import GcReport


class SessionCache:
    """Content-keyed cache of built sessions over any store backend.

    A cache opened from a path owns its backend: ``close()`` (or leaving a
    ``with SessionCache(...) as cache:`` block) releases it.  A cache wrapped
    around an already-open backend leaves that backend's lifecycle to whoever
    opened it.
    """

    def __init__(self, target: Union[None, str, StoreBackend]) -> None:
        self._backend = open_store(target)
        self._owns_backend = owns_backend(target)
        self._hits = 0
        self._misses = 0

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    def close(self) -> None:
        """Release the backend if this cache opened it."""
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "SessionCache":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def gc(self, dry_run: bool = False) -> "GcReport":
        """Reclaim snapshots no cached checkpoint references any more."""
        from repro.store.gc import collect_garbage

        return collect_garbage(self._backend, dry_run=dry_run)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @staticmethod
    def key_for(parameters: Dict[str, Any]) -> str:
        """A deterministic cache key for a JSON-compatible parameter set."""
        return "warm-" + content_hash(parameters)[:32]

    def get_or_build(
        self,
        parameters: Dict[str, Any],
        factory: Callable[[], "NetworkSession"],
        background: Optional[BackgroundKnowledge] = None,
    ) -> Tuple["NetworkSession", bool]:
        """Restore the session cached under ``parameters``, or build and cache it.

        Returns ``(session, warm)`` where ``warm`` says whether construction
        was skipped.  The factory must be deterministic in ``parameters`` —
        the cache trusts the key, it does not fingerprint the session.
        """
        key = self.key_for(parameters)
        if self._backend.contains(CHECKPOINT_KIND, key):
            self._hits += 1
            return restore_session(self._backend, key, background=background), True
        self._misses += 1
        session = factory()
        save_session(session, self._backend, key)
        # Hand out a restored copy, not the freshly built session: both paths
        # then return an identical object graph (and the first run doubles as
        # a roundtrip check of its own checkpoint).
        return restore_session(self._backend, key, background=background), False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SessionCache({self._backend.location()}, "
            f"hits={self._hits}, misses={self._misses})"
        )
