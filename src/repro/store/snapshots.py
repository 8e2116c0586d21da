"""Content-addressed snapshots of summary hierarchies.

A snapshot is the canonical encoding of a :class:`SummaryHierarchy`, filed
under its SHA-256 content hash.  Addressing by content gives deduplication
for free: identical hierarchies — the same local summary held by a peer and
shipped to its summary peer, or the same global summary reached by two
simulation runs — occupy exactly one stored object, however many sessions or
checkpoints reference them.  This mirrors how Υ-DB treats managed synopses as
first-class stored objects rather than transient in-memory state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.exceptions import StoreError
from repro.fuzzy.background import BackgroundKnowledge
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.serialization import content_hash, hierarchy_from_dict
from repro.store.backend import StoreBackend, open_store, parse_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.lazy import StoredSnapshot

#: The namespace snapshots are filed under in any backend.
SNAPSHOT_KIND = "snapshot"
#: The namespace per-domain head records are filed under (see
#: :class:`DomainHeadArchive`).
DOMAIN_HEAD_KIND = "domain-head"


def decode_snapshot(
    digest: str, encoded: str, background: BackgroundKnowledge
) -> SummaryHierarchy:
    """A fresh hierarchy from the stored text of snapshot ``digest``.

    Text that is not JSON raises the backend's "corrupt stored object"
    :class:`StoreError`, naming the digest.
    """
    return hierarchy_from_dict(
        parse_document(SNAPSHOT_KIND, digest, encoded), background
    )


class SnapshotStore:
    """Content-addressed hierarchy storage over any :class:`StoreBackend`."""

    def __init__(self, backend: Union[None, str, StoreBackend] = None) -> None:
        self._backend = open_store(backend)
        #: Metrics+trace hook; None keeps every operation uninstrumented.
        self.observability = None

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    # -- writing ------------------------------------------------------------------

    def put_hierarchy(self, hierarchy: SummaryHierarchy) -> str:
        """Store a hierarchy; returns its content hash.

        Re-storing an identical hierarchy is a no-op (dedup by address), so
        callers can snapshot aggressively — per peer, per checkpoint, per
        reconciliation — and pay for each distinct hierarchy once: one that
        has not moved since it was last addressed costs one ``contains``.
        """
        digest, encoded = self.missing_snapshot(hierarchy)
        if encoded is not None:
            return self.put_encoded(digest, encoded)
        if self.observability is not None:
            self.observability.inc("repro_store_dedup_hits_total", kind=SNAPSHOT_KIND)
        return digest

    def missing_snapshot(
        self, hierarchy: Union[SummaryHierarchy, "StoredSnapshot"]
    ) -> Tuple[str, Optional[str]]:
        """``(content hash, canonical text)`` — no text when it is stored here.

        The hierarchy's remembered address says *which* snapshot it is, never
        that this store has it: ``contains`` is asked of this store every
        time, and anything short of a yes — no remembered address, or one
        filed elsewhere — encodes once, the text handed back for the caller
        to file.  A restored summary never touched answers from the text it
        was restored from.
        """
        digest = hierarchy.known_content_address
        if digest is not None and self.contains(digest):
            return digest, None
        return hierarchy.content_snapshot()

    def put_encoded(self, digest: str, encoded: str) -> str:
        """Store a hierarchy's canonical JSON text under its content hash."""
        if not self._backend.contains(SNAPSHOT_KIND, digest):
            self._backend.put_encoded(SNAPSHOT_KIND, digest, encoded)
            if self.observability is not None:
                self.observability.inc("repro_store_puts_total", kind=SNAPSHOT_KIND)
        elif self.observability is not None:
            self.observability.inc("repro_store_dedup_hits_total", kind=SNAPSHOT_KIND)
        return digest

    # -- reading ------------------------------------------------------------------

    def get_hierarchy(
        self, digest: str, background: BackgroundKnowledge
    ) -> SummaryHierarchy:
        """Rehydrate the hierarchy stored under ``digest``.

        The caller supplies the (common) background knowledge, exactly as for
        the wire format; the restored hierarchy is byte-identical to the
        stored one (its re-encoding hashes back to ``digest``).
        """
        hierarchy = decode_snapshot(digest, self.get_encoded(digest), background)
        if self.observability is not None:
            self.observability.inc("repro_store_gets_total", kind=SNAPSHOT_KIND)
        return hierarchy

    def get_encoded(self, digest: str) -> str:
        """The canonical text stored under ``digest``, not decoded."""
        return self._backend.get_encoded(SNAPSHOT_KIND, digest)

    def contains(self, digest: str) -> bool:
        return self._backend.contains(SNAPSHOT_KIND, digest)

    def delete(self, digest: str) -> None:
        """Remove one snapshot (the GC's reclamation primitive)."""
        self._backend.delete(SNAPSHOT_KIND, digest)

    def hashes(self) -> List[str]:
        """All stored snapshot hashes, sorted."""
        return self._backend.keys(SNAPSHOT_KIND)

    def verify(self, digest: str) -> None:
        """Check that the stored payload still hashes to its address."""
        actual = content_hash(self._backend.get(SNAPSHOT_KIND, digest))
        if actual != digest:
            raise StoreError(
                f"snapshot {digest} is corrupt: stored payload hashes to {actual}"
            )

    def size_bytes(self, digest: Optional[str] = None) -> int:
        """Encoded size of one snapshot, or of every stored snapshot."""
        if digest is not None:
            return self._backend.size_bytes(SNAPSHOT_KIND, digest)
        return sum(
            self._backend.size_bytes(SNAPSHOT_KIND, stored)
            for stored in self.hashes()
        )

    def __len__(self) -> int:
        return len(self.hashes())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SnapshotStore({len(self)} snapshots @ {self._backend.location()})"


class DomainHeadArchive:
    """Last-known summary state of each domain, keyed by summary peer.

    The maintenance engine records a *head* whenever a reconciliation installs
    a new global summary: the snapshot hash of the installed summary, the
    snapshot hash of every participant's local summary at that moment, and
    the reconciliation time.  A summary peer that restarts later *cold-starts*
    from its head — it installs the archived global summary by hash lookup
    and re-merges only the partners that changed since — instead of pulling
    every partner's local summary through a full ring reconciliation (see
    :meth:`repro.core.maintenance.MaintenanceEngine.cold_start`).

    Heads are GC roots: every snapshot a head references stays live (see
    :mod:`repro.store.gc`).
    """

    def __init__(self, backend: Union[None, str, StoreBackend] = None) -> None:
        self._backend = open_store(backend)

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    def record_head(
        self,
        summary_peer_id: str,
        global_summary_hash: str,
        partner_hashes: List[List[str]],
        time: float,
    ) -> None:
        """File the domain's post-reconciliation state under its summary peer.

        ``partner_hashes`` is an *ordered* ``[[peer_id, snapshot_hash], ...]``
        list — merge order is part of the head, because merging the same
        local summaries in a different order can produce a different (if
        equivalent) hierarchy and the cold-start fast path relies on exact
        reproducibility.
        """
        self._backend.put(
            DOMAIN_HEAD_KIND,
            summary_peer_id,
            {
                "global_summary": global_summary_hash,
                "partners": [list(pair) for pair in partner_hashes],
                "time": float(time),
            },
        )

    def head(self, summary_peer_id: str) -> Optional[Dict[str, object]]:
        """The recorded head of one domain, or ``None`` when never recorded."""
        if not self._backend.contains(DOMAIN_HEAD_KIND, summary_peer_id):
            return None
        return self._backend.get(DOMAIN_HEAD_KIND, summary_peer_id)

    def summary_peer_ids(self) -> List[str]:
        """Summary peers with a recorded head, sorted."""
        return self._backend.keys(DOMAIN_HEAD_KIND)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DomainHeadArchive({len(self.summary_peer_ids())} heads @ "
            f"{self._backend.location()})"
        )
