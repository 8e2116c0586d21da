"""``repro.store`` — pluggable persistence for summaries and whole sessions.

The paper's super-peers hold materialized summary hierarchies that outlive
any single query or churn event; this subsystem gives the reproduction the
matching persistence layer:

* **Backends** (:mod:`repro.store.backend`) — one tiny namespaced document
  contract, three implementations: in-memory, directory-of-JSON, SQLite
  single-file.  :func:`open_store` picks one from a path.
* **Snapshots** (:mod:`repro.store.snapshots`) — content-addressed storage of
  :class:`~repro.saintetiq.hierarchy.SummaryHierarchy` objects; identical
  hierarchies share one stored object across peers, checkpoints and runs.
* **Checkpoints** (:mod:`repro.store.checkpoint`) — capture/restore of a full
  :class:`~repro.core.session.NetworkSession`; the restored session's query
  routing, staleness and traffic output is byte-identical to the original.
  ``save_session(..., base=...)`` stores *delta* checkpoints — structural
  patches (:mod:`repro.store.deltas`) against an earlier checkpoint — that
  restore transparently through their base chain; ``compact_checkpoint``
  folds a long chain back into a fresh full checkpoint.  A restore decodes
  each hierarchy on first touch (:mod:`repro.store.lazy`).
* **Read-only serving** (:func:`open_readonly_session`) — open a checkpoint
  as one shared :class:`~repro.core.session.ReadOnlyNetworkSession` whose
  consumers and threads share one hierarchy object per snapshot; this is
  the session mode behind the ``repro serve`` daemon.
* **Garbage collection** (:mod:`repro.store.gc`) — ``collect_garbage`` (also
  reachable as ``backend.gc()``) reclaims snapshots no retained checkpoint,
  delta chain or domain head references.
* **Domain heads** (:class:`~repro.store.snapshots.DomainHeadArchive`) — the
  per-domain summary state the maintenance engine archives at each
  reconciliation, enabling store-backed summary-peer cold starts.

The high-level entry points live on the session façade:
``NetworkSession.checkpoint(target, base=...)``,
``SystemBuilder.from_checkpoint(target)``,
``NetworkSession.attach_store(target)`` / ``cold_start_domain(sp_id)``.
Each name loads on first use: ``import repro.store`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "backend": (
        "InMemoryBackend JsonDirectoryBackend SqliteBackend StoreBackend open_store"
    ),
    "checkpoint": (
        "CHECKPOINT_KIND DEFAULT_CHECKPOINT_NAME checkpoint_base_chain"
        " compact_checkpoint compact_checkpoints list_checkpoints open_readonly_session"
        " restore_session save_session"
    ),
    "deltas": "apply_patch diff_documents",
    "gc": "GcReport collect_garbage snapshot_refcounts",
    "lazy": "HierarchySource",
    "snapshots": "DOMAIN_HEAD_KIND SNAPSHOT_KIND DomainHeadArchive SnapshotStore",
})

__all__ = [
    "StoreBackend",
    "InMemoryBackend",
    "JsonDirectoryBackend",
    "SqliteBackend",
    "open_store",
    "SnapshotStore",
    "SNAPSHOT_KIND",
    "DomainHeadArchive",
    "DOMAIN_HEAD_KIND",
    "save_session",
    "restore_session",
    "open_readonly_session",
    "HierarchySource",
    "list_checkpoints",
    "checkpoint_base_chain",
    "compact_checkpoint",
    "compact_checkpoints",
    "CHECKPOINT_KIND",
    "DEFAULT_CHECKPOINT_NAME",
    "diff_documents",
    "apply_patch",
    "collect_garbage",
    "snapshot_refcounts",
    "GcReport",
]
