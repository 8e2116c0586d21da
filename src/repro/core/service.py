"""The per-peer local summary service.

Each peer runs a summarization process integrated to its DBMS (Section 3.2):
it keeps a local summary hierarchy in sync with the local database and exposes
the drift signal that drives the *push* phase of maintenance — a partner peer
"observes the modification rate issued on its local summary" and, when the
summary is considered modified enough, flags its cooperation-list entry.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Mapping, Optional

from repro.database.engine import LocalDatabase
from repro.exceptions import ProtocolError
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.clustering import ClusteringParameters
from repro.saintetiq.hierarchy import SummaryHierarchy


class LocalSummaryService:
    """Builds and incrementally maintains one peer's local summary."""

    def __init__(
        self,
        peer_id: str,
        background: BackgroundKnowledge,
        database: Optional[LocalDatabase] = None,
        attributes: Optional[Iterable[str]] = None,
        parameters: Optional[ClusteringParameters] = None,
    ) -> None:
        self._peer_id = peer_id
        self._background = background
        self._database = database
        self._attributes = list(attributes) if attributes is not None else None
        self._parameters = parameters
        self._summary: Optional[SummaryHierarchy] = SummaryHierarchy(
            background,
            attributes=self._attributes,
            parameters=parameters,
            owner=peer_id,
        )
        self._summary_loader: Optional[Callable[[], SummaryHierarchy]] = None
        #: Signature of the local summary at the last publication (the version
        #: merged into the domain's global summary).
        self._published_signature: FrozenSet[Descriptor] = frozenset()
        self._database_version_summarized = 0
        #: Metrics+trace hook; None keeps the service uninstrumented.
        self.observability = None

    # -- accessors ---------------------------------------------------------------------

    @property
    def peer_id(self) -> str:
        return self._peer_id

    @property
    def summary(self) -> SummaryHierarchy:
        """The live local summary, materializing a pending lazy loader.

        A service restored from a checkpoint (by either open) holds a loader
        until the first access.  Safe for threads racing through that access:
        the loader is read once and cleared only after everything learnt from
        the hierarchy is published (see :attr:`Domain.global_summary`).
        """
        loader = self._summary_loader
        if loader is not None and self._summary is None:
            summary = loader()
            if self.observability is not None:
                self.observability.inc("repro_service_lazy_materializations_total")
            # A lazily restored service learns its clustering setup from the
            # rehydrated hierarchy instead of a payload peek at open time.
            if self._attributes is None:
                self._attributes = list(summary.attributes)
            if self._parameters is None:
                self._parameters = summary._builder.parameters
            self._summary = summary
            self._summary_loader = None
        assert self._summary is not None
        return self._summary

    def bind_summary_loader(self, loader: Callable[[], SummaryHierarchy]) -> None:
        """Defer materialization of the local summary to first access."""
        self._summary = None
        self._summary_loader = loader

    @property
    def summary_pending(self) -> bool:
        """True while a bound lazy loader has not been materialized yet."""
        return self._summary_loader is not None

    @property
    def background(self) -> BackgroundKnowledge:
        return self._background

    @property
    def database(self) -> Optional[LocalDatabase]:
        return self._database

    # -- construction / incremental maintenance -------------------------------------------

    def rebuild_from_database(self, relation_name: Optional[str] = None) -> int:
        """(Re)build the local summary from the attached database.

        Returns the number of records summarized.  With ``relation_name`` the
        rebuild is restricted to that relation; otherwise every relation is
        summarized.
        """
        if self._database is None:
            raise ProtocolError(
                f"peer {self._peer_id!r} has no database to summarize"
            )
        if self._summary_loader is not None and self._attributes is None:
            # Materialize once so the rebuilt hierarchy keeps the restored
            # attribute selection and clustering parameters.
            _ = self.summary
        self._summary_loader = None
        self._summary = SummaryHierarchy(
            self._background,
            attributes=self._attributes,
            parameters=self._parameters,
            owner=self._peer_id,
        )
        names = (
            [relation_name]
            if relation_name is not None
            else self._database.relation_names
        )
        processed = 0
        for name in names:
            relation = self._database.relation(name)
            for record in relation:
                self._summary.add_record(record.as_dict())
                processed += 1
        self._database_version_summarized = self._database.version()
        if self.observability is not None:
            self.observability.inc("repro_service_rebuilds_total")
            self.observability.inc("repro_service_records_summarized_total", processed)
        return processed

    def add_record(self, record: Mapping[str, object]) -> int:
        """Incrementally incorporate one new record (push-mode DBMS exchange)."""
        return self.summary.add_record(record)

    def refresh_incremental(self) -> int:
        """Re-summarize the database if it changed since the last (re)build.

        A change is any DDL or DML statement, seen as a move of the
        database's ``version()``.  Returns the number of records summarized:
        0 when nothing changed, otherwise every record of the database.
        """
        if self._database is None:
            return 0
        if self._database.version() == self._database_version_summarized:
            return 0
        # Without a redo log there is no telling an insertion from a deletion
        # or an update, so any change rebuilds the summary from scratch.
        return self.rebuild_from_database()

    # -- publication / drift ------------------------------------------------------------------

    def publish(self) -> SummaryHierarchy:
        """Snapshot the local summary as the version shipped to the superpeer."""
        summary = self.summary
        snapshot = summary.snapshot()
        self._published_signature = summary.signature()
        return snapshot

    def drift_since_publication(self) -> float:
        """Descriptor-level drift between the live summary and the published one."""
        return self.summary.drift_from(self._published_signature)

    def should_push(self, drift_threshold: float) -> bool:
        """Whether the peer should send a ``push`` message (Section 4.2.1)."""
        return self.drift_since_publication() > drift_threshold

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self._summary is None:
            return f"LocalSummaryService(peer={self._peer_id!r}, summary=<lazy>)"
        return (
            f"LocalSummaryService(peer={self._peer_id!r}, "
            f"records={self._summary.records_processed})"
        )
