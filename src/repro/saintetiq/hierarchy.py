"""Summary hierarchies: the tree of summaries built by the summarization service.

A :class:`SummaryHierarchy` wraps a :class:`~repro.saintetiq.clustering.SummaryBuilder`
together with the mapping service that feeds it, and exposes the operations
the P2P layer relies on:

* incremental incorporation of records (local summary maintenance),
* structural figures used by the cost model (node count, depth, arity,
  estimated size in bytes),
* a *signature* — the set of descriptors appearing in summary intents — whose
  drift is how partners detect that their local summary has changed enough to
  warrant a ``push`` message (Section 4.2.1),
* deep copies, used when a local summary is shipped to the superpeer.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.querying.engine import HierarchyQueryIndex, PropositionKey
    from repro.querying.proposition import Proposition
    from repro.querying.selection import QuerySelection

from repro.exceptions import SummaryError
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell
from repro.saintetiq.clustering import ClusteringParameters, SummaryBuilder
from repro.saintetiq.mapping import MappingService
from repro.saintetiq.summary import Summary

#: Rough per-summary storage footprint used by the cost model (Section 6.1.1).
DEFAULT_SUMMARY_SIZE_BYTES = 512


class SummaryHierarchy:
    """A summary tree over one (or several merged) data sources."""

    def __init__(
        self,
        background: BackgroundKnowledge,
        attributes: Optional[Iterable[str]] = None,
        parameters: Optional[ClusteringParameters] = None,
        owner: Optional[str] = None,
    ) -> None:
        self._background = background
        self._mapping = MappingService(background, attributes=attributes)
        self._builder = SummaryBuilder(parameters)
        self._owner = owner
        self._records_processed = 0
        # Derived figures memoized against the builder's mutation counter:
        # every tree mutation goes through ``SummaryBuilder.incorporate``, so
        # a matching counter proves the cached value is still current.
        self._depth_cache: Optional[Tuple[int, int]] = None
        self._signature_cache: Optional[Tuple[int, FrozenSet[Descriptor]]] = None
        self._index_cache: Optional[Tuple[int, "HierarchyQueryIndex"]] = None
        self._address_cache: Optional[Tuple[int, str]] = None
        self._selection_cache: Dict["PropositionKey", "QuerySelection"] = {}

    # -- accessors -----------------------------------------------------------------

    @property
    def background(self) -> BackgroundKnowledge:
        return self._background

    @property
    def mapping(self) -> MappingService:
        return self._mapping

    @property
    def root(self) -> Summary:
        return self._builder.root

    @property
    def owner(self) -> Optional[str]:
        return self._owner

    @property
    def records_processed(self) -> int:
        return self._records_processed

    @property
    def attributes(self) -> List[str]:
        return self._mapping.attributes

    @property
    def mutation_count(self) -> int:
        """The builder's monotonic mutation counter: unmoved means unchanged."""
        return self._builder.mutation_count

    # -- construction / maintenance -------------------------------------------------

    def add_record(self, record: Mapping[str, object]) -> int:
        """Map one record and incorporate the resulting cells.

        Returns the number of cells the record contributed to.  Records that
        fall outside the background-knowledge support contribute nothing.
        """
        contributions = 0
        for key, weight, grades in self._mapping.map_record(record):
            cell = Cell(key=key)
            cell.absorb_record(record, weight, grades, peer=self._owner)
            self._builder.incorporate(cell)
            contributions += 1
        if contributions:
            self._records_processed += 1
        return contributions

    def add_records(self, records: Iterable[Mapping[str, object]]) -> int:
        """Incorporate a batch of records; returns how many produced cells."""
        added = 0
        for record in records:
            if self.add_record(record):
                added += 1
        return added

    def incorporate_cells(self, cells: Iterable[Cell]) -> int:
        """Incorporate externally produced cells (hierarchy merging); returns how many."""
        return self._builder.incorporate_all(cells)

    # -- structure metrics -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.root.cells

    def node_count(self) -> int:
        return sum(1 for _node in self.root.iter_subtree())

    def leaf_count(self) -> int:
        return len(self.root.leaves())

    def depth(self) -> int:
        """Tree height, memoized until the next mutation (see ``_depth_cache``)."""
        version = self.mutation_count
        if self._depth_cache is None or self._depth_cache[0] != version:
            self._depth_cache = (version, self.root.depth())
        return self._depth_cache[1]

    def average_arity(self) -> float:
        """Average number of children of internal nodes (the ``B`` of the model)."""
        internal = [node for node in self.root.iter_subtree() if not node.is_leaf]
        if not internal:
            return 0.0
        return sum(len(node.children) for node in internal) / len(internal)

    def size_bytes(self, per_summary: int = DEFAULT_SUMMARY_SIZE_BYTES) -> int:
        """Estimated storage footprint (``k`` bytes per summary node)."""
        return per_summary * self.node_count()

    def leaves(self) -> List[Summary]:
        return self.root.leaves()

    def iter_leaf_cells(self) -> Iterable[Cell]:
        """The populated cells at the leaves, in leaf order — live, read-only."""
        for leaf in self.root.leaves():
            yield from leaf.cells.values()

    def peer_extent(self) -> Set[str]:
        """All peers contributing data to this hierarchy (Definition 4)."""
        return self.root.peer_extent

    # -- query engine ------------------------------------------------------------------

    def query_index(self) -> "HierarchyQueryIndex":
        """The descriptor → summary-node inverted index for the current tree.

        Memoized against the builder's mutation counter, exactly like
        :meth:`signature` and :meth:`depth`: the index (and the selection
        cache riding on it) is rebuilt lazily after the next mutation.
        """
        from repro.querying.engine import HierarchyQueryIndex

        version = self.mutation_count
        if self._index_cache is None or self._index_cache[0] != version:
            self._index_cache = (version, HierarchyQueryIndex(self.root))
            self._selection_cache = {}
        return self._index_cache[1]

    def select(self, proposition: "Proposition") -> "QuerySelection":
        """Indexed + memoized selection: the fast path of ``select_summaries``.

        Node-for-node identical to
        :func:`repro.querying.selection.select_summaries` on this hierarchy
        (same ``Z_Q`` order, partial cells and ``visited_nodes``), but the
        exploration runs over the inverted index and whole
        :class:`~repro.querying.selection.QuerySelection` results are cached
        per canonical proposition until the next mutation.  The returned
        selection is shared between callers — treat it as read-only
        (``matching_cells`` hands out copies; ``iter_matching_cells`` does
        not).
        """
        from repro.querying.engine import proposition_key
        from repro.querying.selection import QuerySelection

        if self.is_empty():
            return QuerySelection()
        index = self.query_index()  # refreshes the selection cache on mutation
        key = proposition_key(proposition)
        selection = self._selection_cache.get(key)
        if selection is None:
            selection = index.select(proposition)
            self._selection_cache[key] = selection
        return selection

    # -- drift detection ---------------------------------------------------------------

    def signature(self) -> FrozenSet[Descriptor]:
        """The set of descriptors appearing anywhere in the hierarchy's intents.

        The paper detects summary modification *"by observing the
        appearance/disappearance of descriptors in summary intentions"*; the
        signature is exactly that observable.  Memoized until the next
        mutation: drift checks run on every maintenance tick, far more often
        than the tree changes.
        """
        version = self.mutation_count
        if self._signature_cache is None or self._signature_cache[0] != version:
            descriptors: Set[Descriptor] = set()
            for node in self.root.iter_subtree():
                descriptors |= node.descriptors
            self._signature_cache = (version, frozenset(descriptors))
        return self._signature_cache[1]

    def drift_from(self, signature: FrozenSet[Descriptor]) -> float:
        """Fraction of descriptors that appeared or disappeared since ``signature``.

        Returns a value in [0, 1]; 0 means the intents are unchanged.
        """
        current = self.signature()
        union = current | signature
        if not union:
            return 0.0
        return len(current ^ signature) / len(union)

    # -- content address -----------------------------------------------------------------

    def content_snapshot(self) -> Tuple[str, str]:
        """``(content address, canonical JSON text)`` from one encoding pass.

        Always encodes (it *is*
        :func:`repro.saintetiq.serialization.hierarchy_snapshot`, each distinct
        cell once) and remembers the address it found for :meth:`content_address`.
        """
        from repro.saintetiq.serialization import hierarchy_snapshot

        version = self.mutation_count
        address, encoded = hierarchy_snapshot(self)
        self._address_cache = (version, address)
        return address, encoded

    @property
    def known_content_address(self) -> Optional[str]:
        """The content address if this tree was addressed since it last moved.

        ``None`` otherwise — never an encoding.  A store asked to file the
        hierarchy looks here first: an address it already holds needs no text
        (see :meth:`repro.store.snapshots.SnapshotStore.missing_snapshot`).
        """
        cached = self._address_cache
        if cached is None or cached[0] != self.mutation_count:
            return None
        return cached[1]

    def content_address(self) -> str:
        """SHA-256 of the canonical encoding, memoized until the next mutation.

        The fourth figure kept against the mutation counter, beside
        :meth:`depth`, :meth:`signature` and :meth:`query_index`: a hierarchy
        that has not moved is not encoded again to learn where it is filed.
        Nothing seeds it but an encoding of this very object — a restore
        does not — and the always-encoding
        :func:`repro.saintetiq.serialization.hierarchy_content_hash` stays
        the oracle the tests hold it to.
        """
        return self.known_content_address or self.content_snapshot()[0]

    # -- copies --------------------------------------------------------------------------

    def snapshot(self) -> "SummaryHierarchy":
        """Deep copy of this hierarchy (e.g. the version shipped to a superpeer)."""
        clone = SummaryHierarchy(
            self._background,
            attributes=self._mapping.attributes,
            parameters=self._builder.parameters,
            owner=self._owner,
        )
        clone.incorporate_cells(self.iter_leaf_cells())
        clone._records_processed = self._records_processed
        return clone

    def validate(self) -> None:
        """Check structural invariants; raises :class:`SummaryError` on violation.

        * every internal node's cell map is the union of its children's,
        * every leaf covers at least one cell (once the hierarchy is non-empty),
        * the generalization partial order of Definition 2 holds along edges,
        * every node's cached aggregates match a from-scratch recomputation,
        * each key has one ``Cell`` object, aliased by exactly the nodes on the
          root path of the leaf it names as ``owner``.
        """
        if self.is_empty():
            return
        shared = self.root.cells
        for node in self.root.iter_subtree():
            node.check_cache()
            for key, cell in node.cells.items():
                if cell is not shared[key] or (node.is_leaf and cell.owner is not node):
                    raise SummaryError(f"node {node.node_id} does not share cell {key}")
            if node.is_leaf:
                if not node.cells:
                    raise SummaryError(f"leaf {node.node_id} covers no cell")
                continue
            child_keys: Set[object] = set()
            for child in node.children:
                child_keys |= set(child.cells)
                if not node.covers(child):
                    raise SummaryError(
                        f"node {node.node_id} does not generalize its child "
                        f"{child.node_id}"
                    )
            if child_keys != set(node.cells):
                raise SummaryError(
                    f"node {node.node_id} cells differ from the union of its "
                    f"children's cells"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SummaryHierarchy(owner={self._owner!r}, nodes={self.node_count()}, "
            f"leaves={self.leaf_count()}, depth={self.depth()})"
        )
