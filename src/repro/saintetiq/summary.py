"""Summary nodes: intent, extent, peer-extent and tree structure.

A summary *z* (Definition 1 of the paper) is the bounding box of a cluster of
cells: its *intent* is, per attribute, the union of the labels of the covered
cells; its *extent* is the set of covered cells (``L_z``) together with the
records they aggregate (``R_z`` — represented here by counts and statistics
rather than raw tuples); its *peer-extent* (Definition 3) is the set of peers
owning at least one covered record.

Aggregate cache
---------------
Every node materializes the aggregates the clustering and query layers keep
asking for — descriptor-weight profile, total tuple mass, per-attribute intent
label sets, peer-extent, attribute statistics — instead of rescanning
``cells`` on each access.  The cache follows a delta protocol:

* :meth:`absorb_cell` / :meth:`alias_cell` apply the incoming cell's
  contribution as a delta (:meth:`apply_cell_delta`; cell maps only ever grow
  during incorporation, so deltas are additive);
* :meth:`recompute_from_children` re-establishes both the cell map *and* the
  cached aggregates as a child-union merge of the children's caches, without
  revisiting individual descriptors per covered cell;
* wholesale replacement of ``cells`` (constructor-supplied maps, deep copies)
  marks the cache *dirty*; the next aggregate access rebuilds it from the cell
  map in one pass (:meth:`invalidate_cache` exposes the same hook to any
  out-of-band mutator).

:meth:`check_cache` recomputes everything from scratch and raises on any
divergence; :meth:`SummaryHierarchy.validate` calls it on every node.

Nodes of a hierarchy share one :class:`Cell` per key (:meth:`alias_cell`, see
:attr:`Cell.owner`); a free-standing node copies (:meth:`absorb_cell`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, CellKey
from repro.saintetiq.stats import StatisticsBundle

_summary_counter = itertools.count()


def _next_summary_id() -> int:
    return next(_summary_counter)


@dataclass
class Summary:
    """A node of the summary hierarchy."""

    node_id: int = field(default_factory=_next_summary_id)
    children: List["Summary"] = field(default_factory=list)
    cells: Dict[CellKey, Cell] = field(default_factory=dict)
    parent: Optional["Summary"] = field(default=None, repr=False, compare=False)

    # Materialized aggregates (see the module docstring for the protocol).
    _profile: Dict[Descriptor, float] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    _mass: float = field(init=False, default=0.0, repr=False, compare=False)
    _labels: Dict[str, Set[str]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    _peers: Set[str] = field(init=False, default_factory=set, repr=False, compare=False)
    _stats: StatisticsBundle = field(
        init=False, default_factory=StatisticsBundle, repr=False, compare=False
    )
    _intent_view: Optional[Dict[str, FrozenSet[str]]] = field(
        init=False, default=None, repr=False, compare=False
    )
    _dirty: bool = field(init=False, default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Constructor-supplied cell maps bypass the delta protocol.
        if self.cells:
            self._dirty = True

    # -- structure -------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def add_child(self, child: "Summary") -> None:
        child.parent = self
        self.children.append(child)

    def remove_child(self, child: "Summary") -> None:
        self.children.remove(child)
        child.parent = None

    def iter_subtree(self) -> Iterable["Summary"]:
        """Depth-first traversal of this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def leaves(self) -> List["Summary"]:
        return [node for node in self.iter_subtree() if node.is_leaf]

    def depth(self) -> int:
        """Height of the subtree rooted here (a single node has depth 0)."""
        best = 0
        stack: List[Tuple["Summary", int]] = [(self, 0)]
        while stack:
            node, level = stack.pop()
            if node.children:
                next_level = level + 1
                for child in node.children:
                    stack.append((child, next_level))
            elif level > best:
                best = level
        return best

    # -- aggregate cache ---------------------------------------------------------

    def invalidate_cache(self) -> None:
        """Flag the cached aggregates as stale (out-of-band ``cells`` mutation)."""
        self._dirty = True

    def _ensure_cache(self) -> None:
        if self._dirty:
            self._rebuild_cache()

    def _rebuild_cache(self) -> None:
        """One-pass rebuild of every aggregate from the cell map."""
        profile, mass, labels, peers, stats = self._compute_from_cells()
        self._profile = profile
        self._mass = mass
        self._labels = labels
        self._peers = peers
        self._stats = stats
        self._intent_view = None
        self._dirty = False

    def _compute_from_cells(
        self,
    ) -> Tuple[Dict[Descriptor, float], float, Dict[str, Set[str]], Set[str], StatisticsBundle]:
        profile: Dict[Descriptor, float] = {}
        mass = 0.0
        labels: Dict[str, Set[str]] = {}
        peers: Set[str] = set()
        stats = StatisticsBundle()
        for cell in self.cells.values():
            count = cell.tuple_count
            mass += count
            for descriptor in cell.key:
                if descriptor in profile:
                    profile[descriptor] += count
                else:
                    profile[descriptor] = count
                    labels.setdefault(descriptor.attribute, set()).add(descriptor.label)
            peers |= cell.peers
            stats.merge(cell.statistics)
        return profile, mass, labels, peers, stats

    def apply_cell_delta(self, cell: Cell) -> None:
        """Fold one incoming cell's contribution into the cached aggregates."""
        if self._dirty:
            return  # a full rebuild is pending anyway
        count = cell.tuple_count
        self._mass += count
        profile = self._profile
        for descriptor in cell.key:
            if descriptor in profile:
                profile[descriptor] += count
            else:
                profile[descriptor] = count
                self._labels.setdefault(descriptor.attribute, set()).add(
                    descriptor.label
                )
                self._intent_view = None
        if cell.peers:
            self._peers |= cell.peers
        self._stats.merge(cell.statistics)

    def check_cache(self, rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> None:
        """Recompute every aggregate from scratch and raise on divergence."""
        if self._dirty:
            return  # nothing materialized to check

        def close(a: float, b: float) -> bool:
            return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)

        profile, mass, labels, peers, stats = self._compute_from_cells()
        if set(profile) != set(self._profile):
            raise SummaryError(
                f"node {self.node_id}: cached profile descriptors diverged"
            )
        for descriptor, weight in profile.items():
            if not close(weight, self._profile[descriptor]):
                raise SummaryError(
                    f"node {self.node_id}: cached weight of {descriptor} diverged"
                )
        if not close(mass, self._mass):
            raise SummaryError(f"node {self.node_id}: cached tuple mass diverged")
        if labels != self._labels:
            raise SummaryError(f"node {self.node_id}: cached intent diverged")
        if peers != self._peers:
            raise SummaryError(f"node {self.node_id}: cached peer-extent diverged")
        for attribute in set(stats.attributes) | set(self._stats.attributes):
            fresh, cached = stats.get(attribute), self._stats.get(attribute)
            if fresh is None or cached is None:
                raise SummaryError(
                    f"node {self.node_id}: cached statistics attributes diverged"
                )
            # Sums depend on the fold order; extrema do not, so they match exactly.
            if not (
                close(fresh.count, cached.count)
                and close(fresh.total, cached.total)
                and close(fresh.total_squares, cached.total_squares)
                and fresh.minimum == cached.minimum
                and fresh.maximum == cached.maximum
            ):
                raise SummaryError(
                    f"node {self.node_id}: cached statistics of {attribute!r} diverged"
                )

    # -- intent / extent --------------------------------------------------------

    @property
    def profile(self) -> Dict[Descriptor, float]:
        """Descriptor-weight profile: descriptor -> covered tuple mass.

        The returned mapping is the live cache — treat it as read-only.
        """
        self._ensure_cache()
        return self._profile

    @property
    def intent(self) -> Dict[str, FrozenSet[str]]:
        """Per-attribute set of labels describing the covered cells.

        The returned mapping is a cached view shared between calls — treat it
        as read-only.
        """
        self._ensure_cache()
        view = self._intent_view
        if view is None:
            # Returned from the local: a thread racing this one through a
            # first ``_rebuild_cache`` may reset the attribute in between.
            view = self._intent_view = {
                attribute: frozenset(values)
                for attribute, values in self._labels.items()
            }
        return view

    @property
    def descriptors(self) -> Set[Descriptor]:
        """All descriptors appearing in the intent."""
        self._ensure_cache()
        return set(self._profile)

    @property
    def attributes(self) -> List[str]:
        self._ensure_cache()
        return sorted(self._labels)

    @property
    def tuple_count(self) -> float:
        self._ensure_cache()
        return self._mass

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def peer_extent(self) -> Set[str]:
        """Definition 3: peers owning at least one record described here."""
        self._ensure_cache()
        return set(self._peers)

    def statistics(self) -> StatisticsBundle:
        """Aggregated attribute statistics over the covered cells."""
        self._ensure_cache()
        return self._stats.copy()

    def covers(self, other: "Summary") -> bool:
        """Generalization test: does this summary's extent include ``other``'s?

        Implements the partial order of Definition 2 at the granularity of
        cells (``R_z ⊆ R_z'`` holds exactly when ``L_z ⊆ L_z'`` for summaries
        built from the same cell population).
        """
        return other.cells.keys() <= self.cells.keys()

    def labels_of(self, attribute: str) -> FrozenSet[str]:
        return self.intent.get(attribute, frozenset())

    # -- cell bookkeeping --------------------------------------------------------

    def absorb_cell(self, cell: Cell) -> None:
        """Fold a cell into this free-standing node's own extent (by copy)."""
        existing = self.cells.get(cell.key)
        if existing is None:
            self.cells[cell.key] = cell.copy()
        else:
            existing.merge(cell)
        self.apply_cell_delta(cell)

    def alias_cell(self, cell: Cell) -> None:
        """Cover a new key with the shared ``cell``; a leaf becomes its ``owner``."""
        self.cells[cell.key] = cell
        if not self.children:
            cell.owner = self
        self.apply_cell_delta(cell)

    def absorb_cells(self, cells: Iterable[Cell]) -> None:
        for cell in cells:
            self.absorb_cell(cell)

    def recompute_from_children(self) -> None:
        """Rebuild this node's cell map as the union of its children's.

        Internal nodes of the hierarchy always satisfy this invariant; it is
        re-established after structural operators (merge/split) run.  The
        cached aggregates are rebuilt alongside by merging the children's
        caches — no per-cell descriptor walk.

        The rebuilt map *aliases* the children's cells: a structural merge
        costs one dict insert per covered cell, and the node joins each key's
        shared root path.  Children of a builder-managed node cover disjoint
        keys; for hand-built children that overlap, the shared key gets a
        merged private copy.
        """
        if not self.children:
            return
        rebuilt: Dict[CellKey, Cell] = {}
        profile: Dict[Descriptor, float] = {}
        mass = 0.0
        labels: Dict[str, Set[str]] = {}
        peers: Set[str] = set()
        stats = StatisticsBundle()
        for child in self.children:
            if not rebuilt:
                # Fast path for the first child: a wholesale shallow copy.
                rebuilt = dict(child.cells)
            else:
                for key, cell in child.cells.items():
                    existing = rebuilt.get(key)
                    if existing is None:
                        rebuilt[key] = cell
                    else:
                        rebuilt[key] = existing.copy()
                        rebuilt[key].merge(cell)
            child._ensure_cache()
            mass += child._mass
            for descriptor, weight in child._profile.items():
                if descriptor in profile:
                    profile[descriptor] += weight
                else:
                    profile[descriptor] = weight
                    labels.setdefault(descriptor.attribute, set()).add(
                        descriptor.label
                    )
            peers |= child._peers
            stats.merge(child._stats)
        self.cells = rebuilt
        self._profile = profile
        self._mass = mass
        self._labels = labels
        self._peers = peers
        self._stats = stats
        self._intent_view = None
        self._dirty = False

    def copy_subtree(self) -> "Summary":
        """Deep copy of the subtree rooted at this node."""
        clone = Summary(cells={key: cell.copy() for key, cell in self.cells.items()})
        for child in self.children:
            clone.add_child(child.copy_subtree())
        return clone

    def describe(self) -> Dict[str, List[str]]:
        """Readable intent: attribute -> sorted labels."""
        return {
            attribute: sorted(labels) for attribute, labels in self.intent.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        intent = "; ".join(
            f"{attribute}={{{', '.join(sorted(labels))}}}"
            for attribute, labels in sorted(self.intent.items())
        )
        return (
            f"Summary(id={self.node_id}, cells={self.cell_count}, "
            f"count={self.tuple_count:.2f}, intent=[{intent}])"
        )


def summary_from_cells(cells: Iterable[Cell]) -> Summary:
    """Build a flat summary (no children) covering ``cells``."""
    summary = Summary()
    summary.absorb_cells(cells)
    if not summary.cells:
        raise SummaryError("cannot build a summary from an empty cell collection")
    return summary
