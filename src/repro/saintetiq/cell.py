"""Grid cells: the finest-grained summaries produced by the mapping service.

A *cell* is one elementary hyperrectangle of the multidimensional grid induced
by the Background Knowledge — the combination of exactly one descriptor per
summarized attribute.  Records are mapped to (possibly several, fractionally
weighted) cells; cells then become the leaves of the summary hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.stats import StatisticsBundle

#: Canonical, hashable identity of a cell: descriptors sorted by attribute.
CellKey = Tuple[Descriptor, ...]


def make_cell_key(descriptors: Iterable[Descriptor]) -> CellKey:
    """Normalise a set of descriptors into a canonical cell key.

    A cell must carry at most one descriptor per attribute.
    """
    ordered = tuple(sorted(descriptors))
    attributes = [descriptor.attribute for descriptor in ordered]
    if len(set(attributes)) != len(attributes):
        raise SummaryError(
            f"a cell carries one descriptor per attribute, got {ordered}"
        )
    if not ordered:
        raise SummaryError("a cell needs at least one descriptor")
    return ordered


@dataclass
class Cell:
    """One populated grid cell.

    Attributes
    ----------
    key:
        The canonical descriptor combination identifying the cell.
    tuple_count:
        The (possibly fractional) number of records assigned to the cell —
        the ``tuple count`` column of the paper's Table 2.
    grades:
        Per-descriptor membership grade, computed as the *maximum* grade of
        the covered records' values for the descriptor (the paper:
        ``0.3/adult`` is "the maximum of membership grades of tuple values to
        adult in c3").
    statistics:
        Attribute-dependent measures over the raw values of covered records.
    peers:
        Peer-extent contribution (which peers own records in this cell);
        empty for purely local, single-database summaries.
    owner:
        The leaf :class:`~repro.saintetiq.summary.Summary` that holds this
        key.  A builder-managed hierarchy keeps one ``Cell`` object per key,
        aliased by every node on ``owner``'s root path, so a cell absorbed
        into a covered key is merged once and its delta applied along that
        path.  ``None`` for cells outside a hierarchy (freshly mapped,
        copied, decoded, or held by a free-standing node).
    """

    key: CellKey
    tuple_count: float = 0.0
    grades: Dict[Descriptor, float] = field(default_factory=dict)
    statistics: StatisticsBundle = field(default_factory=StatisticsBundle)
    peers: Set[str] = field(default_factory=set)
    owner: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def descriptors(self) -> Set[Descriptor]:
        return set(self.key)

    @property
    def attributes(self) -> Tuple[str, ...]:
        return tuple(descriptor.attribute for descriptor in self.key)

    def label_of(self, attribute: str) -> Optional[str]:
        for descriptor in self.key:
            if descriptor.attribute == attribute:
                return descriptor.label
        return None

    def absorb_record(
        self,
        record: Mapping[str, object],
        weight: float,
        grades: Mapping[Descriptor, float],
        peer: Optional[str] = None,
    ) -> None:
        """Fold one record occurrence (with membership ``weight``) into the cell."""
        if weight <= 0.0:
            return
        self.tuple_count += weight
        for descriptor in self.key:
            grade = grades.get(descriptor, 0.0)
            previous = self.grades.get(descriptor, 0.0)
            self.grades[descriptor] = max(previous, grade)
        self.statistics.add_record(record, weight)
        if peer is not None:
            self.peers.add(peer)

    def absorb_batch(
        self,
        entries: Iterable[
            Tuple[Mapping[str, object], float, Mapping[Descriptor, float]]
        ],
        peer: Optional[str] = None,
    ) -> None:
        """Fold many ``(record, weight, grades)`` occurrences into the cell.

        Byte-identical to calling :meth:`absorb_record` for each entry in
        order: tuple counts accumulate in the same sequence, grade maxima are
        taken descriptor-by-descriptor in the same order, and the statistics
        bundle folds the surviving pairs through
        :meth:`~repro.saintetiq.stats.StatisticsBundle.add_records`, which
        preserves the per-attribute accumulation order.  The batch form lets
        the mapping service update each cell's statistics bookkeeping once per
        relation instead of once per record.
        """
        pairs = []
        for record, weight, grades in entries:
            if weight <= 0.0:
                continue
            self.tuple_count += weight
            for descriptor in self.key:
                grade = grades.get(descriptor, 0.0)
                previous = self.grades.get(descriptor, 0.0)
                self.grades[descriptor] = max(previous, grade)
            pairs.append((record, weight))
        if not pairs:
            return
        self.statistics.add_records(pairs)
        if peer is not None:
            self.peers.add(peer)

    def merge(self, other: "Cell") -> None:
        """Fold another cell with the same key into this one (in place)."""
        if other.key != self.key:
            raise SummaryError(
                f"cannot merge cells with different keys: {self.key} vs {other.key}"
            )
        self.tuple_count += other.tuple_count
        for descriptor, grade in other.grades.items():
            self.grades[descriptor] = max(self.grades.get(descriptor, 0.0), grade)
        self.statistics.merge(other.statistics)
        self.peers |= other.peers

    def copy(self) -> "Cell":
        return Cell(
            key=self.key,
            tuple_count=self.tuple_count,
            grades=dict(self.grades),
            statistics=self.statistics.copy(),
            peers=set(self.peers),
        )

    def describe(self) -> Dict[str, str]:
        """Human-readable ``attribute -> label`` view (Table 2 style)."""
        return {descriptor.attribute: descriptor.label for descriptor in self.key}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        labels = ", ".join(f"{d.attribute}={d.label}" for d in self.key)
        return f"Cell({labels}, count={self.tuple_count:.2f})"
