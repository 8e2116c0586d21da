"""The mapping service: raw records -> fuzzy grid cells.

Following Section 3.2.1 of the paper, the mapping operation replaces the
original values of every record by the linguistic descriptors of the
Background Knowledge.  Because descriptors overlap, one record may land in
several cells with fractional weights: a 20-year-old with a normal BMI
contributes 0.7 to the ``(young, normal)`` cell and 0.3 to ``(adult, normal)``
(the paper's cells c2 and c3).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import BackgroundKnowledgeError
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.linguistic import Descriptor, LinguisticVariable
from repro.saintetiq.cell import Cell, CellKey, make_cell_key

#: Sentinel distinguishing "not memoized yet" from "value maps to nothing".
_MISSING = object()


class MappingService:
    """Maps records onto the descriptor grid defined by a Background Knowledge."""

    def __init__(
        self,
        background: BackgroundKnowledge,
        attributes: Optional[Iterable[str]] = None,
        threshold: float = 0.0,
    ) -> None:
        """
        Parameters
        ----------
        background:
            The (common) background knowledge.
        attributes:
            The subset of BK attributes to summarize on; defaults to all BK
            attributes.  The paper's running example restricts itself to
            ``age`` and ``bmi``.
        threshold:
            Minimum membership grade for a descriptor to take part in the
            mapping (an alpha-cut); 0 keeps every positive grade.
        """
        self._background = background
        selected = list(attributes) if attributes is not None else background.attributes
        unknown = [a for a in selected if a not in background]
        if unknown:
            raise BackgroundKnowledgeError(
                f"cannot summarize on attributes missing from the BK: {unknown}"
            )
        if not selected:
            raise BackgroundKnowledgeError("mapping needs at least one attribute")
        self._attributes = selected
        self._threshold = threshold

    @property
    def background(self) -> BackgroundKnowledge:
        return self._background

    @property
    def attributes(self) -> List[str]:
        return list(self._attributes)

    # -- record-level mapping --------------------------------------------------

    def _fuzzify_attribute(
        self, variable: "LinguisticVariable", value: object
    ) -> List[Tuple[Descriptor, float]]:
        """Graded descriptors of one attribute value, in canonical order."""
        graded = variable.fuzzify(value, threshold=self._threshold)
        return sorted(graded.items(), key=lambda kv: kv[0])

    def map_record(
        self, record: Mapping[str, object]
    ) -> List[Tuple[CellKey, float, Dict[Descriptor, float]]]:
        """Map one record to weighted cells.

        Returns a list of ``(cell_key, weight, grades)`` triples where
        ``weight`` is the record's membership in the cell — the product of the
        per-attribute grades, so that under a Ruspini background knowledge the
        weights of one record sum to exactly 1 (the record count is preserved,
        as in the paper's Table 2) — and ``grades`` carries the per-descriptor
        grades used to update cell intents.  Records missing a summarized
        attribute, or whose value is outside the BK support on some attribute,
        map to no cell.
        """
        per_attribute: List[List[Tuple[Descriptor, float]]] = []
        for attribute in self._attributes:
            if attribute not in record or record[attribute] is None:
                return []
            graded = self._fuzzify_attribute(
                self._background.variable(attribute), record[attribute]
            )
            if not graded:
                return []
            per_attribute.append(graded)
        return self._combine(per_attribute)

    @staticmethod
    def _combine(
        per_attribute: List[List[Tuple[Descriptor, float]]]
    ) -> List[Tuple[CellKey, float, Dict[Descriptor, float]]]:
        results: List[Tuple[CellKey, float, Dict[Descriptor, float]]] = []
        for combination in itertools.product(*per_attribute):
            descriptors = [descriptor for descriptor, _grade in combination]
            grades = {descriptor: grade for descriptor, grade in combination}
            weight = 1.0
            for _descriptor, grade in combination:
                weight *= grade
            if weight <= 0.0:
                continue
            results.append((make_cell_key(descriptors), weight, grades))
        return results

    # -- relation-level mapping -------------------------------------------------

    def map_records(
        self,
        records: Iterable[Mapping[str, object]],
        peer: Optional[str] = None,
    ) -> Dict[CellKey, Cell]:
        """Map a collection of records into populated cells (Table 2).

        ``peer`` tags every produced cell with the owning peer identifier so
        that peer-extents can be propagated through the hierarchy.

        The per-attribute partition lookups are hoisted out of the per-record
        loop and the fuzzification of repeated attribute values is memoized —
        real relations draw from small value domains (ages, BMI classes...),
        so most fuzzifications are cache hits.  The weighted occurrences are
        grouped per cell and folded through :meth:`Cell.absorb_batch`, so each
        cell's statistics bookkeeping is updated once per relation.  The
        produced cells are byte-identical to mapping each record individually
        (:func:`map_records_reference`).
        """
        variables = [
            (attribute, self._background.variable(attribute))
            for attribute in self._attributes
        ]
        memo: List[Dict[object, Optional[List[Tuple[Descriptor, float]]]]] = [
            {} for _attribute in variables
        ]
        # Combination memo: records sharing their fuzzified attribute values
        # also share the full (cell key, weight, grades) expansion.  Memoized
        # graded lists are identity-stable, so their ids form a safe key.
        combos: Dict[
            Tuple[int, ...], List[Tuple[CellKey, float, Dict[Descriptor, float]]]
        ] = {}
        # Per-cell occurrence batches, in first-occurrence order, folded once
        # after the scan.
        pending: Dict[
            CellKey, List[Tuple[Mapping[str, object], float, Dict[Descriptor, float]]]
        ] = {}
        for record in records:
            per_attribute: List[List[Tuple[Descriptor, float]]] = []
            all_memoized = True
            for index, (attribute, variable) in enumerate(variables):
                if attribute not in record or record[attribute] is None:
                    per_attribute = []
                    break
                value = record[attribute]
                try:
                    graded = memo[index].get(value, _MISSING)
                    memoizable = True
                except TypeError:  # unhashable value: fuzzify every time
                    graded = _MISSING
                    memoizable = False
                    all_memoized = False
                if graded is _MISSING:
                    graded = self._fuzzify_attribute(variable, value) or None
                    if memoizable:
                        memo[index][value] = graded
                if graded is None:
                    per_attribute = []
                    break
                per_attribute.append(graded)
            if not per_attribute:
                continue
            # Memoized lists are kept alive by ``memo``, so their ids are
            # stable combo keys; ad-hoc lists (unhashable values) are not.
            if all_memoized:
                combo_key = tuple(id(graded) for graded in per_attribute)
                expansion = combos.get(combo_key)
                if expansion is None:
                    expansion = self._combine(per_attribute)
                    combos[combo_key] = expansion
            else:
                expansion = self._combine(per_attribute)
            for key, weight, grades in expansion:
                bucket = pending.get(key)
                if bucket is None:
                    bucket = []
                    pending[key] = bucket
                bucket.append((record, weight, grades))
        cells: Dict[CellKey, Cell] = {}
        for key, entries in pending.items():
            cell = Cell(key=key)
            cell.absorb_batch(entries, peer=peer)
            cells[key] = cell
        return cells

    def grid_size(self) -> int:
        """Total number of cells of the restricted grid."""
        size = 1
        for attribute in self._attributes:
            size *= len(self._background.variable(attribute))
        return size


def map_records_reference(
    service: MappingService,
    records: Iterable[Mapping[str, object]],
    peer: Optional[str] = None,
) -> Dict[CellKey, Cell]:
    """The pre-batching relation mapping: one full lookup chain per record.

    Kept as the reference implementation the memoized batch path of
    :meth:`MappingService.map_records` is validated and benchmarked against.
    """
    cells: Dict[CellKey, Cell] = {}
    for record in records:
        for key, weight, grades in service.map_record(record):
            cell = cells.get(key)
            if cell is None:
                cell = Cell(key=key)
                cells[key] = cell
            cell.absorb_record(record, weight, grades, peer=peer)
    return cells
