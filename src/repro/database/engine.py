"""Local query evaluation: the per-peer DBMS facade.

A :class:`LocalDatabase` groups the relations a peer shares and evaluates
selection queries locally.  It is the ground truth against which routing
precision/recall (false positives and false negatives) is measured by the
experiments.

Queries are answered from a per-relation index of predicate bitmasks: bit
``i`` of a mask is set when the relation's ``i``-th record satisfies the
condition.  ``has_match``, ``count_matches`` and ``execute`` AND a query's
masks and read the result as ``!= 0``, as its bit count or as the matching
records in relation order; an empty predicate tuple matches every record.
A descriptor predicate evaluated through the background knowledge ORs one
mask per ``(descriptor, alpha_cut)`` — bit set when the record holds the
attribute and the descriptor grades its value above ``alpha_cut`` — so
queries that share descriptors share masks.  Only these masks are kept.
Every other predicate (a descriptor predicate without background included)
is evaluated per call: its mask, bit set when ``predicate.matches(record)``,
is built for the query and dropped.

Masks are filled lazily, the first time a key is asked for, and are valid for
one ``(relation object, relation.version)``: any insert, delete or update of
the relation, and a drop or re-creation under the same name, starts a fresh
map.  A map that outgrows ``_MASKS_PER_DESCRIPTOR`` keys per background
descriptor (clients choose their alpha cuts) is cleared and refilled.  The
index is derived state: it is never checkpointed, and concurrent readers may
fill it at once (a key computed twice yields the same ``int``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.database.query import DescriptorPredicate, Predicate, SelectionQuery
from repro.database.schema import Schema
from repro.database.table import Record, Relation
from repro.exceptions import QueryError, SchemaError
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.linguistic import Descriptor

#: ``(relation, relation.version, (descriptor, alpha_cut) -> mask)``: one
#: relation's index.
_Index = Tuple[Relation, int, Dict[Tuple[Descriptor, float], int]]

#: A relation's map holds at most this many alpha cuts' worth of masks per
#: background descriptor before it is cleared.
_MASKS_PER_DESCRIPTOR = 4


class LocalDatabase:
    """A named collection of relations owned by one peer."""

    def __init__(self, background: Optional[BackgroundKnowledge] = None) -> None:
        self._relations: Dict[str, Relation] = {}
        self._background = background
        self._indexes: Dict[str, _Index] = {}
        self._mask_limit = (
            _MASKS_PER_DESCRIPTOR * len(background.descriptors()) if background else 0
        )
        # Keeps ``version()`` rising across a drop: each dropped relation's
        # version plus one.
        self._retired = 0

    @property
    def background(self) -> Optional[BackgroundKnowledge]:
        return self._background

    @property
    def relation_names(self) -> List[str]:
        return list(self._relations)

    # -- DDL -----------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema: Schema,
        records: Optional[Iterable[Mapping[str, object]]] = None,
    ) -> Relation:
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        relation = Relation(name, schema, records)
        self._relations[name] = relation
        return relation

    def drop_relation(self, name: str) -> None:
        relation = self.relation(name)
        del self._relations[name]
        self._indexes.pop(name, None)
        self._retired += relation.version + 1

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise SchemaError(f"relation {name!r} does not exist") from exc

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    # -- state ---------------------------------------------------------------

    def version(self) -> int:
        """A modification counter over the records there are to summarize.

        It rises with every insert, every delete or update that changes a
        record, every drop and every relation created holding records; an
        empty relation adds nothing to summarize.  It is the live relations'
        versions plus a retired total kept for dropped relations.
        """
        return self._retired + sum(
            relation.version for relation in self._relations.values()
        )

    def total_records(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    # -- DML / query ---------------------------------------------------------

    def insert(self, relation_name: str, values: Mapping[str, object]) -> Record:
        return self.relation(relation_name).insert(values)

    def insert_many(
        self, relation_name: str, rows: Iterable[Mapping[str, object]]
    ) -> int:
        return self.relation(relation_name).insert_many(rows)

    def execute(self, query: SelectionQuery) -> List[Dict[str, object]]:
        """Evaluate a selection query against the local data.

        Descriptor predicates are evaluated through the background knowledge
        when one is attached (proper fuzzy matching); otherwise they fall back
        to crisp label comparison.
        """
        relation = self.relation(query.relation)
        bits = format(self._matching(relation, query.predicates), "b")
        matching = [
            record for record, bit in zip(relation, reversed(bits)) if bit == "1"
        ]
        if not query.select:
            return [record.as_dict() for record in matching]
        for attribute in query.select:
            if attribute not in relation.schema:
                raise QueryError(
                    f"projection attribute {attribute!r} not in relation "
                    f"{query.relation!r}"
                )
        return [
            {attribute: record[attribute] for attribute in query.select}
            for record in matching
        ]

    def count_matches(self, query: SelectionQuery) -> int:
        relation = self.relation(query.relation)
        return self._matching(relation, query.predicates).bit_count()

    def has_match(self, query: SelectionQuery) -> bool:
        """True when at least one local record satisfies the query.

        This is the peer-level ground truth for the query-scope set QS used by
        the false-positive / false-negative definitions in Section 5.2.1.
        """
        relation = self._relations.get(query.relation)
        if relation is None:
            return False
        return self._matching(relation, query.predicates) != 0

    # -- the predicate-mask index ---------------------------------------------

    def _matching(self, relation: Relation, predicates: Sequence[Predicate]) -> int:
        """The mask of ``relation``'s records that satisfy every predicate."""
        index = self._indexes.get(relation.name)
        if index is None or index[0] is not relation or index[1] != relation.version:
            index = (relation, relation.version, {})
            self._indexes[relation.name] = index
        masks = index[2]
        background = self._background
        matched = (1 << len(relation)) - 1
        for predicate in predicates:
            if not matched:
                break
            if background and isinstance(predicate, DescriptorPredicate):
                alpha_cut = predicate.alpha_cut
                held = 0
                for descriptor in predicate.descriptors:
                    key = (descriptor, alpha_cut)
                    mask = masks.get(key)
                    if mask is None:
                        if len(masks) >= self._mask_limit:
                            masks.clear()
                        mask = masks[key] = _graded_mask(
                            relation, background, descriptor, alpha_cut
                        )
                    held |= mask
            else:
                held = _mask(relation, predicate.matches)
            matched &= held
        return matched

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LocalDatabase(relations={self.relation_names})"


def _mask(relation: Relation, holds: Callable[[Record], bool]) -> int:
    """Bit ``i`` set when ``holds`` is true of the relation's ``i``-th record."""
    mask = 0
    for position, record in enumerate(relation):
        if holds(record):
            mask |= 1 << position
    return mask


def _graded_mask(
    relation: Relation,
    background: BackgroundKnowledge,
    descriptor: Descriptor,
    alpha_cut: float,
) -> int:
    """The records whose value ``descriptor`` grades above ``alpha_cut``.

    Bit ``i`` must equal ``DescriptorPredicate.matches_with_background`` of
    the ``i``-th record for a one-descriptor predicate at ``alpha_cut``.  A
    record holds exactly its schema's attributes, so an attribute the schema
    lacks matches no record and is never graded.
    """
    attribute = descriptor.attribute
    if attribute not in relation.schema:
        return 0
    grade = background.membership(descriptor).grade
    return _mask(relation, lambda record: grade(record[attribute]) > alpha_cut)
