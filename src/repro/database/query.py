"""Selection queries: crisp predicates and descriptor (flexible) predicates.

The paper processes simple selection queries of the form::

    select age from Patient
    where sex = 'female' and bmi < 19 and disease = 'anorexia'

A query is *reformulated* by replacing crisp predicates over summarized
attributes by sets of Background-Knowledge descriptors (e.g. ``bmi < 19``
becomes ``bmi in {underweight, normal}``), yielding a *flexible query* that
can be evaluated both against raw records and against summaries.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.exceptions import QueryError, StoreError
from repro.fuzzy.linguistic import Descriptor

_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate(abc.ABC):
    """A boolean condition over a single record."""

    @abc.abstractmethod
    def matches(self, record: Mapping[str, object]) -> bool:
        """Whether ``record`` satisfies the predicate."""

    @property
    @abc.abstractmethod
    def attribute(self) -> str:
        """The attribute this predicate constrains."""


@dataclass(frozen=True)
class Comparison(Predicate):
    """A crisp comparison ``attribute <op> value``."""

    attr: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(
                f"unsupported comparison operator {self.op!r} "
                f"(supported: {sorted(_COMPARATORS)})"
            )

    @property
    def attribute(self) -> str:
        return self.attr

    def matches(self, record: Mapping[str, object]) -> bool:
        if self.attr not in record:
            return False
        actual = record[self.attr]
        if actual is None:
            return False
        try:
            return _COMPARATORS[self.op](actual, self.value)
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.attr} {self.op} {self.value!r}"


@dataclass(frozen=True)
class AttributeIn(Predicate):
    """A crisp set-membership predicate ``attribute in {v1, v2, ...}``."""

    attr: str
    values: FrozenSet[object]

    def __init__(self, attr: str, values: Iterable[object]) -> None:
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise QueryError(f"empty IN-list for attribute {attr!r}")

    @property
    def attribute(self) -> str:
        return self.attr

    def matches(self, record: Mapping[str, object]) -> bool:
        return self.attr in record and record[self.attr] in self.values

    def __str__(self) -> str:
        rendered = ", ".join(sorted(map(repr, self.values)))
        return f"{self.attr} in {{{rendered}}}"


@dataclass(frozen=True)
class DescriptorPredicate(Predicate):
    """A flexible predicate: the attribute must match one of the descriptors.

    Against raw records the predicate holds when at least one descriptor gives
    the record's value a membership grade above ``alpha_cut``.  Against
    summaries it becomes one clause of the conjunctive proposition (Section
    5.2 of the paper).
    """

    attr: str
    descriptors: Tuple[Descriptor, ...]
    alpha_cut: float = 0.0

    def __init__(
        self,
        attr: str,
        descriptors: Iterable[Descriptor],
        alpha_cut: float = 0.0,
    ) -> None:
        descriptors = tuple(descriptors)
        if not descriptors:
            raise QueryError(f"empty descriptor set for attribute {attr!r}")
        mismatched = [d for d in descriptors if d.attribute != attr]
        if mismatched:
            raise QueryError(
                f"descriptors {mismatched} do not belong to attribute {attr!r}"
            )
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "descriptors", descriptors)
        object.__setattr__(self, "alpha_cut", alpha_cut)

    @property
    def attribute(self) -> str:
        return self.attr

    @property
    def labels(self) -> List[str]:
        return [descriptor.label for descriptor in self.descriptors]

    def matches(self, record: Mapping[str, object]) -> bool:
        # Raw-record evaluation needs the BK: the engine grades through it
        # exactly as :meth:`matches_with_background` does.  Without a BK, fall
        # back to a crisp label comparison which works for categorical
        # attributes whose labels equal their raw values.
        if self.attr not in record:
            return False
        return record[self.attr] in set(self.labels)

    def matches_with_background(
        self, record: Mapping[str, object], background: "BackgroundKnowledgeLike"
    ) -> bool:
        if self.attr not in record:
            return False
        value = record[self.attr]
        for descriptor in self.descriptors:
            if background.grade(descriptor, value) > self.alpha_cut:
                return True
        return False

    def __str__(self) -> str:
        labels = ", ".join(self.labels)
        return f"{self.attr} in {{{labels}}}"


class BackgroundKnowledgeLike(abc.ABC):
    """Protocol-like ABC: anything exposing ``grade(descriptor, value)``."""

    @abc.abstractmethod
    def grade(self, descriptor: Descriptor, value: object) -> float:
        ...


@dataclass(frozen=True)
class SelectionQuery:
    """A conjunctive selection query with a projection list.

    ``predicates`` are implicitly AND-ed; the projection ``select`` lists the
    attributes returned (empty means ``select *``).
    """

    relation: str
    predicates: Tuple[Predicate, ...] = field(default_factory=tuple)
    select: Tuple[str, ...] = field(default_factory=tuple)

    def __init__(
        self,
        relation: str,
        predicates: Sequence[Predicate] = (),
        select: Sequence[str] = (),
    ) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "predicates", tuple(predicates))
        object.__setattr__(self, "select", tuple(select))

    @property
    def constrained_attributes(self) -> List[str]:
        return [predicate.attribute for predicate in self.predicates]

    def is_flexible(self) -> bool:
        """True when every predicate is already a descriptor predicate."""
        return all(
            isinstance(predicate, DescriptorPredicate)
            for predicate in self.predicates
        )

    def descriptor_predicates(self) -> List[DescriptorPredicate]:
        return [
            predicate
            for predicate in self.predicates
            if isinstance(predicate, DescriptorPredicate)
        ]

    def matches(self, record: Mapping[str, object]) -> bool:
        return all(predicate.matches(record) for predicate in self.predicates)

    def __str__(self) -> str:
        projection = ", ".join(self.select) if self.select else "*"
        conditions = " and ".join(str(p) for p in self.predicates) or "true"
        return f"select {projection} from {self.relation} where {conditions}"


# -- the JSON payload of a query (checkpoints and the serve wire) ------------------


def _predicate_payload(predicate: Predicate) -> Dict[str, Any]:
    if isinstance(predicate, Comparison):
        return {"type": "comparison", "attr": predicate.attr, "op": predicate.op,
                "value": predicate.value}
    if isinstance(predicate, AttributeIn):
        return {
            "type": "in",
            "attr": predicate.attr,
            "values": sorted(predicate.values, key=repr),
        }
    if isinstance(predicate, DescriptorPredicate):
        return {
            "type": "descriptor",
            "attr": predicate.attr,
            "descriptors": [[d.attribute, d.label] for d in predicate.descriptors],
            "alpha_cut": predicate.alpha_cut,
        }
    raise StoreError(f"cannot checkpoint predicate type {type(predicate).__name__}")


def _predicate_from_payload(payload: Dict[str, Any]) -> Predicate:
    kind = payload["type"]
    if kind == "comparison":
        return Comparison(payload["attr"], payload["op"], payload["value"])
    if kind == "in":
        return AttributeIn(payload["attr"], payload["values"])
    if kind == "descriptor":
        return DescriptorPredicate(
            payload["attr"],
            [Descriptor(attribute, label) for attribute, label in payload["descriptors"]],
            alpha_cut=float(payload["alpha_cut"]),
        )
    raise StoreError(f"unknown checkpointed predicate type {kind!r}")


def query_payload(query: SelectionQuery) -> Dict[str, Any]:
    return {
        "relation": query.relation,
        "predicates": [_predicate_payload(p) for p in query.predicates],
        "select": list(query.select),
    }


def query_from_payload(payload: Dict[str, Any]) -> SelectionQuery:
    return SelectionQuery(
        payload["relation"],
        [_predicate_from_payload(p) for p in payload["predicates"]],
        payload["select"],
    )
