"""Linguistic variables and descriptors.

A *linguistic variable* (Zadeh 1975) attaches a vocabulary of labelled fuzzy
sets to a relational attribute.  Each label is a :class:`Descriptor`; mapping a
raw value through the variable yields the set of descriptors that describe the
value together with their membership grades — e.g.
``age = 20  ->  {young: 0.7, adult: 0.3}``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.exceptions import BackgroundKnowledgeError
from repro.fuzzy.membership import MembershipFunction


class Descriptor(NamedTuple):
    """A linguistic label attached to an attribute, e.g. ``age:young``.

    Descriptors are the atoms of summary intents and of reformulated queries.
    They are identified by the ``(attribute, label)`` pair; the membership
    function lives in the owning :class:`LinguisticVariable`.

    A ``NamedTuple``: descriptors key every profile, cell key, grade map and
    intent of the summarization hot path, and a tuple hashes, compares and
    orders (by ``attribute``, then ``label``) in C.  ``hash(Descriptor(a, l))
    == hash((a, l))`` fixes the iteration order of every set of descriptors,
    and with it the order of every float fold over one.

    Warning: a descriptor equals its plain ``(attribute, label)`` tuple;
    never key one dict or set with both.
    """

    attribute: str
    label: str

    def __str__(self) -> str:
        return f"{self.attribute}:{self.label}"


class LinguisticVariable:
    """A named attribute together with its labelled membership functions."""

    def __init__(
        self,
        attribute: str,
        terms: Mapping[str, MembershipFunction],
    ) -> None:
        if not terms:
            raise BackgroundKnowledgeError(
                f"linguistic variable on {attribute!r} needs at least one term"
            )
        self._attribute = attribute
        self._terms: Dict[str, MembershipFunction] = dict(terms)

    @property
    def attribute(self) -> str:
        return self._attribute

    @property
    def labels(self) -> List[str]:
        """Labels in insertion order (the order of the partition)."""
        return list(self._terms)

    @property
    def descriptors(self) -> List[Descriptor]:
        return [Descriptor(self._attribute, label) for label in self._terms]

    def membership(self, label: str) -> MembershipFunction:
        try:
            return self._terms[label]
        except KeyError as exc:
            raise BackgroundKnowledgeError(
                f"unknown label {label!r} for attribute {self._attribute!r}"
            ) from exc

    def has_label(self, label: str) -> bool:
        return label in self._terms

    def grade(self, label: str, value: object) -> float:
        """Membership grade of ``value`` in the fuzzy set named ``label``."""
        return self.membership(label).grade(value)

    def fuzzify(
        self, value: object, threshold: float = 0.0
    ) -> Dict[Descriptor, float]:
        """Map a raw value to its descriptors with positive membership.

        Parameters
        ----------
        value:
            Raw attribute value from a database record.
        threshold:
            Minimum membership grade for a descriptor to be kept.  The default
            keeps every strictly positive grade, mirroring the paper.
        """
        result: Dict[Descriptor, float] = {}
        for label, function in self._terms.items():
            grade = function.grade(value)
            if grade > threshold:
                result[Descriptor(self._attribute, label)] = grade
        return result

    def best_label(self, value: object) -> Optional[str]:
        """Return the label with the highest membership grade, if any."""
        graded: List[Tuple[float, str]] = [
            (function.grade(value), label) for label, function in self._terms.items()
        ]
        grade, label = max(graded)
        return label if grade > 0.0 else None

    def __contains__(self, label: object) -> bool:
        return label in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterable[str]:
        return iter(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LinguisticVariable({self._attribute!r}, labels={self.labels})"
