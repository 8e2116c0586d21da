"""Background Knowledge (BK) — the user-provided vocabulary over attributes.

The Background Knowledge drives the SaintEtiQ mapping service: it decides
which attributes take part in the summarization and how raw values translate
into linguistic descriptors.  A *Common Background Knowledge* (CBK), shared by
all peers of a collaboration (e.g. SNOMED CT in a medical setting), makes the
summaries produced by different peers directly mergeable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import BackgroundKnowledgeError
from repro.fuzzy.linguistic import Descriptor, LinguisticVariable
from repro.fuzzy.membership import CrispSetMembership, MembershipFunction


class BackgroundKnowledge:
    """A set of linguistic variables, one per summarized attribute.

    The BK behaves like a read-only mapping from attribute name to
    :class:`LinguisticVariable`.  Attribute order is preserved and defines the
    dimension order of the multidimensional grid used by the mapping service.
    """

    def __init__(self, variables: Iterable[LinguisticVariable]) -> None:
        self._variables: Dict[str, LinguisticVariable] = {}
        for variable in variables:
            if variable.attribute in self._variables:
                raise BackgroundKnowledgeError(
                    f"duplicate linguistic variable for attribute "
                    f"{variable.attribute!r}"
                )
            self._variables[variable.attribute] = variable
        if not self._variables:
            raise BackgroundKnowledgeError(
                "background knowledge needs at least one linguistic variable"
            )

    # -- mapping-like access -------------------------------------------------

    @property
    def attributes(self) -> List[str]:
        """Attributes covered by this BK, in dimension order."""
        return list(self._variables)

    def variable(self, attribute: str) -> LinguisticVariable:
        try:
            return self._variables[attribute]
        except KeyError as exc:
            raise BackgroundKnowledgeError(
                f"attribute {attribute!r} is not described by the background "
                f"knowledge (known: {self.attributes})"
            ) from exc

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._variables

    def __len__(self) -> int:
        return len(self._variables)

    def __iter__(self):
        return iter(self._variables.values())

    # -- descriptor helpers --------------------------------------------------

    def descriptors(self, attribute: Optional[str] = None) -> List[Descriptor]:
        """All descriptors of one attribute, or of the whole BK."""
        if attribute is not None:
            return self.variable(attribute).descriptors
        result: List[Descriptor] = []
        for variable in self._variables.values():
            result.extend(variable.descriptors)
        return result

    def has_descriptor(self, descriptor: Descriptor) -> bool:
        return (
            descriptor.attribute in self._variables
            and self._variables[descriptor.attribute].has_label(descriptor.label)
        )

    def labels(self, attribute: str) -> List[str]:
        return self.variable(attribute).labels

    def membership(self, descriptor: Descriptor) -> MembershipFunction:
        """The fuzzy set a descriptor names."""
        return self.variable(descriptor.attribute).membership(descriptor.label)

    def grade(self, descriptor: Descriptor, value: object) -> float:
        """Membership grade of a raw value in a descriptor's fuzzy set."""
        return self.membership(descriptor).grade(value)

    def fuzzify_value(
        self, attribute: str, value: object, threshold: float = 0.0
    ) -> Dict[Descriptor, float]:
        """Fuzzify one attribute value into descriptor/grade pairs."""
        return self.variable(attribute).fuzzify(value, threshold=threshold)

    def fuzzify_record(
        self, record: Mapping[str, object], threshold: float = 0.0
    ) -> Dict[str, Dict[Descriptor, float]]:
        """Fuzzify every BK attribute present in ``record``.

        Attributes of the record that are not covered by the BK are ignored —
        they simply do not take part in the summarization (the paper keeps
        ``age`` and ``bmi`` and drops the rest in its running example only for
        exposition; categorical attributes can be covered with crisp sets).
        """
        mapped: Dict[str, Dict[Descriptor, float]] = {}
        for attribute in self.attributes:
            if attribute not in record:
                continue
            mapped[attribute] = self.fuzzify_value(
                attribute, record[attribute], threshold=threshold
            )
        return mapped

    def grid_size(self) -> int:
        """Number of cells of the full grid (product of vocabulary sizes).

        This bounds the number of leaves of any summary hierarchy built from
        this BK, which in turn bounds the size of a global summary (Section
        6.1.1 of the paper).
        """
        size = 1
        for variable in self._variables.values():
            size *= len(variable)
        return size

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_categorical(
        cls,
        categorical: Mapping[str, Iterable[object]],
    ) -> "BackgroundKnowledge":
        """Build a purely categorical BK: one crisp label per distinct value."""
        variables = []
        for attribute, values in categorical.items():
            terms = {str(value): CrispSetMembership([value]) for value in values}
            variables.append(LinguisticVariable(attribute, terms))
        return cls(variables)

    def merged_with(self, other: "BackgroundKnowledge") -> "BackgroundKnowledge":
        """Combine two BKs over disjoint attribute sets into one."""
        overlap = set(self.attributes) & set(other.attributes)
        if overlap:
            raise BackgroundKnowledgeError(
                f"cannot merge background knowledges sharing attributes {overlap}"
            )
        return BackgroundKnowledge(list(self) + list(other))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BackgroundKnowledge(attributes={self.attributes})"


def common_background_knowledge(
    *backgrounds: BackgroundKnowledge,
) -> Tuple[bool, List[str]]:
    """Check whether several peers' BKs agree (i.e. form a CBK).

    Returns ``(True, [])`` when every BK exposes the same attributes with the
    same labels, and ``(False, reasons)`` otherwise.  The paper assumes a CBK;
    this helper lets integration code assert the assumption explicitly.
    """
    if not backgrounds:
        return True, []
    reference = backgrounds[0]
    reasons: List[str] = []
    for index, candidate in enumerate(backgrounds[1:], start=1):
        if candidate.attributes != reference.attributes:
            reasons.append(
                f"BK #{index} attributes {candidate.attributes} differ from "
                f"{reference.attributes}"
            )
            continue
        for attribute in reference.attributes:
            if candidate.labels(attribute) != reference.labels(attribute):
                reasons.append(
                    f"BK #{index} labels for {attribute!r} differ: "
                    f"{candidate.labels(attribute)} vs {reference.labels(attribute)}"
                )
    return (not reasons), reasons
