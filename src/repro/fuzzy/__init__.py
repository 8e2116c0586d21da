"""Fuzzy-set substrate used by the SaintEtiQ summarization engine.

This package implements the small slice of Zadeh's fuzzy set theory that the
paper relies on:

* membership functions over numeric domains (:mod:`repro.fuzzy.membership`),
* linguistic variables and their descriptors (:mod:`repro.fuzzy.linguistic`),
* fuzzy partitions of an attribute domain (:mod:`repro.fuzzy.partition`),
* background knowledge, i.e. the per-attribute vocabulary used to map raw
  records to linguistic descriptors (:mod:`repro.fuzzy.background`),
* ready-made vocabularies such as the medical one used in the paper's running
  example (:mod:`repro.fuzzy.vocabularies`).

Each name loads on first use: ``import repro.fuzzy`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "background": "BackgroundKnowledge",
    "linguistic": "Descriptor LinguisticVariable",
    "membership": (
        "CrispSetMembership MembershipFunction TrapezoidalMembership"
        " TriangularMembership"
    ),
    "partition": "FuzzyPartition",
    "vocabularies": "medical_background_knowledge uniform_numeric_background_knowledge",
})

__all__ = [
    "MembershipFunction",
    "TrapezoidalMembership",
    "TriangularMembership",
    "CrispSetMembership",
    "Descriptor",
    "LinguisticVariable",
    "FuzzyPartition",
    "BackgroundKnowledge",
    "medical_background_knowledge",
    "uniform_numeric_background_knowledge",
]
