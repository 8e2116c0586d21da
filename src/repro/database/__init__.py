"""In-memory relational substrate: the "peer DBMS" of the paper.

Each peer of the P2P system owns a small relational database.  This package
provides the minimal but complete machinery the reproduction needs:

* schemas and typed relations (:mod:`repro.database.schema`,
  :mod:`repro.database.table`),
* a selection-query AST with crisp and descriptor predicates
  (:mod:`repro.database.query`),
* a local evaluation engine (:mod:`repro.database.engine`),
* synthetic data generation for the experiments
  (:mod:`repro.database.generator`).

Each name loads on first use: ``import repro.database`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "engine": "LocalDatabase",
    "generator": "PatientGenerator",
    "query": "AttributeIn Comparison DescriptorPredicate Predicate SelectionQuery",
    "schema": "Attribute AttributeType Schema",
    "table": "Record Relation",
})

__all__ = [
    "Attribute",
    "AttributeType",
    "Schema",
    "Record",
    "Relation",
    "Predicate",
    "Comparison",
    "AttributeIn",
    "DescriptorPredicate",
    "SelectionQuery",
    "LocalDatabase",
    "PatientGenerator",
]
