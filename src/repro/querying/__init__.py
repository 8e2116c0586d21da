"""Summary querying: evaluating flexible queries against summary hierarchies.

This package implements Section 5 of the paper (and the FQAS 2004 work it
references):

* *query reformulation* — rewriting crisp selection predicates into
  Background-Knowledge descriptors (:mod:`repro.querying.reformulation`),
* the *conjunctive proposition* form of a flexible query
  (:mod:`repro.querying.proposition`),
* the *valuation function* qualifying the link between a summary and the
  query (:mod:`repro.querying.valuation`),
* the *selection algorithm* returning the most abstract summaries that
  satisfy the query (:mod:`repro.querying.selection`),
* the *indexed query engine* answering repeated selections from an inverted
  descriptor index, byte-identically to the pure walk
  (:mod:`repro.querying.engine`),
* *approximate answering* by aggregating the selected summaries into
  interpretation classes (:mod:`repro.querying.aggregation`).

Each name loads on first use: ``import repro.querying`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "aggregation": "ApproximateAnswer approximate_answer",
    "engine": "HierarchyQueryIndex proposition_key",
    "proposition": "Clause Proposition",
    "reformulation": "reformulate",
    "selection": "QuerySelection select_summaries",
    "valuation": "Valuation valuate",
})

__all__ = [
    "reformulate",
    "Clause",
    "Proposition",
    "Valuation",
    "valuate",
    "QuerySelection",
    "select_summaries",
    "HierarchyQueryIndex",
    "proposition_key",
    "ApproximateAnswer",
    "approximate_answer",
]
