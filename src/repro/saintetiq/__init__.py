"""SaintEtiQ-style database summarization engine.

This package re-implements, in Python, the summarization substrate the paper
builds on (Raschia & Mouaddib 2002; Saint-Paul, Raschia & Mouaddib, VLDB 2005):

* the *mapping service* that translates raw records into fuzzy grid cells
  (:mod:`repro.saintetiq.mapping`, :mod:`repro.saintetiq.cell`),
* *summaries* — hyperrectangles of the descriptor grid with an intent, an
  extent (record/cell coverage and statistics) and, in the P2P extension, a
  *peer-extent* (:mod:`repro.saintetiq.summary`,
  :mod:`repro.saintetiq.stats`),
* the *summarization service* — an incremental, Cobweb-style conceptual
  clustering that arranges summaries in a tree
  (:mod:`repro.saintetiq.hierarchy`, :mod:`repro.saintetiq.clustering`),
* the *merging* of two hierarchies used when building a domain's global
  summary (:mod:`repro.saintetiq.merging`).

Each name loads on first use: ``import repro.saintetiq`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cell": "Cell CellKey",
    "clustering": "ClusteringParameters SummaryBuilder",
    "hierarchy": "SummaryHierarchy",
    "mapping": "MappingService",
    "merging": "merge_hierarchies",
    "serialization": (
        "encoded_size_bytes hierarchy_from_dict hierarchy_from_json hierarchy_to_dict"
        " hierarchy_to_json"
    ),
    "stats": "AttributeStatistics",
    "summary": "Summary",
})

__all__ = [
    "Cell",
    "CellKey",
    "MappingService",
    "Summary",
    "AttributeStatistics",
    "SummaryHierarchy",
    "SummaryBuilder",
    "ClusteringParameters",
    "merge_hierarchies",
    "hierarchy_to_dict",
    "hierarchy_from_dict",
    "hierarchy_to_json",
    "hierarchy_from_json",
    "encoded_size_bytes",
]
