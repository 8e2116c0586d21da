"""Merging of summary hierarchies.

The paper builds a domain's *global summary* by merging its partners' local
summaries.  Following the method it cites (Bechchi, Raschia & Mouaddib,
CIKM 2007), ``Merging(S1, S2)`` incorporates the leaves ``L_z`` of hierarchy
``S1`` into hierarchy ``S2`` using the ordinary summarization service — so the
merge cost depends on the number of leaves of ``S1`` (bounded by the grid size
of the common background knowledge) and not on the number of raw tuples.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.exceptions import SummaryError
from repro.fuzzy.background import common_background_knowledge
from repro.saintetiq.clustering import ClusteringParameters
from repro.saintetiq.hierarchy import SummaryHierarchy


def merge_into(target: SummaryHierarchy, source: SummaryHierarchy) -> int:
    """Incorporate ``source``'s leaf cells into ``target`` (in place).

    Returns the number of leaf cells incorporated.  Both hierarchies must have
    been built over the same (common) background knowledge and attribute set —
    the CBK assumption of Section 4.1.
    """
    compatible, reasons = common_background_knowledge(
        target.background, source.background
    )
    if not compatible:
        raise SummaryError(
            "cannot merge hierarchies built over different background "
            f"knowledges: {reasons}"
        )
    if target.attributes != source.attributes:
        raise SummaryError(
            "cannot merge hierarchies summarizing different attribute sets: "
            f"{target.attributes} vs {source.attributes}"
        )
    return target.incorporate_cells(source.iter_leaf_cells())


def merge_hierarchies(
    hierarchies: Iterable[SummaryHierarchy],
    parameters: Optional[ClusteringParameters] = None,
    owner: Optional[str] = None,
) -> SummaryHierarchy:
    """Merge several local summaries into a fresh global summary.

    The first hierarchy provides the background knowledge and attribute set;
    every subsequent one is merged leaf-by-leaf.  The inputs are left
    untouched (a cell is copied when its key is new to the merged summary).
    """
    iterator = iter(hierarchies)
    try:
        first = next(iterator)
    except StopIteration as exc:
        raise SummaryError("merge_hierarchies needs at least one hierarchy") from exc

    merged = SummaryHierarchy(
        first.background,
        attributes=first.attributes,
        parameters=parameters,
        owner=owner,
    )
    merge_into(merged, first)
    for hierarchy in iterator:
        merge_into(merged, hierarchy)
    return merged
