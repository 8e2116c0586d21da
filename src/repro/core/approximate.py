"""Approximate answering at the domain level.

The distinctive second use of summaries (Section 5.2.2): a query posed to a
summary peer can be answered entirely from the domain's global summary,
without touching any raw record.  The answer is a set of interpretation
classes whose output descriptors characterise the selected data, e.g. *"all
female patients diagnosed with anorexia and having an underweight or normal
BMI are young"*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.domain import Domain
from repro.database.query import SelectionQuery
from repro.exceptions import ProtocolError, QueryError
from repro.fuzzy.background import BackgroundKnowledge
from repro.querying.aggregation import ApproximateAnswer, approximate_answer
from repro.querying.proposition import Proposition
from repro.querying.reformulation import reformulate
from repro.querying.selection import QuerySelection


@dataclass
class DomainAnswer:
    """An approximate answer together with the underlying selection."""

    domain_id: str
    flexible_query: SelectionQuery
    proposition: Proposition
    selection: QuerySelection
    answer: ApproximateAnswer

    @property
    def relevant_peers(self) -> set:
        """Peer localization output ``P_Q`` for the same query."""
        return self.selection.peer_extent()

    @property
    def estimated_matching_records(self) -> float:
        return self.selection.matching_tuple_count()


def flexible_form(
    query: SelectionQuery, background: BackgroundKnowledge
) -> Tuple[SelectionQuery, Optional[Proposition]]:
    """``query`` reformulated under ``background``, and its proposition when
    every predicate became a descriptor predicate (how a query is registered)."""
    flexible = reformulate(query, background)
    if not flexible.is_flexible():
        return flexible, None
    return flexible, Proposition.from_query(
        SelectionQuery(flexible.relation, flexible.descriptor_predicates(), flexible.select)
    )


def answer_in_domain(
    domain: Domain,
    query: SelectionQuery,
    background: BackgroundKnowledge,
    already_flexible: bool = False,
) -> DomainAnswer:
    """Evaluate ``query`` against ``domain``'s global summary.

    Raises :class:`ProtocolError` if the domain has no global summary yet and
    :class:`QueryError` if the query cannot be reformulated under ``background``.
    The selection comes from the hierarchy's indexed, memoized
    :meth:`~repro.saintetiq.hierarchy.SummaryHierarchy.select`, so the
    returned ``selection`` is a shared cached instance (treat it as read-only).
    """
    if not domain.has_global_summary():
        raise ProtocolError(
            f"domain {domain.summary_peer_id!r} has no global summary to query"
        )
    flexible = query if already_flexible else reformulate(query, background)
    if not flexible.is_flexible():
        unhandled = [
            predicate
            for predicate in flexible.predicates
            if predicate.attribute not in background
        ]
        if unhandled:
            raise QueryError(
                "the query constrains attributes the background knowledge does "
                f"not describe: {[p.attribute for p in unhandled]}"
            )
    proposition = Proposition.from_query(
        SelectionQuery(
            flexible.relation,
            flexible.descriptor_predicates(),
            flexible.select,
        )
    )
    assert domain.global_summary is not None  # has_global_summary() checked above
    selection = domain.global_summary.select(proposition)
    answer = approximate_answer(selection, proposition, flexible.select)
    return DomainAnswer(
        domain_id=domain.summary_peer_id,
        flexible_query=flexible,
        proposition=proposition,
        selection=selection,
        answer=answer,
    )


def localize_peers(
    domain: Domain,
    query: SelectionQuery,
    background: BackgroundKnowledge,
    already_flexible: bool = False,
) -> set:
    """Peer localization only: the set ``P_Q`` of relevant peers for ``query``."""
    return answer_in_domain(
        domain, query, background, already_flexible=already_flexible
    ).relevant_peers


def answer_across_domains(
    domains,
    query: SelectionQuery,
    background: BackgroundKnowledge,
) -> Optional[ApproximateAnswer]:
    """Merge the approximate answers of several domains into one.

    Domains without a global summary are skipped; returns None when no domain
    could answer.
    """
    merged: Optional[ApproximateAnswer] = None
    for domain in domains:
        if not domain.has_global_summary():
            continue
        result = answer_in_domain(domain, query, background)
        if merged is None:
            merged = result.answer
        else:
            merged.classes.extend(result.answer.classes)
    return merged
