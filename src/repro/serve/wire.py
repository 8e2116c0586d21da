"""The JSON wire schema of the query service.

Every value the service returns is one of the session façade's typed results
(:class:`~repro.core.session.QueryAnswer`,
:class:`~repro.core.staleness.StalenessSnapshot`, ...).  The codec here is
*lossless for equality*: ``decode_answer(encode_answer(a)) == a`` holds for
every answer a session can produce, because sets/frozensets/tuples are
rebuilt with the exact element types the dataclasses carry.  That is what
lets a client assert byte-identity between a served answer and one computed
against a local restore of the same checkpoint.

Queries travel in the same shape the checkpoint layer files them under
(relation / typed predicates / projection), so the two serialization surfaces
cannot drift apart.

A routing result carries one :class:`~repro.core.routing.DomainQueryOutcome`
per visited domain (125 on a 2000-peer Table-3 network), so each travels as a
positional array rather than an object, naming each peer once where it can::

    [domain_id, relevant, contacted, responding, false_negatives, messages]

Every peer set is a sorted list, with two exceptions: ``contacted`` is
``null`` when it equals ``relevant``, and ``responding`` is ``null`` when it
equals ``contacted``.  The decoder rebuilds a ``null`` as a *copy* of the set
it stands for, never an alias, so every decoded set is its own object.
``false_positives`` is not sent at all: the outcome derives it as
``contacted - responding``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Set

from repro.core.routing import (
    DomainQueryOutcome,
    QueryRoutingResult,
    RoutingPolicy,
)
from repro.core.session import DegradationReport, QueryAnswer
from repro.core.staleness import StalenessSnapshot
from repro.exceptions import ServeError, StoreError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.database.query import SelectionQuery
    from repro.querying.aggregation import AnswerClass, ApproximateAnswer


# -- queries ----------------------------------------------------------------------


def encode_query(query: SelectionQuery) -> Dict[str, Any]:
    """A :class:`SelectionQuery` as a JSON-able payload (checkpoint shape)."""
    from repro.database.query import query_payload

    return query_payload(query)


def decode_query(payload: Dict[str, Any]) -> SelectionQuery:
    from repro.database.query import query_from_payload

    try:
        query = query_from_payload(payload)
    except (KeyError, TypeError, ValueError, StoreError) as exc:
        raise ServeError(f"malformed query payload: {exc}") from exc
    names = [query.relation, *query.select, *query.constrained_attributes]
    if any(type(name) is not str for name in names):
        raise ServeError("malformed query payload: every name must be a JSON string")
    return query


# -- routing ----------------------------------------------------------------------


def _encode_outcome(outcome: DomainQueryOutcome) -> List[Any]:
    relevant = outcome.relevant_peers
    contacted = outcome.contacted_peers
    responding = outcome.responding_peers
    return [
        outcome.domain_id,
        sorted(relevant),
        None if contacted == relevant else sorted(contacted),
        None if responding == contacted else sorted(responding),
        sorted(outcome.false_negatives),
        outcome.messages,
    ]


def _peer_set(peers: Any) -> Set[str]:
    if not isinstance(peers, list):
        raise TypeError(f"a peer set travels as a list, not {type(peers).__name__}")
    return set(peers)


def _decode_outcome(payload: List[Any]) -> DomainQueryOutcome:
    relevant = _peer_set(payload[1])
    contacted = set(relevant) if payload[2] is None else _peer_set(payload[2])
    responding = set(contacted) if payload[3] is None else _peer_set(payload[3])
    return DomainQueryOutcome(
        domain_id=payload[0],
        relevant_peers=relevant,
        contacted_peers=contacted,
        responding_peers=responding,
        false_negatives=_peer_set(payload[4]),
        messages=int(payload[5]),
    )


def encode_routing(routing: QueryRoutingResult) -> Dict[str, Any]:
    return {
        "query_id": routing.query_id,
        "originator": routing.originator,
        "policy": routing.policy.value,
        "domain_outcomes": [_encode_outcome(o) for o in routing.domain_outcomes],
        "flooding_messages": routing.flooding_messages,
        "total_messages": routing.total_messages,
        "required_results": routing.required_results,
        "unreachable_domains": list(routing.unreachable_domains),
        "unreachable_probe_messages": routing.unreachable_probe_messages,
    }


def decode_routing(payload: Dict[str, Any]) -> QueryRoutingResult:
    return QueryRoutingResult(
        query_id=int(payload["query_id"]),
        originator=payload["originator"],
        policy=RoutingPolicy(payload["policy"]),
        domain_outcomes=[_decode_outcome(o) for o in payload["domain_outcomes"]],
        flooding_messages=int(payload["flooding_messages"]),
        total_messages=int(payload["total_messages"]),
        required_results=(
            None
            if payload["required_results"] is None
            else int(payload["required_results"])
        ),
        unreachable_domains=list(payload["unreachable_domains"]),
        unreachable_probe_messages=int(payload["unreachable_probe_messages"]),
    )


# -- staleness --------------------------------------------------------------------


def encode_staleness(snapshot: StalenessSnapshot) -> Dict[str, Any]:
    return {
        "query_id": snapshot.query_id,
        "relevant_count": snapshot.relevant_count,
        "worst_false_positives": snapshot.worst_false_positives,
        "worst_false_negatives": snapshot.worst_false_negatives,
        "real_false_positives": snapshot.real_false_positives,
        "real_false_negatives": snapshot.real_false_negatives,
    }


def decode_staleness(payload: Dict[str, Any]) -> StalenessSnapshot:
    return StalenessSnapshot(
        query_id=int(payload["query_id"]),
        relevant_count=int(payload["relevant_count"]),
        worst_false_positives=int(payload["worst_false_positives"]),
        worst_false_negatives=int(payload["worst_false_negatives"]),
        real_false_positives=int(payload["real_false_positives"]),
        real_false_negatives=int(payload["real_false_negatives"]),
    )


# -- degradation ------------------------------------------------------------------


def encode_degradation(report: DegradationReport) -> Dict[str, Any]:
    return {
        "unreachable_domains": list(report.unreachable_domains),
        "stale_described": dict(report.stale_described),
        "probe_messages": report.probe_messages,
    }


def decode_degradation(payload: Dict[str, Any]) -> DegradationReport:
    return DegradationReport(
        unreachable_domains=list(payload["unreachable_domains"]),
        stale_described={
            domain_id: int(count)
            for domain_id, count in payload["stale_described"].items()
        },
        probe_messages=int(payload["probe_messages"]),
    )


# -- approximate answers ----------------------------------------------------------


def _encode_answer_class(answer_class: AnswerClass) -> Dict[str, Any]:
    return {
        "interpretation": [
            [attribute, sorted(labels)]
            for attribute, labels in answer_class.interpretation
        ],
        "output": [
            [attribute, sorted(labels)]
            for attribute, labels in sorted(answer_class.output.items())
        ],
        "tuple_count": answer_class.tuple_count,
    }


def encode_approximate(answer: ApproximateAnswer) -> Dict[str, Any]:
    return {
        "classes": [_encode_answer_class(c) for c in answer.classes],
        "select": list(answer.select),
    }


def decode_approximate(payload: Dict[str, Any]) -> ApproximateAnswer:
    from repro.querying.aggregation import AnswerClass, ApproximateAnswer

    return ApproximateAnswer(
        classes=[
            AnswerClass(
                interpretation=tuple(
                    (attribute, frozenset(labels))
                    for attribute, labels in c["interpretation"]
                ),
                output={
                    attribute: frozenset(labels) for attribute, labels in c["output"]
                },
                tuple_count=float(c["tuple_count"]),
            )
            for c in payload["classes"]
        ],
        select=tuple(payload["select"]),
    )


# -- the full QueryAnswer ---------------------------------------------------------


def encode_answer(answer: QueryAnswer) -> Dict[str, Any]:
    """One :class:`QueryAnswer` as a JSON-able payload."""
    return {
        "routing": encode_routing(answer.routing),
        "answer": (
            None if answer.answer is None else encode_approximate(answer.answer)
        ),
        "staleness": (
            None if answer.staleness is None else encode_staleness(answer.staleness)
        ),
        "degradation": (
            None
            if answer.degradation is None
            else encode_degradation(answer.degradation)
        ),
        "query_messages": answer.query_messages,
        "update_messages": answer.update_messages,
        "posed_at": answer.posed_at,
    }


def decode_answer(payload: Dict[str, Any]) -> QueryAnswer:
    """Rebuild the typed :class:`QueryAnswer` a server encoded.

    Equality with a locally produced answer holds field for field — the
    decoded value is built from the same dataclasses with the same element
    types (sets of peer ids, frozensets of labels, enum policies).
    """
    try:
        return QueryAnswer(
            routing=decode_routing(payload["routing"]),
            answer=(
                None
                if payload["answer"] is None
                else decode_approximate(payload["answer"])
            ),
            staleness=(
                None
                if payload["staleness"] is None
                else decode_staleness(payload["staleness"])
            ),
            degradation=(
                None
                if payload["degradation"] is None
                else decode_degradation(payload["degradation"])
            ),
            query_messages=int(payload["query_messages"]),
            update_messages=int(payload["update_messages"]),
            posed_at=float(payload["posed_at"]),
        )
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed answer payload: {exc}") from exc


def decode_answers(payloads: List[Dict[str, Any]]) -> List[QueryAnswer]:
    return [decode_answer(payload) for payload in payloads]
