"""The fixed query flows behind ``golden_query_engine.json``.

Every protocol-visible outcome of the query path — routing sets, message
counts, flooding figures, staleness snapshots, approximate answers — is
pinned by an oracle, not by a retained slow path: each flow below was run
once, posing its queries one by one, on the last commit that could still
answer without the indexed selection, the tracked online set, the
set-intersection matching and the flooding-cost memo, and its answers hashed.
The hash is over :func:`answer_record`: the wire encoding of an answer, except
that each domain outcome is this module's own 7-key object (every peer set
spelled out, ``false_positives`` included), as it was when the digests were
recorded, so the served outcome's compact array shape is free to change.  ``test_query_engine_equivalence.py`` holds
the batched path of every later commit to those digests.  The ``table3/``
flows came later: recorded on the last commit that routed a query through
one call per domain step, they pin the query path at Table-3 scale (mutable,
batched and read-only) and the ordered fault draws of a lossy network.
Running this module records the flows the fixture lacks and leaves every
recorded digest alone; delete the fixture first only for a deliberate
protocol change::

    PYTHONPATH=src python tests/integration/golden_query_engine.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.core.routing import DomainQueryOutcome, QueryRequest, RoutingPolicy
from repro.core.session import NetworkSession, QueryAnswer, SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.serialization import content_hash
from repro.serve.wire import encode_answer, encode_staleness
from repro.store.backend import InMemoryBackend
from repro.store.checkpoint import open_readonly_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query
from repro.workloads.registry import default_registry

FIXTURE = Path(__file__).with_name("golden_query_engine.json")


def _counters(session: NetworkSession) -> Dict[str, int]:
    """``counter.by_type()``, keyed by the message types' wire names."""
    return session.system.counter.state_payload()["by_type"]


def _outcome_record(outcome: DomainQueryOutcome) -> Dict[str, Any]:
    return {
        "domain_id": outcome.domain_id,
        "relevant_peers": sorted(outcome.relevant_peers),
        "contacted_peers": sorted(outcome.contacted_peers),
        "responding_peers": sorted(outcome.responding_peers),
        "false_positives": sorted(outcome.false_positives),
        "false_negatives": sorted(outcome.false_negatives),
        "messages": outcome.messages,
    }


def answer_record(answer: QueryAnswer) -> Dict[str, Any]:
    """The hashed form of one answer: every domain outcome as a 7-key object."""
    record = encode_answer(answer)
    record["routing"]["domain_outcomes"] = [
        _outcome_record(outcome) for outcome in answer.routing.domain_outcomes
    ]
    return record


def _answers_record(
    session: NetworkSession, answers: List[QueryAnswer]
) -> Dict[str, Any]:
    counters = _counters(session)
    encoded = [answer_record(answer) for answer in answers]
    return {
        "sha256": content_hash({"answers": encoded, "counters": counters}),
        "queries": len(answers),
        "results": sum(answer.results for answer in answers),
        "total_messages": sum(answer.total_messages for answer in answers),
        "flooding_messages": sum(a.routing.flooding_messages for a in answers),
        "counted_messages": sum(counters.values()),
    }


def maintenance_flow(seed: int) -> Dict[str, Any]:
    """The fig4/fig5 miniature: one 32-peer domain, 2 h of churn, sampled."""
    scenario = default_registry().scenario(
        "maintenance", peer_count=32, duration_seconds=2 * 3600.0, seed=seed
    )
    session = scenario.apply_dynamics(scenario.single_domain_builder()).build()
    snapshots = []
    time = 1200.0
    while time <= 2 * 3600.0:
        session.run_until(time)
        snapshots.extend(session.staleness_batch(3))
        time += 1200.0
    counters = _counters(session)
    push_messages = session.maintenance_report().push_messages
    return {
        "sha256": content_hash(
            {
                "staleness": [encode_staleness(snapshot) for snapshot in snapshots],
                "counters": counters,
                "push_messages": push_messages,
            }
        ),
        "snapshots": len(snapshots),
        "relevant": sum(snapshot.relevant_count for snapshot in snapshots),
        "worst_false_positives": sum(s.worst_false_positives for s in snapshots),
        "real_false_positives": sum(s.real_false_positives for s in snapshots),
        "push_messages": push_messages,
        "counted_messages": sum(counters.values()),
    }


def query_cost_flow(seed: int) -> Dict[str, Any]:
    """The fig7 miniature: 64 peers, ten queries each needing 10 % of them."""
    session = default_registry().scenario(
        "query-cost", peer_count=64, seed=seed
    ).session()
    originators = session.partner_ids()
    requests = [
        QueryRequest(
            originator=originators[(7 * index) % len(originators)],
            query_id=session.next_query_id(),
            policy=RoutingPolicy.ALL,
            required_results=max(1, round(0.1 * 64)),
        )
        for index in range(10)
    ]
    answers = session.query_batch(requests=requests, include_staleness=False)
    return _answers_record(session, answers)


def planned_churn_flow(seed: int) -> Dict[str, Any]:
    """Planned content under churn: routing and staleness after 30 min."""
    session = (
        SystemBuilder()
        .topology(peer_count=64, average_degree=4)
        .planned_content(hit_rate=0.1)
        .seed(seed)
        .churn(duration_seconds=2 * 3600.0)
        .build()
    )
    session.run_until(1800.0)
    return _answers_record(session, session.query_batch(count=6, required_results=3))


def real_content_flow(seed: int) -> Dict[str, Any]:
    """Real summaries: hierarchy selection, routing and the approximate answer."""
    overlay = Overlay.generate(
        TopologyConfig(peer_count=16, average_degree=4, seed=seed)
    )
    workload = MedicalWorkload(records_per_peer=8, matching_fraction=0.25, seed=seed)
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(medical_background_knowledge())
        .protocol(superpeer_fraction=1 / 8, construction_ttl=3)
        .real_content(build_peer_databases(overlay.peer_ids, workload))
        .seed(seed)
        .build()
    )
    answers = session.query_batch(queries=[paper_example_query()] * 3)
    return _answers_record(session, answers)


#: The Table-3 flows' per-request ``required_results``: one domain may do,
#: a few may, the hit rate (10 % of 500 peers) is rarely reached, none given.
TABLE3_REQUIRED = (5, 20, 50, None)


def _table3_requests(session: NetworkSession) -> List[QueryRequest]:
    """8 requests under each policy, then one capped at three domains."""
    originators = session.partner_ids()
    requests = [
        QueryRequest(
            originator=originators[(11 * index) % len(originators)],
            policy=policy,
            required_results=TABLE3_REQUIRED[index % len(TABLE3_REQUIRED)],
        )
        for policy in RoutingPolicy
        for index in range(8)
    ]
    requests.append(QueryRequest(originator=originators[1], max_domains=3))
    return requests


def _table3_session(name: str, seed: int) -> NetworkSession:
    """``name`` with its churn and modifications, run for 1 h."""
    scenario = default_registry().scenario(name, seed=seed)
    session = scenario.apply_dynamics(scenario.builder()).build()
    session.run_until(3600.0)
    return session


def table3_flow(seed: int, path: str) -> Dict[str, Any]:
    """Table 3 at 500 peers after 1 h of churn and modifications: the
    requests of :func:`_table3_requests` posed one by one on the session
    (``mutable``), as one ``query_batch`` (``batch``), or one by one on a
    read-only open of its checkpoint (``readonly``)."""
    session = _table3_session("table3-default", seed)
    requests = _table3_requests(session)
    if path == "batch":
        return _answers_record(session, session.query_batch(requests=requests))
    if path == "mutable":
        return _answers_record(session, [_pose(session, r) for r in requests])
    backend = InMemoryBackend()
    session.checkpoint(backend, "tip")
    with open_readonly_session(backend, "tip") as readonly:
        return _answers_record(readonly, [_pose(readonly, r) for r in requests])


def lossy_flow(seed: int) -> Dict[str, Any]:
    """The ``lossy-network`` scenario after 1 h: every query hop may be
    dropped and retried, so the fault draws must stay in order."""
    session = _table3_session("lossy-network", seed)
    return _answers_record(
        session, session.query_batch(requests=_table3_requests(session))
    )


def _pose(session: NetworkSession, request: QueryRequest) -> QueryAnswer:
    return session.query(
        request.originator,
        policy=request.policy,
        required_results=request.required_results,
        max_domains=request.max_domains,
    )


FLOWS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "fig4-5/maintenance-32/seed-0": lambda: maintenance_flow(0),
    "fig4-5/maintenance-32/seed-9": lambda: maintenance_flow(9),
    "fig7/query-cost-64/seed-0": lambda: query_cost_flow(0),
    "fig7/query-cost-64/seed-5": lambda: query_cost_flow(5),
    "batch/planned-churn-64/seed-0": lambda: planned_churn_flow(0),
    "batch/planned-churn-64/seed-13": lambda: planned_churn_flow(13),
    "batch/real-content-16/seed-8": lambda: real_content_flow(8),
    "table3/default-500/seed-0/mutable": lambda: table3_flow(0, "mutable"),
    "table3/default-500/seed-0/batch": lambda: table3_flow(0, "batch"),
    "table3/default-500/seed-0/readonly": lambda: table3_flow(0, "readonly"),
    "table3/lossy-network-96/seed-4": lambda: lossy_flow(4),
}


if __name__ == "__main__":
    recorded = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    # Only missing flows are recorded: an existing digest is never rewritten.
    recorded.update(
        {name: flow() for name, flow in FLOWS.items() if name not in recorded}
    )
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
