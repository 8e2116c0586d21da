"""Batched querying: byte-identical to the sequential per-query path.

The acceptance bar of the batch entry points: ``query_batch`` and
``staleness_batch`` must produce exactly what one-by-one ``query()`` /
``staleness()`` calls produce on a twin session — same routing sets, query
ids, message counters, staleness figures and RNG evolution.  (That the
indexed path is indistinguishable from unindexed, full-scan answering is held
by the recorded digests of
``tests/integration/test_query_engine_equivalence.py``.)
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.routing import QueryRequest, RoutingPolicy
from repro.core.session import NetworkSession, SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query


def _planned_session(seed: int = 3, peer_count: int = 64, churn: bool = False):
    builder = (
        SystemBuilder()
        .topology(peer_count=peer_count, average_degree=4)
        .planned_content(hit_rate=0.1)
        .seed(seed)
    )
    if churn:
        builder = builder.churn(duration_seconds=2 * 3600.0)
    return builder.build()


def _real_session(seed: int = 5, peer_count: int = 16):
    background = medical_background_knowledge()
    overlay = Overlay.generate(
        TopologyConfig(peer_count=peer_count, average_degree=4, seed=seed)
    )
    workload = MedicalWorkload(records_per_peer=8, matching_fraction=0.25, seed=seed)
    databases = build_peer_databases(overlay.peer_ids, workload)
    return (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(superpeer_fraction=1 / 8, construction_ttl=3)
        .real_content(databases)
        .seed(seed)
        .build()
    )


class TestBatchEqualsOneByOne:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_batched_matches_sequential_planned(self, seed):
        batched = _planned_session(seed=seed)
        sequential = _planned_session(seed=seed)
        originators = batched.partner_ids()[:6]
        requests = [
            QueryRequest(originator=originator, required_results=required)
            for originator in originators
            for required in (None, 3)
        ]

        batch_answers = batched.query_batch(requests=requests)
        seq_answers = [
            sequential.query(
                request.originator, required_results=request.required_results
            )
            for request in requests
        ]
        assert batch_answers == seq_answers
        assert (
            batched.system.counter.by_type() == sequential.system.counter.by_type()
        ), "message accounting diverged between batched and sequential posing"
        # Follow-up state is indistinguishable too.
        assert batched.staleness() == sequential.staleness()

    def test_mixed_policies_and_limits(self):
        batched = _planned_session(seed=11)
        sequential = _planned_session(seed=11)
        partner = batched.partner_ids()[0]
        requests = [
            QueryRequest(originator=partner, policy=RoutingPolicy.ALL),
            QueryRequest(originator=partner, policy=RoutingPolicy.PRECISION),
            QueryRequest(originator=partner, policy=RoutingPolicy.RECALL, max_domains=1),
        ]
        batch_answers = batched.query_batch(requests=requests)
        seq_answers = [
            sequential.query(
                request.originator,
                policy=request.policy,
                max_domains=request.max_domains,
            )
            for request in requests
        ]
        assert batch_answers == seq_answers


class TestQueryBatchFacade:
    def test_query_batch_cycles_originators_like_one_by_one_queries(self):
        batched = _planned_session(seed=9)
        sequential = _planned_session(seed=9)
        pool = sequential.partner_ids()
        a = batched.query_batch(count=8, required_results=2)
        b = [
            sequential.query(pool[index % len(pool)], required_results=2)
            for index in range(8)
        ]
        assert a == b
        assert (
            batched.system.counter.state_payload()
            == sequential.system.counter.state_payload()
        )

    def test_query_batch_with_explicit_requests(self):
        batched = _planned_session(seed=4)
        sequential = _planned_session(seed=4)
        partners = batched.partner_ids()[:3]
        requests = [
            QueryRequest(originator=partner, required_results=2)
            for partner in partners
        ]
        a = batched.query_batch(requests=requests)
        b = [
            sequential.query(partner, required_results=2) for partner in partners
        ]
        assert [answer.routing for answer in a] == [answer.routing for answer in b]
        assert [answer.staleness for answer in a] == [answer.staleness for answer in b]

    def test_requests_and_count_are_mutually_exclusive(self):
        from repro.exceptions import ConfigurationError

        session = _planned_session(seed=1)
        with pytest.raises(ConfigurationError):
            session.query_batch(
                count=3,
                requests=[QueryRequest(originator=session.default_originator())],
            )

    def test_query_batch_real_content_answers(self):
        batched = _real_session(seed=5)
        sequential = _real_session(seed=5)
        query = paper_example_query()
        pool = sequential.partner_ids()
        a = batched.query_batch(queries=[query, query])
        b = [sequential.query(pool[index], query=query) for index in range(2)]
        assert [answer.routing for answer in a] == [answer.routing for answer in b]
        for answer_a, answer_b in zip(a, b):
            if answer_a.answer is None:
                assert answer_b.answer is None
            else:
                assert answer_a.answer.classes == answer_b.answer.classes


class TestStalenessBatch:
    def test_staleness_batch_matches_sequential(self):
        batched = _planned_session(seed=17, churn=True)
        sequential = _planned_session(seed=17, churn=True)
        batched.run_until(3600.0)
        sequential.run_until(3600.0)
        assert batched.staleness_batch(4) == [
            sequential.staleness() for _ in range(4)
        ]
        # Query-id allocation advanced identically.
        assert batched.next_query_id() == sequential.next_query_id()

    def test_staleness_batch_requires_planned_content(self):
        from repro.exceptions import ProtocolError

        session = _real_session()
        with pytest.raises(ProtocolError):
            session.staleness_batch(2)


class TestLegacyConstructionUnaffected:
    def test_raw_system_query_batch(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=32, seed=7))
        from repro.core.protocol import SummaryManagementSystem

        system = SummaryManagementSystem(overlay, config=ProtocolConfig(), seed=7)
        system.use_planned_content(matching_fraction=0.1, seed=7)
        system.build_domains()
        partner = next(p for p in overlay.peer_ids if p not in system.domains)
        answers = NetworkSession(system).query_batch(
            requests=[QueryRequest(originator=partner), QueryRequest(originator=partner)]
        )
        assert [answer.query_id for answer in answers] == [0, 1]
