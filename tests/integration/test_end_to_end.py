"""End-to-end integration scenarios exercising the whole stack.

These tests run the complete story of the paper over a small network with
*real* data: peers own Patient databases, build local summaries, a superpeer
overlay forms domains and merges global summaries, queries are reformulated,
routed through summaries, answered approximately, and the system survives
churn and reconciliations.
"""

import pytest

from repro.core.approximate import answer_in_domain
from repro.core.config import ProtocolConfig
from repro.core.protocol import SummaryManagementSystem
from repro.core.routing import RoutingPolicy
from repro.database.query import Comparison, SelectionQuery
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import QueryWorkload, paper_example_query


@pytest.fixture(scope="module")
def deployed_system():
    """A 32-peer network with real databases, summaries and domains."""
    overlay = Overlay.generate(TopologyConfig(peer_count=32, seed=21))
    background = medical_background_knowledge()
    config = ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3)
    system = SummaryManagementSystem(
        overlay, config=config, background=background, seed=21
    )
    workload = MedicalWorkload(records_per_peer=8, matching_fraction=0.25, seed=21)
    databases = build_peer_databases(overlay.peer_ids, workload)
    system.attach_databases(databases)
    system.build_domains()
    return system, databases, background


class TestDeployment:
    def test_every_peer_summarized_its_database(self, deployed_system):
        system, databases, _background = deployed_system
        summaries = system.local_summaries()
        assert set(summaries) == set(databases)
        for peer_id, summary in summaries.items():
            assert summary.records_processed == databases[peer_id].total_records()
            assert summary.peer_extent() == {peer_id}

    def test_domains_cover_the_network(self, deployed_system):
        system, _databases, _background = deployed_system
        members = set(system.domains)
        for domain in system.domains.values():
            members |= set(domain.partner_ids)
        assert members == set(system.overlay.peer_ids)

    def test_global_summaries_describe_their_partners(self, deployed_system):
        system, _databases, _background = deployed_system
        for domain in system.domains.values():
            if not domain.partner_ids:
                continue
            assert domain.has_global_summary()
            assert set(domain.partner_ids) <= domain.coverage()


class TestQueryProcessingEndToEnd:
    def test_peer_localization_has_no_false_negatives(self, deployed_system):
        system, databases, _background = deployed_system
        query = paper_example_query()
        originator = next(iter(system.assignment))
        result = system.pose_query(originator, query=query)
        truly_matching = {
            peer_id for peer_id, db in databases.items() if db.has_match(query)
        }
        # Every matching partner peer is found (summaries add no false negatives).
        assert truly_matching - set(system.domains) <= result.responding_peers
        assert result.false_negative_rate == 0.0

    def test_summary_routing_contacts_fewer_peers_than_broadcast(self, deployed_system):
        system, _databases, _background = deployed_system
        query = paper_example_query()
        originator = next(iter(system.assignment))
        result = system.pose_query(originator, query=query)
        assert len(result.contacted_peers) < system.overlay.size

    def test_approximate_answer_matches_ground_truth_labels(self, deployed_system):
        system, databases, background = deployed_system
        query = paper_example_query()
        # Ground truth: ages of matching records across all databases.
        matching_ages = [
            row["age"]
            for db in databases.values()
            for row in db.execute(query)
        ]
        assert matching_ages  # the workload guarantees some matches
        domain = next(d for d in system.domains.values() if d.has_global_summary())
        answer = answer_in_domain(domain, query, background).answer
        if not answer.is_empty:
            labels = answer.merged_output()["age"]
            # Every label returned must describe at least one true matching age.
            age_variable = background.variable("age")
            for label in labels:
                assert any(
                    age_variable.grade(label, age) > 0 for age in matching_ages
                )

    def test_workload_queries_run_through_the_system(self, deployed_system):
        system, _databases, background = deployed_system
        workload = QueryWorkload(query_count=10, seed=3, background=background)
        originator = next(iter(system.assignment))
        for query in workload.generate():
            result = system.pose_query(originator, query=query, max_domains=2)
            assert result.total_messages >= 1

    def test_unsatisfiable_attribute_query_is_rejected(self, deployed_system):
        system, _databases, background = deployed_system
        domain = next(d for d in system.domains.values() if d.has_global_summary())
        query = SelectionQuery("patient", [Comparison("age", ">", 1000)])
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            answer_in_domain(domain, query, background)


class TestChurnEndToEnd:
    def test_system_survives_churn_and_reconciliation(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=40, seed=22))
        background = medical_background_knowledge()
        config = ProtocolConfig(superpeer_fraction=1 / 10, freshness_threshold=0.2)
        system = SummaryManagementSystem(
            overlay, config=config, background=background, seed=22
        )
        databases = build_peer_databases(
            overlay.peer_ids, MedicalWorkload(records_per_peer=5, seed=22)
        )
        system.attach_databases(databases)
        system.build_domains()

        system.schedule_churn(4 * 3600.0, graceful_fraction=0.8)
        system.run()

        # Domains are still internally consistent after churn.  (A domain may
        # temporarily keep a stale entry for a peer that re-joined elsewhere —
        # that is the paper's behaviour until the next reconciliation — but
        # every assignment must point to a live domain that lists the peer.)
        for sp_id, domain in system.domains.items():
            domain.validate()
        for peer_id, sp_id in system.assignment.items():
            assert sp_id in system.domains
            assert system.domains[sp_id].is_partner(peer_id)
        # Queries still work after churn.
        online_partners = [
            p
            for p, sp in system.assignment.items()
            if system.overlay.is_online(p) and sp in system.domains
        ]
        if online_partners:
            result = system.pose_query(online_partners[0], query=paper_example_query())
            assert result.total_messages >= 1
