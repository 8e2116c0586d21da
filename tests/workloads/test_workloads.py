"""Unit tests for workload and scenario generation."""

import pytest

from repro.database.query import DescriptorPredicate
from repro.exceptions import ConfigurationError
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import (
    QueryWorkload,
    paper_example_flexible_query,
    paper_example_query,
)
from repro.workloads.scenarios import (
    DEFAULT_ALPHAS,
    DEFAULT_DOMAIN_SIZES,
    SimulationScenario,
    table3_parameters,
)


class TestMedicalWorkload:
    def test_matching_fraction_respected(self, background):
        peers = [f"p{i}" for i in range(20)]
        workload = MedicalWorkload(records_per_peer=5, matching_fraction=0.2, seed=1)
        databases = build_peer_databases(peers, workload)
        query = paper_example_query()
        matching = [p for p in peers if databases[p].has_match(query)]
        assert len(matching) == 4

    def test_explicit_matching_peers(self):
        peers = [f"p{i}" for i in range(10)]
        databases = build_peer_databases(
            peers, MedicalWorkload(records_per_peer=4), matching_peers=["p3", "p7"]
        )
        query = paper_example_query()
        matching = {p for p in peers if databases[p].has_match(query)}
        assert matching == {"p3", "p7"}

    def test_every_peer_gets_requested_record_count(self):
        peers = ["a", "b", "c"]
        databases = build_peer_databases(peers, MedicalWorkload(records_per_peer=7))
        assert all(db.total_records() == 7 for db in databases.values())


class TestQueryWorkload:
    def test_paper_example_queries(self):
        crisp = paper_example_query()
        flexible = paper_example_flexible_query()
        assert crisp.relation == "patient"
        assert crisp.select == ("age",)
        assert flexible.is_flexible()
        assert {p.attribute for p in flexible.predicates} == {"sex", "bmi", "disease"}

    def test_generate_count(self):
        workload = QueryWorkload(query_count=25, seed=1)
        queries = workload.generate()
        assert len(queries) == 25

    def test_queries_are_flexible_and_well_formed(self, background):
        workload = QueryWorkload(query_count=30, seed=2, background=background)
        for query in workload.generate():
            assert query.is_flexible()
            assert 1 <= len(query.predicates) <= 3
            assert len(query.select) == 1
            for predicate in query.predicates:
                assert isinstance(predicate, DescriptorPredicate)
                for descriptor in predicate.descriptors:
                    assert background.has_descriptor(descriptor)

    def test_reproducible_with_seed(self):
        first = [str(q) for q in QueryWorkload(query_count=10, seed=5).generate()]
        second = [str(q) for q in QueryWorkload(query_count=10, seed=5).generate()]
        assert first == second

    def test_invalid_predicate_bounds_raise(self):
        with pytest.raises(ValueError):
            QueryWorkload(min_predicates=3, max_predicates=2)

    def test_query_rate_matches_table3(self):
        assert QueryWorkload().query_rate_per_peer_per_second == pytest.approx(1 / 1200)


class TestScenarios:
    def test_table3_parameters_content(self):
        parameters = table3_parameters()
        assert parameters["number_of_peers"] == (16, 5000)
        assert parameters["number_of_queries"] == 200
        assert parameters["matching_nodes_fraction"] == 0.10
        assert parameters["freshness_threshold_alpha"] == (0.1, 0.8)

    def test_default_sweeps_cover_paper_ranges(self):
        assert min(DEFAULT_DOMAIN_SIZES) == 16
        assert max(DEFAULT_DOMAIN_SIZES) == 5000
        assert 0.1 in DEFAULT_ALPHAS and 0.8 in DEFAULT_ALPHAS

    def test_invalid_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            SimulationScenario(peer_count=1)
        with pytest.raises(ConfigurationError):
            SimulationScenario(alpha=0.0)

    def test_protocol_and_topology_configs(self):
        scenario = SimulationScenario(peer_count=64, alpha=0.5, seed=9)
        assert scenario.protocol_config().freshness_threshold == 0.5
        assert scenario.topology_config().peer_count == 64
        assert scenario.lifetime_distribution().median_seconds == 3600.0

    def test_build_system_planned_mode(self):
        scenario = SimulationScenario(peer_count=48, seed=1)
        system = scenario.session().system
        assert system.overlay.size == 48
        assert system.content is not None
        assert len(system.domains) >= 1

    def test_build_single_domain_system(self):
        scenario = SimulationScenario(peer_count=48, seed=1)
        system = scenario.single_domain_session().system
        assert len(system.domains) == 1
        domain = next(iter(system.domains.values()))
        assert len(domain.partner_ids) == 47

    def test_query_interval(self):
        scenario = SimulationScenario(peer_count=100)
        assert scenario.query_interval_seconds() == pytest.approx(12.0)
