"""Tests of the top-level public API surface."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_subpackage_all_exports_resolve(self):
        for module_name in (
            "repro.fuzzy",
            "repro.database",
            "repro.saintetiq",
            "repro.querying",
            "repro.network",
            "repro.core",
            "repro.baselines",
            "repro.costmodel",
            "repro.workloads",
            "repro.experiments",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_network_exports_no_message_bus(self):
        network = importlib.import_module("repro.network")
        assert len(network.__all__) == 18
        for name in ("MessageBus", "Message", "ExpiringSet", "FaultStats"):
            assert name not in network.__all__
            assert not hasattr(network, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.network.transport")

    def test_module_docstring_example_runs(self):
        """The quick tour sketched in the package docstring actually works."""
        session = (
            repro.SystemBuilder()
            .topology(peer_count=32, average_degree=4)
            .planned_content(hit_rate=0.25)
            .seed(7)
            .build()
        )
        answer = session.query()
        assert answer.results >= 1
        assert answer.total_messages >= answer.results
        assert answer.staleness is not None
        # ... and so does its persistence section.
        store = repro.InMemoryBackend()
        assert session.checkpoint(store) == "session"
        resumed = repro.SystemBuilder.from_checkpoint(store)
        assert resumed.query().routing == session.query().routing

    def test_module_docstring_doctests_pass(self):
        """The quick tour is a real doctest, executed verbatim."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.attempted >= 8
        assert results.failed == 0

    def test_summarization_substrate_still_direct(self):
        """The low-level summarization engine remains usable on its own."""
        background = repro.medical_background_knowledge()
        hierarchy = repro.SummaryHierarchy(background, attributes=["age", "bmi"])
        generator = repro.PatientGenerator(seed=1)
        added = hierarchy.add_records(
            record.as_dict() for record in generator.paper_example_relation()
        )
        assert added == 3
        assert hierarchy.leaf_count() >= 1

    def test_exceptions_form_a_single_family(self):
        for name in (
            "SchemaError",
            "QueryError",
            "BackgroundKnowledgeError",
            "SummaryError",
            "NetworkError",
            "ProtocolError",
            "ConfigurationError",
        ):
            exception_type = getattr(repro, name)
            assert issubclass(exception_type, repro.ReproError)

    def test_routing_policy_values(self):
        assert {policy.value for policy in repro.RoutingPolicy} == {
            "all",
            "precision",
            "recall",
        }

    def test_freshness_values_match_paper(self):
        assert repro.Freshness.FRESH == 0
        assert repro.Freshness.STALE == 1
        assert repro.Freshness.UNAVAILABLE == 2


class TestSessionSurface:
    """The declarative façade is part of the supported public API."""

    def test_session_facade_exported(self):
        for name in (
            "SystemBuilder",
            "NetworkSession",
            "QueryAnswer",
            "MaintenanceReport",
            "SessionTraffic",
            "ScenarioRegistry",
            "default_registry",
            "SimulationScenario",
        ):
            assert name in repro.__all__, f"repro.{name} not in __all__"
            assert hasattr(repro, name)

    def test_query_answer_wraps_a_routing_result(self):
        session = (
            repro.SystemBuilder()
            .topology(peer_count=16)
            .planned_content(hit_rate=0.2)
            .seed(1)
            .build()
        )
        answer = session.query(required_results=1)
        assert isinstance(answer, repro.QueryAnswer)
        assert isinstance(answer.routing, repro.QueryRoutingResult)
        assert answer.query_id == answer.routing.query_id
        assert answer.satisfied() == answer.routing.satisfied()

    def test_builder_errors_are_configuration_errors(self):
        with pytest.raises(repro.ConfigurationError):
            repro.SystemBuilder().build()

    def test_default_registry_builds_sessions(self):
        registry = repro.default_registry()
        assert isinstance(registry, repro.ScenarioRegistry)
        session = registry.session("smoke", seed=3)
        assert isinstance(session, repro.NetworkSession)
