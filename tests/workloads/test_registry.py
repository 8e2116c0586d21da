"""Tests for the named-scenario registry."""

import pytest

from repro.core.session import NetworkSession
from repro.exceptions import ConfigurationError
from repro.network.faults import FaultPlan, LinkFaults
from repro.workloads.registry import ScenarioRegistry, default_registry
from repro.workloads.scenarios import SimulationScenario


class TestScenarioRegistry:
    def test_register_and_lookup(self):
        registry = ScenarioRegistry()
        registry.register(
            "tiny", lambda: SimulationScenario(peer_count=16), description="16 peers"
        )
        assert "tiny" in registry
        assert registry.names() == ["tiny"]
        assert registry.describe("tiny") == "16 peers"
        assert registry.scenario("tiny").peer_count == 16

    def test_register_as_decorator_uses_docstring(self):
        registry = ScenarioRegistry()

        @registry.register("documented")
        def _factory():
            """Documented scenario."""
            return SimulationScenario(peer_count=24)

        assert registry.describe("documented") == "Documented scenario."
        assert registry.scenario("documented").peer_count == 24

    def test_latest_registration_wins(self):
        registry = ScenarioRegistry()
        registry.register("name", lambda: SimulationScenario(peer_count=16))
        registry.register("name", lambda: SimulationScenario(peer_count=32))
        assert registry.scenario("name").peer_count == 32

    def test_unknown_name_lists_alternatives(self):
        registry = ScenarioRegistry()
        registry.register("only", lambda: SimulationScenario())
        with pytest.raises(ConfigurationError, match="only"):
            registry.scenario("missing")

    def test_overrides_replace_fields(self):
        registry = ScenarioRegistry()
        registry.register("base", lambda: SimulationScenario(peer_count=100))
        scenario = registry.scenario("base", peer_count=20, alpha=0.8, seed=5)
        assert (scenario.peer_count, scenario.alpha, scenario.seed) == (20, 0.8, 5)
        # The base factory is untouched.
        assert registry.scenario("base").peer_count == 100

    def test_unknown_override_rejected(self):
        registry = ScenarioRegistry()
        registry.register("base", lambda: SimulationScenario())
        with pytest.raises(ConfigurationError, match="no fields"):
            registry.scenario("base", peers=10)

    def test_overrides_are_validated_by_the_scenario(self):
        registry = ScenarioRegistry()
        registry.register("base", lambda: SimulationScenario())
        with pytest.raises(ConfigurationError):
            registry.scenario("base", alpha=5.0)


class TestDefaultRegistry:
    def test_builtin_scenarios_registered(self):
        registry = default_registry()
        for name in ("table3-default", "smoke", "maintenance", "query-cost"):
            assert name in registry
            assert registry.describe(name)

    def test_lossy_network_only_drops(self):
        registry = default_registry()
        plan = registry.scenario("lossy-network").fault_plan
        assert plan == FaultPlan(seed=4, link=LinkFaults(drop_probability=0.1))
        assert registry.describe("lossy-network") == (
            "Every link drops 10 % of messages: bounded retries must cap "
            "the overhead."
        )

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()

    def test_session_from_named_scenario(self):
        session = default_registry().session("smoke", seed=11)
        assert isinstance(session, NetworkSession)
        assert session.overlay.size == 32
        answer = session.query(required_results=1)
        assert answer.results >= 1

    def test_single_domain_session_from_named_scenario(self):
        session = default_registry().single_domain_session(
            "maintenance", peer_count=24, seed=2
        )
        assert len(session.domains) == 1
        (domain,) = session.domains.values()
        assert len(domain.partner_ids) == session.overlay.size - 1
