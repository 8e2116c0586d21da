"""Tests of the top-level public API surface."""

import importlib
import json
import subprocess
import sys

import pytest

import repro

#: Every package whose ``__init__`` resolves its names on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.serve",
    "repro.network",
    "repro.store",
    "repro.saintetiq",
    "repro.fuzzy",
    "repro.database",
    "repro.querying",
    "repro.workloads",
    "repro.runtime",
)


def _fresh(script, *argv):
    """Run ``script`` in a new interpreter and return the JSON it prints.

    A name an earlier import in this test session bound on a package would
    mask a missing table entry; a fresh process starts with none bound.
    """
    completed = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


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


RESOLVE = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
loaded = sorted(m for m in sys.modules if m.startswith(sys.argv[1] + "."))
defined_here = set(vars(package))
wrong = []
for name in package.__all__:
    value = getattr(package, name)
    holders = [
        module_name
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.") and module is not package
        and vars(module).get(name) is value
    ]
    if name not in defined_here and not holders:
        wrong.append(name)
print(json.dumps({"loaded": loaded, "wrong": wrong, "dir": dir(package),
                  "all": list(package.__all__)}))
"""

STAR = """
import json
before = set(globals())
from repro import *
import repro
print(json.dumps({"bound": sorted(set(globals()) - before - {"before"}),
                  "all": sorted(repro.__all__)}))
"""

UNKNOWN = """
import json, sys, importlib
package = importlib.import_module(sys.argv[1])
try:
    getattr(package, "no_such_name")
except AttributeError as error:
    print(json.dumps(str(error)))
"""


class TestLazyExports:
    """PEP 562 packages keep the surface their eager ``__init__`` modules had."""

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_name_is_the_object_its_defining_module_holds(self, package):
        report = _fresh(RESOLVE, package)
        assert report["loaded"] == (["repro._lazy"] if package == "repro" else [])
        assert report["wrong"] == []
        assert set(report["all"]) <= set(report["dir"])

    def test_a_star_import_binds_every_exported_name(self):
        report = _fresh(STAR)
        assert len(report["all"]) == 114
        assert set(report["all"]) <= set(report["bound"])

    @pytest.mark.parametrize("package", ["repro", "repro.core", "repro.runtime"])
    def test_an_unknown_name_raises_attribute_error_naming_the_module(self, package):
        message = _fresh(UNKNOWN, package)
        assert message == f"module {package!r} has no attribute 'no_such_name'"

    def test_a_submodule_is_reachable_as_a_package_attribute(self):
        names = _fresh(
            "import json, repro; print(json.dumps([repro.core.session.__name__,"
            " repro.store.checkpoint.__name__, repro.serve.wire.__name__]))"
        )
        assert names == [
            "repro.core.session",
            "repro.store.checkpoint",
            "repro.serve.wire",
        ]
