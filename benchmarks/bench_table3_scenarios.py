"""Table 3 — simulation parameters and scenario construction.

Regenerates the parameter table and benchmarks how long it takes to stand up a
complete planned-content simulation scenario (overlay generation + domain
construction) at the default size.
"""

import pytest

from benchmarks.conftest import attach_table
from repro.experiments.tables import run_table3
from repro.workloads.scenarios import SimulationScenario


@pytest.mark.benchmark(group="tables")
def test_table3_parameters(benchmark):
    table = benchmark(run_table3)
    attach_table(benchmark, table)
    assert {"number_of_peers", "freshness_threshold_alpha"} <= set(
        table.column("parameter")
    )


@pytest.mark.benchmark(group="tables")
def test_scenario_construction(benchmark):
    def build():
        scenario = SimulationScenario(peer_count=500, alpha=0.3, seed=0)
        system = scenario.session().system
        return system

    system = benchmark.pedantic(build, iterations=1, rounds=3)
    assert len(system.domains) >= 1
    assert system.overlay.size == 500
