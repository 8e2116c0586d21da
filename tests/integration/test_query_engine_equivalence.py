"""Equivalence suite: the query path across the figure scenarios.

Runs miniature fig4/fig5 (single-domain maintenance + staleness sampling),
fig7 (multi-domain query cost), planned-content-under-churn and real-content
flows through the batched query path and holds every protocol-visible
outcome — routing sets, message counts, flooding figures, staleness
snapshots, approximate answers — to the digests recorded once from
sequential, unindexed posing (see ``golden_query_engine.py``).
"""

from __future__ import annotations

import json

import pytest

from golden_query_engine import FIXTURE, FLOWS
from repro.experiments.runner import (
    run_maintenance_simulation,
    run_query_cost_comparison,
)
from repro.workloads.registry import default_registry

RECORDED = json.loads(FIXTURE.read_text())


def test_flows_match_the_recorded_names():
    assert sorted(FLOWS) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_batched_path_matches_recorded_sequential_posing(name):
    assert FLOWS[name]() == RECORDED[name]


class TestFig4Fig5Staleness:
    def test_runner_driver_matches_manual_sampling(self):
        """The fig4/fig5 driver (batched staleness) reproduces itself exactly."""
        scenario = default_registry().scenario(
            "maintenance", peer_count=32, duration_seconds=3600.0, seed=4
        )
        a = run_maintenance_simulation(scenario)
        b = run_maintenance_simulation(scenario)
        assert a.snapshots == b.snapshots
        assert a.update_messages == b.update_messages


class TestFig7QueryCost:
    def test_fig7_driver_deterministic(self):
        a = run_query_cost_comparison(peer_count=64, query_count=8, seed=2)
        b = run_query_cost_comparison(peer_count=64, query_count=8, seed=2)
        assert a.summary_querying_messages == b.summary_querying_messages
        assert a.flooding_messages == b.flooding_messages
        assert a.centralized_messages == b.centralized_messages
