"""Faulted runs are held to digests recorded before the fault paths moved.

See ``golden_fault_runs.py`` for what is run and what is hashed.  Test ids
use the chaos matrix's underscore scenario names, so each CI leg's ``-k``
selects its own case.
"""

import json

import pytest

from golden_fault_runs import FIXTURE, run_digests
from repro.workloads.registry import ADVERSITY_SCENARIOS

RECORDED = json.loads(FIXTURE.read_text())


def test_every_adversity_scenario_is_recorded():
    assert sorted(RECORDED) == sorted(ADVERSITY_SCENARIOS)


@pytest.mark.parametrize(
    "name", ADVERSITY_SCENARIOS, ids=[n.replace("-", "_") for n in ADVERSITY_SCENARIOS]
)
def test_faulted_run_matches_recording(name):
    assert run_digests(name) == RECORDED[name]
