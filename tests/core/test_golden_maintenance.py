"""Same maintenance horizon, event for event: every run hashes as recorded."""

import json

import pytest

from golden_maintenance import FIXTURE, cases, horizon_digests

RECORDED = json.loads(FIXTURE.read_text())
CASES = {name: (peers, seed, concurrent) for name, peers, seed, concurrent in cases()}


def test_cases_match_the_recorded_names():
    assert sorted(CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_maintenance_horizon_is_event_identical(name):
    assert horizon_digests(*CASES[name]) == RECORDED[name]
