"""Same construction, decision for decision: every build hashes as recorded at the parent."""

import json

import pytest

from golden_construction import FIXTURE, cases, construction_digest

RECORDED = json.loads(FIXTURE.read_text())
CASES = {name: (peer_count, seed) for name, peer_count, seed in cases()}


def test_cases_match_the_recorded_names():
    assert sorted(CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_is_decision_identical(name):
    assert construction_digest(*CASES[name]) == RECORDED[name]
