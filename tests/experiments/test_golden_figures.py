"""Same figures, byte for byte: every CLI run prints the text recorded before the shared sweep."""

import json

import pytest

from golden_figures import FIXTURE, RUNS, stdout_digest

RECORDED = json.loads(FIXTURE.read_text())


def test_runs_match_the_recorded_names():
    assert sorted(RUNS) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_hashes_as_recorded(name):
    assert stdout_digest(RUNS[name]) == RECORDED[name]
