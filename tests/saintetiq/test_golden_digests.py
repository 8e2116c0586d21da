"""Summary-format identity: the corpus hashes to the digests recorded once.

Both encoders are held to the one recording: the dict view it was taken from,
and the one-pass snapshot text (address included) that checkpoints file.
"""

import json

import pytest

from golden_corpus import FIXTURE, digests

RECORDED = json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    return digests()


def test_corpus_matches_the_recorded_names(current):
    assert sorted(current) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_canonical_encoding_is_byte_identical(current, name):
    assert current[name]["dict"] == RECORDED[name]


@pytest.mark.parametrize(
    "name", sorted(name for name in RECORDED if not name.endswith("/cells-200"))
)
def test_snapshot_text_is_byte_identical(current, name):
    assert current[name]["snapshot"] == RECORDED[name]
