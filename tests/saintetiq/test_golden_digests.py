"""Summary-format identity: the corpus hashes to the digests recorded once."""

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
    assert current[name] == RECORDED[name]
