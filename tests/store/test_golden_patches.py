"""Same patch, byte for byte: every pair diffs to the text recorded at the parent."""

import json

import pytest

from golden_patches import (
    FIXTURE,
    canonical,
    document_pairs,
    medical_session,
    planned_session,
    session_digests,
)
from repro.store import apply_patch, diff_documents

RECORDED = json.loads(FIXTURE.read_text())
PAIRS = {f"pair/{name}": (base, new) for name, base, new in document_pairs()}


def test_pairs_match_the_recorded_names():
    assert sorted(PAIRS) == sorted(name for name in RECORDED if name.startswith("pair/"))


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_patch_text_is_byte_identical(name):
    base, new = PAIRS[name]
    patch = diff_documents(base, new)
    assert canonical(patch) == RECORDED[name]
    assert canonical(apply_patch(base, patch)) == canonical(new)


@pytest.mark.parametrize(
    "name,build", [("planned-64", planned_session), ("medical-16", medical_session)]
)
def test_session_payloads_and_patch_hash_as_recorded(name, build, backend):
    digests = session_digests(build(), backend)
    assert digests == {
        part: RECORDED[f"session/{name}/{part}"] for part in ("base", "tip", "patch")
    }
