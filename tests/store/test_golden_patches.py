"""Same patch, byte for byte: every pair diffs to the text recorded at the parent."""

import hashlib
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
from repro.store.checkpoint import capture_session
from repro.store.migrate import upgrade

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


#: Each golden session's base and tip payloads as the format-3 writer wrote
#: them: the ``session/*`` digests recorded before format 4.
FORMAT_3 = {
    "planned-64": {
        "base": "1f3a8bae6ebb2cb16406509535b709a7f236a4c6af0e138efce5c70fe0a5820f",
        "tip": "b735932e4075acf88c6d15b96221cb29de670a98121bcbc485ae17af1ad38399",
    },
    "medical-16": {
        "base": "9f180cd80db8aaab53b43c4bc7a8798903001f473fe36b65907ea95d23d4818d",
        "tip": "30399cc8d323ae892a7fc150a05a1dd01cb0eded2a502fab9729e93ffddad141",
    },
}


@pytest.mark.parametrize(
    "name,build", [("planned-64", planned_session), ("medical-16", medical_session)]
)
def test_a_format_3_capture_upgrades_to_the_format_4_capture(name, build):
    """Format 3 differs only in its number and in the pairs, in insertion order."""
    session = build()
    for part, until in (("base", session.horizon / 2), ("tip", session.horizon)):
        session.run_until(until)
        payload, _snapshots = capture_session(session)
        pairs = [list(pair) for pair in session.system.assignment.items()]
        written = {**payload, "format": 3, "assignment": pairs}
        text = canonical(written).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == FORMAT_3[name][part]
        assert upgrade(written) == payload
