"""Property: a patch is a function of the two stored texts alone.

``diff_documents`` confirms ``==``-equal children once per container instead
of once per element; the oracle is the diff it replaced, kept below exactly as
it stood — every candidate confirmed by encoding both sides one element at a
time, every differing middle handed to ``SequenceMatcher``.  On random JSON
documents, laced with the values ``==`` cannot tell apart (``1`` / ``1.0`` /
``True``, ``0.0`` / ``-0.0``, tuples for lists, reordered keys), both give the
same patch text, and replaying it gives ``new``'s stored text.
"""

import difflib
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.store.deltas import apply_patch, diff_documents

# -- the replaced implementation, verbatim ----------------------------------------

_SPARSE_LIST_THRESHOLD = 0.75
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _equal(left, right):
    if left is right:
        return True
    if left != right:
        return False
    return _encode(left) == _encode(right)


def reference_diff(base, new):
    if isinstance(base, dict) and isinstance(new, dict):
        changed = {}
        dropped = []
        for key in base:
            if key not in new:
                dropped.append(key)
        for key, value in new.items():
            if key not in base:
                changed[key] = {"$set": value}
            elif not _equal(base[key], value):
                changed[key] = reference_diff(base[key], value)
        patch = {"$dict": changed}
        if dropped:
            patch["$drop"] = sorted(dropped)
        return patch
    if isinstance(base, list) and isinstance(new, list):
        if len(base) == len(new):
            edits = [
                [index, reference_diff(base[index], new[index])]
                for index in range(len(new))
                if not _equal(base[index], new[index])
            ]
            if len(edits) <= _SPARSE_LIST_THRESHOLD * len(new):
                return {"$list": edits}
        else:
            patch = _reference_splice(base, new)
            if patch is not None:
                return patch
    return {"$set": new}


def _reference_splice(base, new):
    prefix = 0
    limit = min(len(base), len(new))
    while prefix < limit and _equal(base[prefix], new[prefix]):
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and _equal(base[len(base) - 1 - suffix], new[len(new) - 1 - suffix])
    ):
        suffix += 1
    base_middle = base[prefix : len(base) - suffix]
    new_middle = new[prefix : len(new) - suffix]
    matcher = difflib.SequenceMatcher(
        a=[_encode(item) for item in base_middle],
        b=[_encode(item) for item in new_middle],
        autojunk=False,
    )
    operations = []
    inserted = 0
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        items = new_middle[j1:j2]
        inserted += len(items)
        operations.append([prefix + i1, i2 - i1, items])
    if new and inserted > _SPARSE_LIST_THRESHOLD * len(new):
        return None
    return {"$splice": operations}


# -- documents, and a second one a few edits away ----------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 2, -1, 0.0, -0.0, 1.0, 2.0, 0.5, "", "s", "1"]),
    st.integers(min_value=-3, max_value=3),
)
keys = st.sampled_from(["a", "b", "c", "d", "e"])
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6), st.dictionaries(keys, children, max_size=4)
    ),
    max_leaves=25,
)

#: ``==`` holds before and after; the stored text changes for all but the last two.
_LOOKALIKES = {
    (int, 0): [0.0, -0.0, False],
    (int, 1): [1.0, True],
    (float, 0.0): [-0.0, 0, False],
    (float, 1.0): [1, True],
    (bool, True): [1, 1.0],
    (bool, False): [0, 0.0],
}


def _edit(document, draw):
    """One edit somewhere inside ``document``, steered by ``draw(n) -> [0, n)``."""
    roll = draw(10)
    if isinstance(document, dict) and document:
        ordered = sorted(document)
        key = ordered[draw(len(ordered))]
        if roll == 0:
            return {k: v for k, v in document.items() if k != key}
        if roll == 1:  # same dict, other insertion order
            return {k: document[k] for k in reversed(list(document))}
        if roll == 2:
            return {**document, "z": draw(3)}
        return {**document, key: _edit(document[key], draw)}
    if isinstance(document, (list, tuple)) and document:
        index = draw(len(document))
        items = list(document)
        if roll == 0:
            return items[:index] + items[index + 1 :]
        if roll == 1:
            return items[:index] + [draw(3)] + items[index:]
        if roll == 2:
            return items[index:]
        if roll == 3:
            return items + [draw(3), {"a": draw(2)}]
        if roll == 4:
            return tuple(items)  # encodes like the list, compares unlike it
        if roll == 5:
            return []
        items[index] = _edit(items[index], draw)
        return items
    scalar = not isinstance(document, (dict, list, tuple))
    lookalikes = _LOOKALIKES.get((type(document), document)) if scalar else None
    if lookalikes and roll < 7:
        return lookalikes[draw(len(lookalikes))]
    return [None, 0, 1.0, "s", [], {}, [1], {"a": 1}][draw(8)]


def _text(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@given(documents, st.lists(st.integers(min_value=0, max_value=2**16), max_size=6))
@example({"a": [1, {"v": 1}, 1.0, True]}, [7, 7, 11])
@settings(max_examples=300, deadline=None)
def test_the_patch_equals_the_per_element_diffs(base, edits):
    new = base
    for seed in edits:
        state = [seed]

        def draw(bound):
            state[0] = (state[0] * 1103515245 + 12345) % 2**31
            return (state[0] >> 8) % bound

        new = _edit(new, draw)
    for left, right in ((base, new), (new, base), ({"doc": base}, {"doc": new})):
        patch = diff_documents(left, right)
        assert _text(patch) == _text(reference_diff(left, right))
        assert _text(apply_patch(left, patch)) == _text(right)


def test_a_lookalike_deep_inside_an_equal_container_reaches_the_fallback():
    base = {"keep": [1, 2], "x": {"deep": [1, {"v": 1}]}}
    new = {"keep": [1, 2], "x": {"deep": [1, {"v": 1.0}]}}
    assert base == new
    patch = diff_documents(base, new)
    assert patch == reference_diff(base, new)
    assert _text(patch) == '{"$dict":{"x":{"$dict":{"deep":{"$list":[[1,{"$dict":{"v":{"$set":1.0}}}]]}}}}}'
