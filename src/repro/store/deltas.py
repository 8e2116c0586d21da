"""Structural JSON diff/patch: the encoding of delta checkpoints.

The paper's maintenance protocol is incremental — peers push summary *deltas*,
not full rebuilds — and checkpoints follow suit: a delta checkpoint persists
only what changed since a *base* checkpoint.  Because summary hierarchies are
already content-addressed (identical snapshots are stored once, see
:mod:`repro.store.snapshots`), the remaining redundancy between two nearby
checkpoints lives in the checkpoint *document* itself: the overlay adjacency,
the per-peer states, the protocol configuration and most domain entries are
unchanged between two nearby simulation times, while the RNG state, the
message counters and the pending event queue differ.

:func:`diff_documents` computes a structural patch between two JSON-compatible
documents and :func:`apply_patch` replays it; the round trip is exact::

    apply_patch(base, diff_documents(base, new)) == new

Patch encoding (one node per changed subtree):

* ``{"$set": value}`` — replace the subtree wholesale (type changes,
  different-length lists, scalars);
* ``{"$dict": {key: patch, ...}, "$drop": [removed keys]}`` — merge into a
  dict: patch changed keys, drop removed ones, keep the rest;
* ``{"$list": [[index, patch], ...]}`` — sparse per-index patches into a
  same-length list (the common case for the 2000-entry overlay peer list
  where a handful of peers flipped online state);
* ``{"$splice": [[start, delete_count, [items...]], ...]}`` — sequence edits
  into a length-changed list, aligned with :class:`difflib.SequenceMatcher`
  (the pending-event queue between two checkpoint times is mostly the same
  events with a consumed prefix and a few insertions; the reconciliation
  history is append-only).

Unchanged subtrees produce no entry at all, which is where the size win
comes from.

The invariant, and what a diff costs
------------------------------------
A patch is a function of the two *stored texts* alone: two children are
unchanged exactly when their canonical JSON texts are equal, whatever objects
hold them (a fresh capture against a parsed base, ``1`` against ``1.0``, a
tuple against a list, keys in another order — ``tests/store/golden_patches.py``
pins the patch text of each).  The work is proportional to what changed plus
one pass over what did not: ``==`` picks a container's candidate-unchanged
children at C speed and they are confirmed *together*, once per container
(:func:`_equal_pairs`) — by one comparison of both sides' ``marshal`` bytes,
which are equal only where the texts are, and by their texts only where the
bytes differ (:func:`_confirmed`).  A capture lists its keys in the order the
store writes them (:mod:`repro.store.checkpoint`), so an unmoved subtree is
confirmed without encoding either side: on the 2000-peer Table-3 delta, no
text at all where 34 texts of 380,110 characters were encoded before, most
of them the overlay's fixed adjacency.  A list that only grew or only
shrank is one splice read off its common prefix and suffix, and only two
non-empty differing middles are aligned, their items' texts the alignment
keys.  The per-element :func:`_equal` is what a failed confirmation
falls back to, nothing else.  A same-length list is ``$list`` or ``$set`` by
its count of unequal verdicts, decided before any child is diffed: past
``_SPARSE_LIST_THRESHOLD`` the list is set whole and no child patch is built
only to be thrown away (on the 2000-peer Table-3 checkpoint, the ``domains``
and ``described`` lists are each almost wholly changed between two times).

Why planned-content deltas are kept
-----------------------------------
A delta buys disk everywhere; on planned content it does not buy time.  On
the 2000-peer Table-3 workload (``table3-planned-2000``, seed 1) a delta is
163,030 B against a 523,248 B full save (0.31×), and it takes 1.3× a full
save's time (0.039 s against 0.029 s, medians of eleven benchmark runs over
seeds 1–10 and 12 on a 2-core host): a 3.2× smaller document for a third
more time.  Before unmoved subtrees were confirmed by their bytes, the
same runs read 1.8× (0.052 s against 0.029 s); before the threshold was
decided ahead of a list's children, while the diff still built the
patches it then discarded, a delta took 2.3× a full save.  In checkpoint format 1, which wrote each link twice
and each pending event and peer as a dict, the same pair was 206,734 B
against 1,419,659 B (0.15×) at 1.8× the time.  On real content a delta is
both smaller and cheaper.  So the mechanism stays for both kinds of
content, and nothing picks it per content kind.
"""

from __future__ import annotations

import difflib
import json
import marshal
from typing import Any, Dict, List, Tuple

from repro.exceptions import StoreError

#: Patches never pay for a sparse list encoding when more than this fraction
#: of the entries changed — a wholesale ``$set`` is smaller and simpler.
_SPARSE_LIST_THRESHOLD = 0.75


def canonical_roundtrip(payload: Any) -> Any:
    """Normalise a payload to its stored (JSON round-tripped) form.

    Diffing itself never needs this — :func:`diff_documents` compares nodes
    by their canonical *text*, so an in-memory payload diffs correctly
    against a parsed stored document (a tuple that encodes like an equal
    stored list simply produces a ``$set`` whose stored form is that list).
    Tests use it to phrase exact stored-form expectations.
    """
    return json.loads(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def diff_documents(base: Any, new: Any) -> Dict[str, Any]:
    """A patch turning ``base`` into ``new`` (see module docstring).

    Either side may be a parsed stored document or a freshly captured
    payload: children are compared by their canonical *text*, so the patch is
    the one the two stored texts give (:func:`canonical_roundtrip` is never
    needed first).
    """
    if isinstance(base, dict) and isinstance(new, dict):
        shared = [key for key in new if key in base]
        same = dict(zip(shared, _equal_pairs([(base[key], new[key]) for key in shared])))
        changed: Dict[str, Any] = {}
        for key, value in new.items():
            if key not in base:
                changed[key] = {"$set": value}
            elif not same[key]:
                changed[key] = diff_documents(base[key], value)
        patch: Dict[str, Any] = {"$dict": changed}
        dropped = sorted(key for key in base if key not in new)
        if dropped:
            patch["$drop"] = dropped
        return patch
    if isinstance(base, list) and isinstance(new, list):
        if len(base) == len(new):
            changed_indices = [
                index
                for index, equal in enumerate(_equal_pairs(list(zip(base, new))))
                if not equal
            ]
            if len(changed_indices) <= _SPARSE_LIST_THRESHOLD * len(new):
                return {
                    "$list": [
                        [index, diff_documents(base[index], new[index])]
                        for index in changed_indices
                    ]
                }
        else:
            patch = _splice_patch(base, new)
            if patch is not None:
                return patch
    return {"$set": new}


def _splice_patch(base: List[Any], new: List[Any]) -> Dict[str, Any] | None:
    """Sequence-align two lists; ``None`` when a wholesale ``$set`` is cheaper.

    Common prefix/suffix runs are trimmed first (append-only lists like the
    reconciliation history, and a drained event queue, then need no alignment
    at all: one side's middle is empty and the splice is read off directly);
    only two non-empty differing middles go through
    :class:`difflib.SequenceMatcher`.  Alignment keys are the canonical JSON
    encodings of the items, so matcher equality is exactly stored-text
    equality (1 vs 1.0 and True vs 1 stay distinct).
    """
    limit = min(len(base), len(new))
    prefix = _equal_run(base, new, limit)
    suffix = _equal_run(base[::-1], new[::-1], limit - prefix)
    base_middle = base[prefix : len(base) - suffix]
    new_middle = new[prefix : len(new) - suffix]

    if base_middle and new_middle:
        matcher = difflib.SequenceMatcher(
            a=[_encode(item) for item in base_middle],
            b=[_encode(item) for item in new_middle],
            autojunk=False,
        )
        opcodes = matcher.get_opcodes()
    else:
        opcodes = [("replace", 0, len(base_middle), 0, len(new_middle))]
    operations: List[List[Any]] = []
    inserted = 0
    for tag, i1, i2, j1, j2 in opcodes:
        if tag == "equal":
            continue
        items = new_middle[j1:j2]
        inserted += len(items)
        operations.append([prefix + i1, i2 - i1, items])
    if new and inserted > _SPARSE_LIST_THRESHOLD * len(new):
        return None
    return {"$splice": operations}


#: A single reusable encoder: ``json.dumps`` pays an encoder construction per
#: call, and the diff encodes thousands of nodes.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _CANONICAL_ENCODER.encode


def _confirmed(left: Any, right: Any) -> bool:
    """Whether two ``==``-equal nodes have the same canonical JSON text.

    Equal ``marshal`` version-2 bytes are enough: that version writes floats
    and bools in binary, a tuple apart from a list and no back-references,
    so equal bytes are equal types holding equal values, dicts' keys in the
    same order.  Anything else — other bytes, or a node ``marshal`` refuses —
    is settled by the canonical texts themselves, which stay the definition.
    """
    try:
        if marshal.dumps(left, 2) == marshal.dumps(right, 2):
            return True
    except ValueError:
        pass
    return _encode(left) == _encode(right)


def _equal(left: Any, right: Any) -> bool:
    """Stored-form equality: the canonical JSON texts must match exactly.

    Python's ``==`` is a fast C-level pre-check but too lax for stored text
    (``1 == True`` and ``1 == 1.0`` yet they serialize differently), so an
    ``==``-equal pair is confirmed (:func:`_confirmed`).
    """
    return left is right or (left == right and _confirmed(left, right))


def _equal_pairs(pairs: List[Tuple[Any, Any]]) -> List[bool]:
    """:func:`_equal` of every pair, confirmed once for all of them.

    ``==`` picks the candidates; all the candidate left sides are then
    confirmed as one array against all the right sides as another (an
    array's bytes and text are its items' joined, so the two arrays confirm
    exactly when every pair does).  Only a failed confirmation — a ``1``
    stored where the base holds ``1.0`` somewhere inside — pays the per-pair
    :func:`_equal`.
    """
    verdicts = [left is right or left == right for left, right in pairs]
    candidates = [
        pair for pair, same in zip(pairs, verdicts) if same and pair[0] is not pair[1]
    ]
    if candidates and not _confirmed(
        [left for left, _ in candidates], [right for _, right in candidates]
    ):
        return [same and _equal(*pair) for pair, same in zip(pairs, verdicts)]
    return verdicts


def _equal_run(base: List[Any], new: List[Any], limit: int) -> int:
    """Length of the two lists' common prefix, ``limit`` at most.

    The run a per-item :func:`_equal` would stop at: ``==`` measures a
    candidate run, which is then confirmed like one container's children.
    """
    length = 0
    while length < limit and (
        base[length] is new[length] or base[length] == new[length]
    ):
        length += 1
    if not _confirmed(base[:length], new[:length]):
        length = next(
            (index for index in range(length) if not _equal(base[index], new[index])),
            length,
        )
    return length


def apply_patch(base: Any, patch: Dict[str, Any]) -> Any:
    """Replay a :func:`diff_documents` patch onto ``base``.

    ``base`` is not mutated; shared unchanged subtrees are referenced, not
    copied (callers treat resolved checkpoint payloads as read-only).

    A stored patch is read back from disk, so it is checked as it is
    replayed: indices are ints (not bools) inside the list they address,
    splice counts are non-negative, splice items are a list, splices come
    in ascending base order without overlapping, and ``$drop`` is a list of
    key strings.  Anything else is a :class:`StoreError` naming the entry —
    never a patch that replays into some other document.
    """
    if not isinstance(patch, dict):
        raise StoreError(f"malformed checkpoint patch node: {patch!r}")
    if "$set" in patch:
        return patch["$set"]
    if "$dict" in patch:
        if not isinstance(base, dict):
            raise StoreError(
                "checkpoint patch expects an object but the base holds "
                f"{type(base).__name__}"
            )
        changed = patch["$dict"]
        if not isinstance(changed, dict):
            raise StoreError(f"malformed dict patch {changed!r}: expected an object")
        result = dict(base)
        if "$drop" in patch:
            dropped = patch["$drop"]
            if not isinstance(dropped, list) or not all(
                isinstance(key, str) for key in dropped
            ):
                raise StoreError(
                    f"malformed dict patch $drop {dropped!r}: expected a list of keys"
                )
            for key in dropped:
                result.pop(key, None)
        for key, child in changed.items():
            result[key] = apply_patch(base.get(key), child)
        return result
    if "$list" in patch:
        if not isinstance(base, list):
            raise StoreError(
                "checkpoint patch expects an array but the base holds "
                f"{type(base).__name__}"
            )
        result = list(base)
        last = len(base) - 1
        for entry in _entries(patch, "$list"):
            try:
                index, child = entry
                valid = type(index) is int and 0 <= index <= last
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise StoreError(
                    f"malformed list patch entry {entry!r}: expected "
                    f"[index in 0..{last}, patch]"
                )
            result[index] = apply_patch(base[index], child)
        return result
    if "$splice" in patch:
        if not isinstance(base, list):
            raise StoreError(
                "checkpoint patch expects an array but the base holds "
                f"{type(base).__name__}"
            )
        result = list(base)
        # Operations come in ascending, non-overlapping base order; applying
        # them back-to-front keeps earlier offsets valid, and each one must
        # end at or before the start of the one applied just before it.
        limit = len(base)
        for entry in reversed(_entries(patch, "$splice")):
            try:
                start, delete_count, items = entry
                valid = (
                    type(start) is int
                    and type(delete_count) is int
                    and type(items) is list
                    and 0 <= start <= start + delete_count <= limit
                )
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise StoreError(
                    f"malformed splice patch entry {entry!r}: expected "
                    f"[start, count >= 0, [items]] ending by {limit}, where "
                    "the array or the next entry starts"
                )
            result[start : start + delete_count] = items
            limit = start
        return result
    raise StoreError(
        f"unknown checkpoint patch operation: {sorted(patch)!r} "
        "(expected $set, $dict, $list or $splice)"
    )


def _entries(patch: Dict[str, Any], operation: str) -> List[Any]:
    """The entries of a ``$list`` / ``$splice`` node, which must be an array."""
    entries = patch[operation]
    if not isinstance(entries, list):
        raise StoreError(
            f"malformed {operation} patch {entries!r}: expected a list of entries"
        )
    return entries
