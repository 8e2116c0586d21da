"""Serialization of summaries and hierarchies.

Local summaries travel inside ``localsum`` and ``reconciliation`` messages and
global summaries are persisted at summary peers, so the reproduction needs a
wire format.  Summaries serialize to plain JSON-compatible dictionaries; the
encoded size doubles as a realistic estimate of the per-message payload that
the storage-cost model (Section 6.1.1) approximates with 512 bytes per node.

Canonical encoding
------------------
:func:`canonical_json` fixes *one* byte representation per payload (sorted
keys, compact separators).  A hierarchy becomes that text in one place,
:func:`hierarchy_text`: one pass that encodes each distinct cell once (a
leaf's whole root path shares its ``Cell``) and splices each node's text from
its cells' and children's texts, byte for byte
``canonical_json(hierarchy_to_dict(h))`` — the structural oracle.  Everything
that needs to agree on sizes or identity reads it: :func:`encoded_size_bytes`
(the Fig-6/Table-2 storage-cost figures), and the content-addressed snapshot
store of :mod:`repro.store` (:func:`hierarchy_snapshot` /
:func:`hierarchy_content_hash` — equal canonical bytes, one stored snapshot).

Rehydration is *exact*: :func:`hierarchy_from_dict` rebuilds the serialized
tree node by node — cached aggregate profiles are re-established by the
absorb deltas, each key's cell is decoded once at its leaf (its
:attr:`Cell.owner`) and aliased by the leaf's ancestors, and the builder's
mutation counter is restored — so a roundtripped hierarchy absorbs and merges
byte-identically to the original instead of being re-clustered from its leaf
cells.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import SummaryError
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.clustering import ClusteringParameters
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.stats import AttributeStatistics, StatisticsBundle
from repro.saintetiq.summary import Summary

#: Version 2 adds the builder's mutation counter (``incorporated``) and is
#: decoded structure-preservingly; version-1 payloads are still accepted.
_FORMAT_VERSION = 2
_ACCEPTED_VERSIONS = (1, 2)


# -- canonical encoding ---------------------------------------------------------


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """The canonical text encoding: sorted keys, compact separators."""
    return _CANONICAL_ENCODER.encode(payload)


def canonical_encode(payload: Any) -> bytes:
    """Canonical UTF-8 bytes of a JSON-compatible payload."""
    return canonical_json(payload).encode("utf-8")


def content_hash(payload: Any) -> str:
    """SHA-256 over the canonical encoding: the content address of a payload."""
    return hashlib.sha256(canonical_encode(payload)).hexdigest()


def hierarchy_snapshot(hierarchy: SummaryHierarchy) -> Tuple[str, str]:
    """``(content address, canonical JSON text)`` from one encoding pass."""
    encoded = hierarchy_text(hierarchy)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest(), encoded


def hierarchy_content_hash(hierarchy: SummaryHierarchy) -> str:
    """Content address of a hierarchy (equal hierarchies hash identically)."""
    return hierarchy_snapshot(hierarchy)[0]


# -- cells ----------------------------------------------------------------------


def cell_to_dict(cell: Cell) -> Dict[str, Any]:
    """Encode one populated grid cell."""
    return {
        "key": [[d.attribute, d.label] for d in cell.key],
        "tuple_count": cell.tuple_count,
        "grades": [
            [descriptor.attribute, descriptor.label, grade]
            for descriptor, grade in sorted(cell.grades.items())
        ],
        "statistics": _statistics_to_dict(cell.statistics),
        "peers": sorted(cell.peers),
    }


def cell_from_dict(payload: Dict[str, Any]) -> Cell:
    """Decode one populated grid cell."""
    try:
        key = make_cell_key(
            Descriptor(attribute, label) for attribute, label in payload["key"]
        )
        cell = Cell(key=key)
        cell.tuple_count = float(payload["tuple_count"])
        cell.grades = {
            Descriptor(attribute, label): float(grade)
            for attribute, label, grade in payload.get("grades", [])
        }
        cell.statistics = _statistics_from_dict(payload.get("statistics", {}))
        cell.peers = set(payload.get("peers", []))
        return cell
    except (KeyError, TypeError, ValueError) as exc:
        raise SummaryError(f"malformed cell payload: {exc}") from exc


def _statistics_to_dict(bundle: StatisticsBundle) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {}
    for attribute in bundle.attributes:
        stats = bundle.get(attribute)
        if stats is None:
            continue
        encoded[attribute] = {
            "count": stats.count,
            "total": stats.total,
            "total_squares": stats.total_squares,
            "min": stats.minimum,
            "max": stats.maximum,
        }
    return encoded


def _statistics_from_dict(payload: Dict[str, Any]) -> StatisticsBundle:
    bundle = StatisticsBundle()
    for attribute, values in payload.items():
        stats = AttributeStatistics(
            count=float(values.get("count", 0.0)),
            total=float(values.get("total", 0.0)),
            total_squares=float(values.get("total_squares", 0.0)),
            minimum=values.get("min"),
            maximum=values.get("max"),
        )
        bundle._stats[attribute] = stats  # noqa: SLF001 - controlled rebuild
    return bundle


# -- summary trees -----------------------------------------------------------------


def summary_to_dict(summary: Summary) -> Dict[str, Any]:
    """Encode a summary node and, recursively, its children."""
    return {
        "cells": [cell_to_dict(cell) for _key, cell in sorted(
            summary.cells.items(), key=lambda kv: tuple(map(str, kv[0]))
        )],
        "children": [summary_to_dict(child) for child in summary.children],
    }


def summary_from_dict(payload: Dict[str, Any]) -> Summary:
    """Decode a summary subtree (one shared ``Cell`` per key, as encoded)."""
    return _subtree_from_dict(payload)[0]


#: ``repr`` of a serialized cell key -> (the key's one cell, its leaf entry).
_HeldCells = Dict[str, Tuple[Cell, Dict[str, Any]]]


def _subtree_from_dict(payload: Dict[str, Any]) -> Tuple[Summary, _HeldCells]:
    """Decode a subtree and the cells its leaves hold.

    Children are decoded first; an internal node then aliases its leaves'
    cells by key instead of decoding its own entries, which must equal the
    leaf's — the encoder wrote both from the same object.
    """
    node = Summary()
    held: _HeldCells = {}
    for child_payload in payload.get("children", []):
        child, child_held = _subtree_from_dict(child_payload)
        node.add_child(child)
        held.update(child_held)
    entries = payload.get("cells", [])
    for entry in entries:
        raw_key = repr(entry.get("key"))
        if node.children:
            cell, leaf_entry = held.get(raw_key, (None, None))
            if entry != leaf_entry:
                raise SummaryError(
                    f"malformed summary payload: an ancestor's entry for cell "
                    f"{raw_key} differs from its leaf's"
                )
        else:
            cell = cell_from_dict(entry)
            held[raw_key] = (cell, entry)
        node.alias_cell(cell)
    # What the children cover, counted with repeats (a leaf: its own entries).
    covered = sum(len(child.cells) for child in node.children) or len(entries)
    if not len(entries) == len(node.cells) == len(held) == covered:
        raise SummaryError(
            "malformed summary payload: a node's cells are not the disjoint "
            "union of its children's"
        )
    return node, held


# -- hierarchies ----------------------------------------------------------------------


def hierarchy_to_dict(hierarchy: SummaryHierarchy) -> Dict[str, Any]:
    """Encode a whole hierarchy (structure + metadata, not the BK), fresh dicts
    per node: the structural oracle that :func:`hierarchy_text` equals."""
    return {**_hierarchy_head(hierarchy), "root": summary_to_dict(hierarchy.root)}


def hierarchy_text(hierarchy: SummaryHierarchy) -> str:
    """The canonical JSON text of a hierarchy, each distinct cell encoded once.

    Byte for byte ``canonical_json(hierarchy_to_dict(hierarchy))``.  The memo
    is keyed by cell *identity* and lives for this call only, so a tree whose
    nodes hold distinct ``Cell`` objects for one key still encodes each one.
    """
    memo: Dict[int, Tuple[Tuple[str, ...], str]] = {}

    def node_text(node: Summary) -> str:
        entries = []
        for key, cell in node.cells.items():
            if id(cell) not in memo:
                memo[id(cell)] = (tuple(map(str, key)), canonical_json(cell_to_dict(cell)))
            entries.append(memo[id(cell)])
        entries.sort(key=itemgetter(0))  # stable, as ``summary_to_dict``'s sort
        cells = ",".join(text for _key, text in entries)
        children = ",".join(map(node_text, node.children))
        return '{"cells":[' + cells + '],"children":[' + children + "]}"

    # Sorted keys put ``root`` between the head's other fields and ``version``.
    head = _hierarchy_head(hierarchy)
    before = canonical_json({k: v for k, v in head.items() if k < "root"})
    after = canonical_json({k: v for k, v in head.items() if k > "root"})
    return before[:-1] + ',"root":' + node_text(hierarchy.root) + "," + after[1:]


def _hierarchy_head(hierarchy: SummaryHierarchy) -> Dict[str, Any]:
    """Every top-level field of the encoding but ``root``."""
    parameters = hierarchy._builder.parameters  # noqa: SLF001 - serialization needs them
    return {
        "version": _FORMAT_VERSION,
        "owner": hierarchy.owner,
        "attributes": hierarchy.attributes,
        "records_processed": hierarchy.records_processed,
        "incorporated": hierarchy._builder.incorporated_cells,  # noqa: SLF001
        "parameters": {
            "max_children": parameters.max_children,
            "enable_merge": parameters.enable_merge,
            "enable_split": parameters.enable_split,
        },
    }


def hierarchy_from_dict(
    payload: Dict[str, Any], background: BackgroundKnowledge
) -> SummaryHierarchy:
    """Decode a hierarchy; the background knowledge is supplied by the caller.

    The receiving peer always owns the (common) background knowledge — only
    summary structure travels on the wire, exactly as in the paper.

    Decoding is structure-preserving: the serialized tree is adopted as-is
    (no re-clustering), each node's cached aggregates are rebuilt by the
    absorb deltas, each key's cell is shared along its leaf's root path, and
    the builder's mutation counter resumes from the serialized value — further
    ``absorb``/``merge``/``incorporate`` calls behave byte-identically to the
    same calls on the original hierarchy.
    """
    version = payload.get("version")
    if version not in _ACCEPTED_VERSIONS:
        raise SummaryError(f"unsupported summary format version: {version!r}")
    parameters_payload = payload.get("parameters", {})
    parameters = ClusteringParameters(
        max_children=int(parameters_payload.get("max_children", 4) or 4),
        enable_merge=bool(parameters_payload.get("enable_merge", True)),
        enable_split=bool(parameters_payload.get("enable_split", True)),
    )
    hierarchy = SummaryHierarchy(
        background,
        attributes=payload.get("attributes") or None,
        parameters=parameters,
        owner=payload.get("owner"),
    )
    root = summary_from_dict(payload.get("root", {}))
    incorporated = payload.get("incorporated")
    if incorporated is None:
        # Version-1 payloads predate the counter; any monotone base keeps the
        # memoized depth/signature caches coherent, so the leaf-cell count works.
        incorporated = sum(len(leaf.cells) for leaf in root.leaves())
    hierarchy._builder.adopt_root(root, int(incorporated))  # noqa: SLF001
    hierarchy._records_processed = int(  # noqa: SLF001 - metadata restore
        payload.get("records_processed", 0)
    )
    return hierarchy


# -- JSON convenience ---------------------------------------------------------------------


def hierarchy_to_json(hierarchy: SummaryHierarchy, indent: Optional[int] = None) -> str:
    """JSON text of a hierarchy: canonical when compact, pretty with ``indent``."""
    if indent is None:
        return hierarchy_text(hierarchy)
    return json.dumps(hierarchy_to_dict(hierarchy), indent=indent, sort_keys=True)


def hierarchy_from_json(
    payload: str, background: BackgroundKnowledge
) -> SummaryHierarchy:
    try:
        decoded = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SummaryError(f"malformed summary JSON: {exc}") from exc
    return hierarchy_from_dict(decoded, background)


def encoded_size_bytes(hierarchy: SummaryHierarchy) -> int:
    """Actual wire size of the hierarchy — the canonical compact encoding.

    By construction this is ``len()`` of exactly the bytes the snapshot store
    hashes (:func:`hierarchy_text`, the same one-pass encoder), so
    storage-cost figures and content addresses always agree.
    """
    return len(hierarchy_text(hierarchy).encode("utf-8"))
