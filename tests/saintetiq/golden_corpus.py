"""The fixed corpus behind ``golden_digests.json``.

Byte-identity of the summary format and of the clustering's operator choices
is pinned by an oracle, not by a retained slow path: the SHA-256 of each
corpus tree's canonical encoding was recorded once — the format entries from
the commit *before* cells became shared between the nodes of a key's root
path, the ``scoring/`` entries from the last commit that could build through
the naive four-way reference scorer and the per-record absorb loop — and
``test_golden_digests.py`` holds every later commit to it.  Each hierarchy is
hashed twice: through the dict view (``canonical_encode(hierarchy_to_dict)``,
the structural oracle the digests were recorded from) and through
``hierarchy_snapshot``, the one-pass text every checkpoint files.  Regenerate
only for a deliberate format or clustering change (it records the dict
view)::

    PYTHONPATH=src python tests/saintetiq/golden_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, Tuple, Union

from repro.database.generator import PatientGenerator
from repro.fuzzy.linguistic import Descriptor
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.clustering import ClusteringParameters, SummaryBuilder
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.merging import merge_hierarchies, merge_into
from repro.saintetiq.serialization import (
    canonical_encode,
    hierarchy_from_dict,
    hierarchy_snapshot,
    hierarchy_to_dict,
    summary_to_dict,
)
from repro.saintetiq.summary import Summary

FIXTURE = Path(__file__).with_name("golden_digests.json")

_PEERS = 6
_RECORDS = 40

#: Merge/split on and off, arity 2–4: every operator mix the scorer chooses from.
PARAMETER_GRID = [
    ClusteringParameters(max_children=2, enable_merge=True, enable_split=True),
    ClusteringParameters(max_children=4, enable_merge=True, enable_split=True),
    ClusteringParameters(max_children=4, enable_merge=False, enable_split=True),
    ClusteringParameters(max_children=4, enable_merge=True, enable_split=False),
    ClusteringParameters(max_children=3, enable_merge=False, enable_split=False),
]


def random_cells(count, n_attrs=3, n_labels=5, seed=0, peers=("p1", "p2", "p3")):
    """A random stream of populated grid cells with fractional masses."""
    rng = random.Random(seed)
    cells = []
    for _ in range(count):
        key = make_cell_key(
            Descriptor(f"a{index}", f"l{rng.randrange(n_labels)}")
            for index in range(n_attrs)
        )
        cell = Cell(key=key, tuple_count=rng.uniform(0.05, 4.0))
        cell.grades = {descriptor: rng.random() for descriptor in key}
        cell.peers = {rng.choice(peers)}
        cells.append(cell)
    return cells


def corpus() -> Iterator[Tuple[str, Union[SummaryHierarchy, Summary]]]:
    """``(name, tree)``: local and merged global summaries, then the scorer's
    trees.  Each is encoded before the generator resumes."""
    backgrounds = {
        "numeric": (medical_background_knowledge(include_categorical=False), ["age", "bmi"]),
        "medical": (medical_background_knowledge(), None),
    }
    for label, (background, attributes) in backgrounds.items():
        for arity in (4, 2):  # arity 2 forces a structural merge at every level
            parameters = ClusteringParameters(max_children=arity)
            prefix = f"{label}/b{arity}"
            local_summaries = []
            for peer in range(_PEERS):
                local = SummaryHierarchy(
                    background, attributes=attributes, parameters=parameters,
                    owner=f"p{peer}",
                )
                local.add_records(PatientGenerator(seed=100 + peer).records(_RECORDS))
                local_summaries.append(local)
                yield f"{prefix}/local-{peer}", local
            merged = merge_hierarchies(
                local_summaries[:-1], parameters=parameters, owner="sp"
            )
            yield f"{prefix}/global", merged
            # A restored global summary keeps absorbing like the live one.
            restored = hierarchy_from_dict(hierarchy_to_dict(merged), background)
            merge_into(restored, local_summaries[-1])
            restored.add_records(PatientGenerator(seed=200).records(_RECORDS))
            yield f"{prefix}/global-restored-grown", restored
    yield from _scoring_corpus()


def _scoring_corpus() -> Iterator[Tuple[str, Union[SummaryHierarchy, Summary]]]:
    """Trees whose *shape* is the scorer's output: one per operator mix."""
    background = medical_background_knowledge(include_categorical=False)
    records = PatientGenerator(seed=0, background=background).records(300)
    for parameters in PARAMETER_GRID:
        prefix = (
            f"scoring/b{parameters.max_children}"
            f"-merge{int(parameters.enable_merge)}-split{int(parameters.enable_split)}"
        )
        builder = SummaryBuilder(parameters)
        builder.incorporate_all(random_cells(200, seed=11))
        yield f"{prefix}/cells-200", builder.root
        hierarchy = SummaryHierarchy(
            background, attributes=["age", "bmi"], parameters=parameters, owner="p"
        )
        hierarchy.add_records(records)
        yield f"{prefix}/patients-300", hierarchy


def _digest(encoded: bytes) -> Dict[str, object]:
    return {"sha256": hashlib.sha256(encoded).hexdigest(), "bytes": len(encoded)}


def digests() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Per corpus name, the digest of each encoding: ``dict`` (the structural
    oracle) and, for a hierarchy, ``snapshot`` (its address and text)."""
    recorded = {}
    for name, tree in corpus():
        if isinstance(tree, Summary):  # a bare subtree has only the dict view
            recorded[name] = {"dict": _digest(canonical_encode(summary_to_dict(tree)))}
            continue
        address, text = hierarchy_snapshot(tree)
        recorded[name] = {
            "dict": _digest(canonical_encode(hierarchy_to_dict(tree))),
            "snapshot": {"sha256": address, "bytes": len(text.encode("utf-8"))},
        }
    return recorded


if __name__ == "__main__":
    oracle = {name: encodings["dict"] for name, encodings in digests().items()}
    FIXTURE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
