"""The fixed corpus behind ``golden_digests.json``.

Byte-identity of the summary format is pinned by an oracle, not by a retained
slow path: the SHA-256 of each corpus hierarchy's canonical encoding was
recorded once from the commit *before* cells became shared between the nodes
of a key's root path, and ``test_golden_digests.py`` holds every later commit
to it.  Regenerate only for a deliberate format change::

    PYTHONPATH=src python tests/saintetiq/golden_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.clustering import ClusteringParameters
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.merging import merge_hierarchies, merge_into
from repro.saintetiq.serialization import (
    encoded_size_bytes,
    hierarchy_content_hash,
    hierarchy_from_dict,
    hierarchy_to_dict,
)

FIXTURE = Path(__file__).with_name("golden_digests.json")

_PEERS = 6
_RECORDS = 40


def corpus() -> Iterator[Tuple[str, SummaryHierarchy]]:
    """``(name, hierarchy)``: local summaries and merged global summaries."""
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


def digests() -> Dict[str, Dict[str, object]]:
    return {
        name: {
            "sha256": hierarchy_content_hash(hierarchy),
            "bytes": encoded_size_bytes(hierarchy),
        }
        for name, hierarchy in corpus()
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
