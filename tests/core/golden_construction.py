"""What the construction protocol decided, behind ``golden_construction.json``.

``Overlay.latency`` may get faster but never different: a peer switches
summary peers "only if the new SP is closer", so every comparison the
``sumpeer`` broadcasts make — the rejected ones too, which is what the DROP
and LOCALSUM counts record — rides on the exact doubles it returns.  The
digests were recorded once, at the last commit whose ``latency`` asked
``networkx`` for its shortest paths, over ``DomainBuilder.build`` on the
``table3-default`` scenario at 64, 500 and 2000 peers, seeds 1–3;
``test_golden_construction.py`` holds every later commit to them.  Regenerate
only for a deliberate change of the construction protocol or the topology
generator::

    PYTHONPATH=src python tests/core/golden_construction.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.core.construction import DomainBuilder
from repro.network.overlay import Overlay
from repro.workloads.registry import default_registry

FIXTURE = Path(__file__).with_name("golden_construction.json")

PEER_COUNTS = (64, 500, 2000)
SEEDS = (1, 2, 3)


def cases() -> Iterator[Tuple[str, int, int]]:
    for peer_count in PEER_COUNTS:
        for seed in SEEDS:
            yield f"table3-default/{peer_count}/seed-{seed}", peer_count, seed


def construction_digest(peer_count: int, seed: int) -> str:
    scenario = default_registry().scenario(
        "table3-default", peer_count=peer_count, seed=seed
    )
    overlay = Overlay.generate(scenario.topology_config())
    builder = DomainBuilder(scenario.protocol_config(), rng=random.Random(seed))
    report = builder.build(overlay)
    document = {
        "assignment": list(report.assignment.items()),
        "distances": [
            [
                sp_id,
                [
                    [peer_id, repr(domain.distance_to(peer_id))]
                    for peer_id in domain.partner_ids
                ],
            ]
            for sp_id, domain in report.domains.items()
        ],
        "orphans": report.orphan_peers,
        "counter": report.messages.state_payload(),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> Dict[str, str]:
    return {name: construction_digest(peers, seed) for name, peers, seed in cases()}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
