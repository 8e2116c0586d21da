"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.mapping import MappingService


@pytest.fixture
def background():
    """The full medical background knowledge (age, bmi, sex, disease)."""
    return medical_background_knowledge()


@pytest.fixture
def numeric_background():
    """The age/bmi-only background knowledge of the paper's running example."""
    return medical_background_knowledge(include_categorical=False)


@pytest.fixture
def paper_relation():
    """The exact three-tuple Patient relation of Table 1."""
    return PatientGenerator(seed=0).paper_example_relation()


@pytest.fixture
def paper_records(paper_relation):
    return [record.as_dict() for record in paper_relation]


@pytest.fixture
def mapping_service(numeric_background):
    return MappingService(numeric_background, attributes=["age", "bmi"])


@pytest.fixture
def paper_cells(mapping_service, paper_records):
    """The grid cells of Table 2."""
    return mapping_service.map_records(paper_records, peer="peer-a")


@pytest.fixture
def example_hierarchy(numeric_background, paper_records):
    hierarchy = SummaryHierarchy(
        numeric_background, attributes=["age", "bmi"], owner="peer-a"
    )
    hierarchy.add_records(paper_records)
    return hierarchy


@pytest.fixture
def small_overlay():
    """A reproducible 32-peer power-law overlay."""
    return Overlay.generate(TopologyConfig(peer_count=32, seed=7))


@pytest.fixture
def medium_overlay():
    """A reproducible 120-peer power-law overlay."""
    return Overlay.generate(TopologyConfig(peer_count=120, seed=11))


@pytest.fixture
def protocol_config():
    return ProtocolConfig()


@pytest.fixture
def rng():
    return random.Random(1234)


def _with_removed_tallies(document):
    """``document`` shaped as a checkpoint written while runs kept three tallies.

    Such a checkpoint also carries the protocol's two backoff knobs, the
    maintenance engine's copies of the push and ring-hop counts beside its
    reconciliation history, and (when faulted) the fault injector's own
    tally with the duplicate column it once had.  Values are filled from the
    document's own counter and domains; a restore must ignore all of them.
    """
    counter = MessageCounter.from_state(document["counter"])
    older = dict(document)
    older["config"] = {
        **document["config"],
        "retry_backoff_seconds": 2.0,
        "retry_backoff_factor": 2.0,
    }
    maintenance = document["maintenance"]
    older["maintenance"] = {
        "push_messages": counter.count(MessageType.PUSH),
        "reconciliations": maintenance["reconciliations"],
        "reconciliation_messages": counter.count(MessageType.RECONCILIATION),
        "cold_starts": maintenance["cold_starts"],
        "history": [
            {
                "summary_peer_id": domain["summary_peer_id"],
                "time": document["simulator"]["now"],
                "participants": [entry[0] for entry in domain["entries"]],
                "removed_partners": [],
                "messages": len(domain["entries"]) + 1,
            }
            for domain in document["domains"]
        ],
    }
    if "faults" in document:
        older["faults"] = {
            **document["faults"],
            "stats": {
                "messages_dropped": counter.dropped_total,
                "retries": counter.retry_total,
                "failed_pushes": 1,
                "unreachable_probes": 1,
                "backoff_seconds": 6.0,
                "messages_duplicated": 0,
            },
        }
    return older


@pytest.fixture
def with_removed_tallies():
    """Turns a checkpoint document into its older, three-tally shape."""
    return _with_removed_tallies
