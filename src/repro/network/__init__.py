"""P2P network substrate: topology, peers, discrete-event simulation.

The paper evaluates its protocols with the BRITE topology generator and the
SimJava discrete-event simulation package.  Neither is available (nor needed)
here; this package provides functionally equivalent substitutes:

* :mod:`repro.network.topology` — power-law overlay generation
  (Barabási–Albert preferential attachment, Waxman), average degree ≈ 4,
* :mod:`repro.network.simulator` — a deterministic discrete-event simulator,
* :mod:`repro.network.peer` / :mod:`repro.network.overlay` — peer and
  superpeer-overlay models,
* :mod:`repro.network.churn` — the skewed node-lifetime model of Table 3,
* :mod:`repro.network.messages` / :mod:`repro.network.metrics` — message
  accounting, the primary metric of the evaluation,
* :mod:`repro.network.faults` — seeded fault injection (partitions, message
  loss, correlated failures) for the robustness scenarios.
"""

from repro.network.churn import LifetimeDistribution
from repro.network.faults import (
    DomainFailureEvent,
    FaultInjector,
    FaultPlan,
    FlashCrowdEvent,
    LinkFaults,
    MassacreEvent,
    PartitionEvent,
)
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter, TrafficReport
from repro.network.overlay import Overlay
from repro.network.peer import PeerNode, PeerRole
from repro.network.simulator import Event, Simulator
from repro.network.topology import TopologyConfig, power_law_topology

__all__ = [
    "Simulator",
    "Event",
    "TopologyConfig",
    "power_law_topology",
    "PeerNode",
    "PeerRole",
    "Overlay",
    "LifetimeDistribution",
    "MessageType",
    "MessageCounter",
    "TrafficReport",
    "FaultPlan",
    "FaultInjector",
    "LinkFaults",
    "PartitionEvent",
    "DomainFailureEvent",
    "MassacreEvent",
    "FlashCrowdEvent",
]
