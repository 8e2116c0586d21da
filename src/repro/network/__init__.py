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

Each name loads on first use: ``import repro.network`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "churn": "LifetimeDistribution",
    "faults": (
        "DomainFailureEvent FaultInjector FaultPlan FlashCrowdEvent LinkFaults"
        " MassacreEvent PartitionEvent"
    ),
    "messages": "MessageType",
    "metrics": "MessageCounter TrafficReport",
    "overlay": "Overlay",
    "peer": "PeerNode PeerRole",
    "simulator": "Event Simulator",
    "topology": "TopologyConfig power_law_topology",
})

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
