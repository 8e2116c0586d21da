"""Simulation scenarios: the parameter space of Table 3.

A :class:`SimulationScenario` bundles every knob of one simulation run —
network size, topology, churn model, query workload, protocol configuration —
and turns it into a ready-to-run
:class:`~repro.core.session.NetworkSession` (planned-content mode) through
the declarative :class:`~repro.core.session.SystemBuilder`:
:meth:`SimulationScenario.session` for the multi-domain network,
:meth:`SimulationScenario.single_domain_session` for the one-domain setting
of Figures 4–6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.session import NetworkSession, SystemBuilder
from repro.exceptions import ConfigurationError
from repro.network.churn import LifetimeDistribution
from repro.network.faults import FaultPlan
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig

#: Table 3's query rate: one query per node every 20 minutes.
QUERY_INTERVAL_SECONDS: float = 1200.0


def table3_parameters() -> Dict[str, object]:
    """The simulation parameters of the paper's Table 3, as a plain dict."""
    return {
        "local_summary_lifetime": {
            "distribution": "skewed (log-normal)",
            "mean_seconds": 3 * 3600.0,
            "median_seconds": 3600.0,
        },
        "number_of_peers": (16, 5000),
        "number_of_queries": 200,
        "matching_nodes_fraction": 0.10,
        "freshness_threshold_alpha": (0.1, 0.8),
        "query_rate_per_node_per_second": 1.0 / QUERY_INTERVAL_SECONDS,
        "average_degree": 4,
        "flooding_ttl": 3,
    }


#: Default local-data modification rate: one modification per peer every
#: three hours, the paper's "churn dominates but data does change" regime.
DEFAULT_MODIFICATION_RATE_PER_PEER: float = 1.0 / 10800.0

#: Network sizes swept by the experiments (the paper spans 16–5000 peers).
DEFAULT_NETWORK_SIZES: List[int] = [16, 100, 500, 1000, 2000, 3500, 5000]
#: Domain sizes swept by Figures 4–6.
DEFAULT_DOMAIN_SIZES: List[int] = [16, 100, 500, 1000, 2000, 5000]
#: α values swept by Figure 4.
DEFAULT_ALPHAS: List[float] = [0.1, 0.3, 0.8]


@dataclass
class SimulationScenario:
    """One fully specified simulation run."""

    peer_count: int = 500
    alpha: float = 0.3
    matching_fraction: float = 0.1
    query_count: int = 200
    duration_seconds: float = 6 * 3600.0
    average_degree: float = 4.0
    superpeer_fraction: float = 1.0 / 16.0
    lifetime_mean_seconds: float = 3 * 3600.0
    lifetime_median_seconds: float = 3600.0
    downtime_seconds: float = 600.0
    graceful_fraction: float = 0.9
    seed: int = 0
    extra_config: Dict[str, object] = field(default_factory=dict)
    #: Optional adversity: a seeded fault plan (partitions, loss, massacres).
    #: ``None`` keeps the scenario byte-identical to its pre-fault behaviour.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.peer_count < 2:
            raise ConfigurationError("peer_count must be at least 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1]")
        if self.duration_seconds <= 0:
            raise ConfigurationError("duration_seconds must be positive")

    # -- factories -------------------------------------------------------------------

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            freshness_threshold=self.alpha,
            superpeer_fraction=self.superpeer_fraction,
            **self.extra_config,  # type: ignore[arg-type]
        )

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(
            peer_count=self.peer_count,
            average_degree=self.average_degree,
            seed=self.seed,
        )

    def lifetime_distribution(self) -> LifetimeDistribution:
        return LifetimeDistribution(
            mean_seconds=self.lifetime_mean_seconds,
            median_seconds=self.lifetime_median_seconds,
        )

    def builder(self, summary_peers: Optional[List[str]] = None) -> SystemBuilder:
        """A :class:`SystemBuilder` declaring this scenario (multi-domain).

        The builder is returned unfinished so callers can add churn or
        modification schedules before ``.build()``.
        """
        builder = (
            SystemBuilder()
            .topology(self.topology_config())
            .protocol(self.protocol_config())
            .planned_content(hit_rate=self.matching_fraction, seed=self.seed)
            .seed(self.seed)
        )
        if summary_peers is not None:
            builder.domains(summary_peers=summary_peers)
        if self.fault_plan is not None:
            builder.faults(self.fault_plan)
        return builder

    def single_domain_builder(self, overlay: Optional[Overlay] = None) -> SystemBuilder:
        """A builder for the single-domain setting of Figures 4–6.

        Figures 4–6 study *one* domain of varying size; forcing the best-
        connected peer as the only summary peer makes the domain size equal
        to the network size.  ``overlay`` is the network to build on; it
        must be this scenario's topology (a sweep generates each size once
        and hands every run a fresh copy).  Without it the topology is
        generated here.
        """
        if overlay is None:
            overlay = Overlay.generate(self.topology_config())
        config = ProtocolConfig(
            freshness_threshold=self.alpha,
            superpeer_fraction=1.0 / max(2, self.peer_count),
            construction_ttl=max(
                2, _diameter_upper_bound(self.peer_count, self.average_degree)
            ),
            **self.extra_config,  # type: ignore[arg-type]
        )
        hub = max(overlay.peer_ids, key=overlay.degree)
        builder = (
            SystemBuilder()
            .topology(overlay)
            .protocol(config)
            .planned_content(hit_rate=self.matching_fraction, seed=self.seed)
            .domains(summary_peers=[hub])
            .seed(self.seed)
        )
        if self.fault_plan is not None:
            builder.faults(self.fault_plan)
        return builder

    def apply_dynamics(
        self,
        builder: SystemBuilder,
        modification_rate_per_peer: float = DEFAULT_MODIFICATION_RATE_PER_PEER,
    ) -> SystemBuilder:
        """Declare this scenario's churn + modification schedule on ``builder``.

        The single place the churn knobs (lifetime distribution, downtime,
        graceful fraction) and the default modification rate are turned into
        builder calls — shared by the experiment drivers and the CLI.
        """
        builder.churn(
            self.duration_seconds,
            lifetime=self.lifetime_distribution(),
            downtime_seconds=self.downtime_seconds,
            graceful_fraction=self.graceful_fraction,
        )
        if modification_rate_per_peer > 0:
            builder.modifications(self.duration_seconds, modification_rate_per_peer)
        return builder

    def session(self, summary_peers: Optional[List[str]] = None) -> NetworkSession:
        """The multi-domain session for this scenario, built without its dynamics.

        No churn and no modifications are scheduled: the network stays as
        constructed until something is scheduled on it (the Figure 7 driver
        queries it so).  The CLI's scenario commands build through
        ``apply_dynamics(builder()).build()`` to run the scenario's churn.
        """
        return self.builder(summary_peers=summary_peers).build()

    def single_domain_session(self) -> NetworkSession:
        """The single-domain session (Figures 4–6 setting), without its dynamics.

        Like :meth:`session`, this schedules no churn and no modifications;
        ``apply_dynamics(single_domain_builder()).build()``, which the
        Figure 4–6 driver uses, does.
        """
        return self.single_domain_builder().build()

    def query_interval_seconds(self) -> float:
        """Average time between two consecutive queries in the whole network."""
        rate = self.peer_count / QUERY_INTERVAL_SECONDS
        return 1.0 / rate if rate > 0 else float("inf")


def _diameter_upper_bound(peer_count: int, average_degree: float) -> int:
    """A generous TTL that reaches the whole network (log_k(n) + slack)."""
    import math

    if average_degree <= 1:
        return peer_count
    return int(math.ceil(math.log(max(peer_count, 2), average_degree))) + 2
