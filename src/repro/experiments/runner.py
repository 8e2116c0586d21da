"""Shared simulation drivers used by the figure experiments.

Figures 4–6 study the maintenance of a *single* domain of varying size under
churn; Figure 7 measures end-to-end query cost over a multi-domain network.
The drivers here run those simulations and return raw measurements; the
figure modules turn them into :class:`ExperimentTable` rows.  Figures 4, 5
and 6 are three readings of one experiment: :func:`maintenance_sweep`
simulates each (α, size) once, and ``repro all`` reads all three tables from
one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.centralized import CentralizedIndex, centralized_query_cost
from repro.baselines.flooding import FloodingSearch
from repro.core.protocol import UPDATE_MESSAGE_TYPES
from repro.core.routing import QueryRequest, RoutingPolicy
from repro.core.staleness import StalenessSnapshot
from repro.costmodel.query_cost import PaperQueryScenario
from repro.network.overlay import Overlay
from repro.workloads.registry import default_registry
from repro.workloads.scenarios import QUERY_INTERVAL_SECONDS, SimulationScenario


@dataclass
class MaintenanceRun:
    """Measurements of one single-domain churn/maintenance simulation."""

    scenario: SimulationScenario
    snapshots: List[StalenessSnapshot] = field(default_factory=list)
    update_messages: int = 0
    push_messages: int = 0
    reconciliation_messages: int = 0
    reconciliations: int = 0
    domain_size: int = 0

    @property
    def mean_worst_stale_fraction(self) -> float:
        fractions = [s.worst_stale_fraction for s in self.snapshots if s.relevant_count]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def mean_real_false_negative_fraction(self) -> float:
        fractions = [
            s.real_false_negative_fraction for s in self.snapshots if s.relevant_count
        ]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def mean_real_stale_fraction(self) -> float:
        fractions = [s.real_stale_fraction for s in self.snapshots if s.relevant_count]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def messages_per_node(self) -> float:
        if self.domain_size == 0:
            return 0.0
        return self.update_messages / self.domain_size


def run_maintenance_simulation(
    scenario: SimulationScenario, overlay: Optional[Overlay] = None
) -> MaintenanceRun:
    """Simulate churn + maintenance on a single domain and sample staleness.

    Three queries are sampled (not charged to traffic) every
    :data:`QUERY_INTERVAL_SECONDS` of virtual time, Table 3's query rate of
    one query per node per 20 minutes.  A low rate of local data
    modifications (one per peer every three hours) runs alongside the churn,
    matching the paper's assumption that churn dominates but data does change
    occasionally.  ``overlay`` is the scenario's topology, if already built
    (see :meth:`SimulationScenario.single_domain_builder`).
    """
    session = scenario.apply_dynamics(scenario.single_domain_builder(overlay)).build()
    run = MaintenanceRun(scenario=scenario, domain_size=session.overlay.size)

    baseline_update = session.system.counter.count_types(list(UPDATE_MESSAGE_TYPES))

    time = QUERY_INTERVAL_SECONDS
    while time <= scenario.duration_seconds:
        session.run_until(time)
        # One batched call per tick: the per-domain scans are shared across
        # the tick's samples (byte-identical to sampling one by one).
        run.snapshots.extend(session.staleness_batch(3))
        time += QUERY_INTERVAL_SECONDS
    session.run_until(scenario.duration_seconds)

    run.update_messages = (
        session.system.counter.count_types(list(UPDATE_MESSAGE_TYPES))
        - baseline_update
    )
    report = session.maintenance_report(scenario.duration_seconds)
    run.push_messages = report.push_messages
    run.reconciliation_messages = report.reconciliation_messages
    run.reconciliations = report.reconciliations
    return run


def maintenance_sweep(
    domain_sizes: Sequence[int],
    alphas: Sequence[float],
    duration_seconds: float,
    seed: int,
) -> List[MaintenanceRun]:
    """The maintenance runs behind Figures 4–6, α-outer, size-inner.

    Each (α, size) is simulated once.  Each size's overlay is generated once;
    every run gets a fresh :class:`Overlay` over its own copy of the links,
    so a run that rewires its overlay leaves the next α's untouched.
    """
    registry = default_registry()
    links: Dict[int, Dict[str, Dict[str, float]]] = {}
    runs = []
    for alpha in alphas:
        for size in domain_sizes:
            scenario = registry.scenario(
                "maintenance",
                peer_count=size,
                alpha=alpha,
                duration_seconds=duration_seconds,
                seed=seed,
            )
            if size not in links:
                links[size] = Overlay.generate(scenario.topology_config()).links
            overlay = Overlay({peer: dict(nbrs) for peer, nbrs in links[size].items()})
            runs.append(run_maintenance_simulation(scenario, overlay))
    return runs



@dataclass
class QueryCostRun:
    """Measurements of one multi-domain query-cost comparison."""

    peer_count: int
    queries: int = 0
    summary_querying_messages: float = 0.0
    flooding_messages: float = 0.0
    centralized_messages: float = 0.0
    model_summary_querying_messages: float = 0.0
    model_centralized_messages: float = 0.0

    def as_row(self) -> Dict[str, float]:
        return {
            "peers": self.peer_count,
            "sq_messages": self.summary_querying_messages,
            "flooding_messages": self.flooding_messages,
            "centralized_messages": self.centralized_messages,
            "sq_model": self.model_summary_querying_messages,
            "centralized_model": self.model_centralized_messages,
        }


def run_query_cost_comparison(
    peer_count: int,
    query_count: int = 50,
    hit_rate: float = 0.1,
    alpha: float = 0.3,
    flooding_ttl: int = 3,
    seed: int = 0,
    false_positive_rate: float = 0.0,
) -> QueryCostRun:
    """Compare summary querying, pure flooding and a centralized index.

    Every algorithm answers the same planned queries over the same overlay;
    the summary-querying run visits as many domains as needed to gather every
    available result (a total-lookup query, the paper's Figure 7 setting).
    """
    scenario = default_registry().scenario(
        "query-cost",
        peer_count=peer_count,
        alpha=alpha,
        matching_fraction=hit_rate,
        seed=seed,
    )
    session = scenario.session()
    overlay = session.overlay
    content = session.content
    assert content is not None

    flooding = FloodingSearch(ttl=flooding_ttl)
    centralized = CentralizedIndex()
    originators = session.partner_ids() or overlay.peer_ids

    run = QueryCostRun(peer_count=peer_count, queries=query_count)
    required = max(1, round(hit_rate * peer_count))
    rng_index = 0
    requests = []
    for _query_index in range(query_count):
        originator = originators[rng_index % len(originators)]
        rng_index += 7  # deterministic, spread over the population
        requests.append(
            QueryRequest(
                originator=originator,
                query_id=session.next_query_id(),
                policy=RoutingPolicy.ALL,
                required_results=required,
            )
        )

    # The SQ leg runs as one batch (byte-identical per-query results, shared
    # derivation work); the baselines keep their own counters, so posing them
    # after the batch leaves every reported figure unchanged.
    answers = session.query_batch(requests=requests, include_staleness=False)
    sq_total = float(sum(answer.total_messages for answer in answers))

    flood_total = 0.0
    central_total = 0.0
    for request in requests:
        flood_outcome = flooding.query(
            overlay,
            request.originator,
            content,
            request.query_id,
            required_results=required,
        )
        flood_total += flood_outcome.total_messages

        central_outcome = centralized.query(
            overlay.peer_ids, request.originator, content, request.query_id
        )
        central_total += central_outcome.total_messages

    run.summary_querying_messages = sq_total / query_count
    run.flooding_messages = flood_total / query_count
    run.centralized_messages = central_total / query_count
    run.model_summary_querying_messages = PaperQueryScenario(
        peer_count=peer_count, false_positive_rate=false_positive_rate
    ).summary_querying_cost()
    run.model_centralized_messages = centralized_query_cost(peer_count, hit_rate)
    return run
