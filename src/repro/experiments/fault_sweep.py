"""Fault-intensity sweep — answer quality and overhead vs. injected faults.

The paper's Figures 4/5 plot answer staleness against domain size; this sweep
plots the same quality axes (plus the new degradation report) against the
*fault intensity* of the network: per-link loss probability, with a partition
window whose width grows with the intensity.  The zero-intensity column runs
with no fault plan at all, so it is byte-identical to the pre-fault behaviour
and anchors the sweep.

What the protocol must show: answers stay *marked* (every degraded answer
carries an accurate :class:`~repro.core.session.DegradationReport`), and the
bounded retry budgets keep the message overhead from growing unbounded with
the loss rate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.reporting import ExperimentTable
from repro.network.faults import FaultPlan, LinkFaults, PartitionEvent
from repro.workloads.scenarios import SimulationScenario

PAPER_EXPECTATION = (
    "degraded-answer fraction and per-query cost grow smoothly with the fault "
    "intensity; retries/backoff keep the overhead bounded (no cliff), and the "
    "zero-intensity column matches the fault-free run exactly"
)

#: Loss probabilities swept by default (0.0 = no fault plan installed).
DEFAULT_INTENSITIES: List[float] = [0.0, 0.05, 0.1, 0.2]


def _plan_for_intensity(
    intensity: float, duration_seconds: float, seed: int
) -> Optional[FaultPlan]:
    """The fault plan of one sweep column: loss + a partition window.

    Intensity 0 returns ``None`` (no plan, the byte-identical baseline).  The
    partition window opens at one quarter of the horizon and widens with the
    intensity, up to half the horizon at intensity 1.
    """
    if intensity <= 0.0:
        return None
    # The window is centered on the sweep's query point (0.4 × horizon) so
    # queries land mid-partition at every intensity; its width grows with the
    # intensity, up to half the horizon.
    half = duration_seconds * 0.25 * min(1.0, intensity)
    center = duration_seconds * 0.4
    return FaultPlan(
        seed=seed,
        link=LinkFaults(drop_probability=intensity),
        partitions=[
            PartitionEvent(at=center - half, fraction=0.5, heal_at=center + half)
        ],
    )


def run_fault_sweep(
    intensities: Optional[Sequence[float]] = None,
    peer_count: int = 96,
    duration_seconds: float = 2 * 3600.0,
    query_count: int = 30,
    seed: int = 0,
    observability=None,
) -> ExperimentTable:
    """Run the sweep: one full adversity scenario per intensity.

    With ``observability`` the sweep is instrumented: every per-intensity
    session routes its spans and metrics into the given
    :class:`~repro.obs.Observability`, and each session's message counter is
    bridged into the registry when its column completes, so the artifact
    aggregates the whole sweep.
    """
    intensities = list(intensities or DEFAULT_INTENSITIES)
    table = ExperimentTable(
        name="Fault sweep — answer quality and overhead vs. fault intensity",
        columns=[
            "intensity",
            "partial_fraction",
            "worst_stale",
            "real_fn",
            "query_messages_per_query",
            "update_messages_per_node",
            "dropped_messages",
            "retries",
        ],
        expectation=PAPER_EXPECTATION,
        parameters={
            "peer_count": peer_count,
            "duration_seconds": duration_seconds,
            "query_count": query_count,
            "seed": seed,
        },
    )
    for intensity in intensities:
        scenario = SimulationScenario(
            peer_count=peer_count,
            duration_seconds=duration_seconds,
            query_count=query_count,
            seed=seed,
            fault_plan=_plan_for_intensity(intensity, duration_seconds, seed + 1),
        )
        session = scenario.apply_dynamics(scenario.builder()).build()
        if observability is not None:
            session.install_observability(observability)
        # Query mid-window so the partition (when there is one) is open.
        session.run_until(duration_seconds * 0.4)
        answers = session.query_batch(count=query_count)
        session.run_until(duration_seconds)

        partial = sum(
            1
            for answer in answers
            if answer.degradation is not None and not answer.degradation.complete
        )
        worst = [a.staleness.worst_stale_fraction for a in answers if a.staleness]
        real_fn = [
            a.staleness.real_false_negative_fraction for a in answers if a.staleness
        ]
        query_messages = sum(answer.query_messages for answer in answers)
        counter = session.system.counter
        traffic = session.traffic()
        table.add_row(
            intensity=intensity,
            partial_fraction=partial / len(answers) if answers else 0.0,
            worst_stale=sum(worst) / len(worst) if worst else 0.0,
            real_fn=sum(real_fn) / len(real_fn) if real_fn else 0.0,
            query_messages_per_query=(
                query_messages / len(answers) if answers else 0.0
            ),
            update_messages_per_node=traffic.update.messages_per_node,
            dropped_messages=counter.dropped_total,
            retries=counter.retry_total,
        )
        if observability is not None:
            counter.to_metrics(observability.metrics)
    return table
