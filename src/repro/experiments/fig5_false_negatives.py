"""Figure 5 — false negatives vs. domain size (precision-first routing).

When the query is propagated only to ``P_Q ∩ P_fresh``, false positives
disappear but excluded stale peers whose data still matches the query become
false negatives.  Taking into account the probability that a stale peer's
database actually changed relative to the query, the paper finds the false-
negative fraction limited to ≈3 % for domains below 2000 peers — a ≈4.5×
reduction with respect to the worst-case estimate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.reporting import ExperimentTable
from repro.experiments.runner import run_maintenance_simulation
from repro.workloads.registry import default_registry
from repro.workloads.scenarios import DEFAULT_DOMAIN_SIZES

PAPER_EXPECTATION = (
    "false negatives stay small (≈3 % for domains below 2000 peers); the real "
    "staleness estimate is ≈4.5× lower than the worst-case one"
)


def run_figure5(
    domain_sizes: Optional[Sequence[int]] = None,
    alpha: float = 0.3,
    duration_seconds: float = 6 * 3600.0,
    seed: int = 0,
) -> ExperimentTable:
    """Reproduce Figure 5: real false-negative fraction vs. domain size."""
    domain_sizes = list(domain_sizes or DEFAULT_DOMAIN_SIZES)
    table = ExperimentTable(
        name="Figure 5 — false negatives vs. domain size",
        columns=[
            "domain_size",
            "alpha",
            "false_negative_fraction",
            "worst_stale_fraction",
            "reduction_factor",
        ],
        expectation=PAPER_EXPECTATION,
        parameters={
            "alpha": alpha,
            "duration_seconds": duration_seconds,
            "seed": seed,
        },
    )
    registry = default_registry()
    for size in domain_sizes:
        scenario = registry.scenario(
            "maintenance",
            peer_count=size,
            alpha=alpha,
            duration_seconds=duration_seconds,
            seed=seed,
        )
        run = run_maintenance_simulation(scenario)
        worst = run.mean_worst_stale_fraction
        false_negatives = run.mean_real_false_negative_fraction
        reduction = (
            worst / false_negatives if false_negatives > 0 else float("inf")
        )
        table.add_row(
            domain_size=size,
            alpha=alpha,
            false_negative_fraction=false_negatives,
            worst_stale_fraction=worst,
            reduction_factor=reduction,
        )
    return table
