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

from repro.reporting import ExperimentTable
from repro.experiments.runner import MaintenanceRun, maintenance_sweep
from repro.workloads.scenarios import DEFAULT_DOMAIN_SIZES

PAPER_EXPECTATION = (
    "false negatives stay small (≈3 % for domains below 2000 peers); the real "
    "staleness estimate is ≈4.5× lower than the worst-case one"
)


#: The one α Figure 5 plots.
FIGURE5_ALPHA: float = 0.3


def run_figure5(
    domain_sizes: Optional[Sequence[int]] = None,
    alpha: float = FIGURE5_ALPHA,
    duration_seconds: float = 6 * 3600.0,
    seed: int = 0,
) -> ExperimentTable:
    """Reproduce Figure 5: real false-negative fraction vs. domain size."""
    runs = maintenance_sweep(
        domain_sizes or DEFAULT_DOMAIN_SIZES, [alpha], duration_seconds, seed
    )
    return figure5_table(runs, alpha, duration_seconds, seed)


def figure5_table(
    runs: Sequence[MaintenanceRun], alpha: float, duration_seconds: float, seed: int
) -> ExperimentTable:
    """Figure 5 read from ``runs`` (all at ``alpha``), one row per run."""
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
    for run in runs:
        worst = run.mean_worst_stale_fraction
        false_negatives = run.mean_real_false_negative_fraction
        reduction = (
            worst / false_negatives if false_negatives > 0 else float("inf")
        )
        table.add_row(
            domain_size=run.scenario.peer_count,
            alpha=alpha,
            false_negative_fraction=false_negatives,
            worst_stale_fraction=worst,
            reduction_factor=reduction,
        )
    return table
