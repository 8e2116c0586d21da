"""Figure 4 — fraction of stale answers vs. domain size, for several α.

The paper reports the *worst-case* staleness: every stale (freshness 1)
partner selected in ``P_Q`` counts as a false positive and every stale
matching partner outside ``P_Q`` as a false negative.  The headline number is
≈11 % stale answers for a 500-peer domain at α = 0.3, growing with α.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.reporting import ExperimentTable
from repro.experiments.runner import run_maintenance_simulation
from repro.workloads.registry import default_registry
from repro.workloads.scenarios import DEFAULT_ALPHAS, DEFAULT_DOMAIN_SIZES, shared_topologies

PAPER_EXPECTATION = (
    "stale-answer fraction grows with the threshold α and stays bounded "
    "(≈11 % for a 500-peer domain at α = 0.3); it is roughly flat in the "
    "domain size"
)


def run_figure4(
    domain_sizes: Optional[Sequence[int]] = None,
    alphas: Optional[Sequence[float]] = None,
    duration_seconds: float = 6 * 3600.0,
    seed: int = 0,
) -> ExperimentTable:
    """Reproduce Figure 4: worst-case stale answers vs. domain size and α."""
    domain_sizes = list(domain_sizes or DEFAULT_DOMAIN_SIZES)
    alphas = list(alphas or DEFAULT_ALPHAS)

    table = ExperimentTable(
        name="Figure 4 — stale answers vs. domain size",
        columns=["domain_size", "alpha", "stale_fraction", "real_stale_fraction"],
        expectation=PAPER_EXPECTATION,
        parameters={
            "duration_seconds": duration_seconds,
            "seed": seed,
            "lifetime": "log-normal mean 3 h / median 1 h",
        },
    )
    registry = default_registry()
    # Every α runs on the same seeded overlay per size: generated once.
    with shared_topologies():
        for alpha in alphas:
            for size in domain_sizes:
                scenario = registry.scenario(
                    "maintenance",
                    peer_count=size,
                    alpha=alpha,
                    duration_seconds=duration_seconds,
                    seed=seed,
                )
                run = run_maintenance_simulation(scenario)
                table.add_row(
                    domain_size=size,
                    alpha=alpha,
                    stale_fraction=run.mean_worst_stale_fraction,
                    real_stale_fraction=run.mean_real_stale_fraction,
                )
    return table
