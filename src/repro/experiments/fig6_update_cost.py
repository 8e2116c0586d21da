"""Figure 6 — number of update messages vs. domain size, for α ∈ {0.3, 0.8}.

The total number of push + reconciliation messages grows with the domain size
but the number of messages *per node* stays roughly constant; tightening the
threshold from 0.8 to 0.3 costs only ≈1.2× more messages on average while
substantially reducing staleness (Figure 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.costmodel.update_cost import UpdateCostModel
from repro.reporting import ExperimentTable
from repro.experiments.runner import run_maintenance_simulation
from repro.workloads.registry import default_registry
from repro.workloads.scenarios import DEFAULT_DOMAIN_SIZES

PAPER_EXPECTATION = (
    "total messages increase with the domain size, per-node messages stay "
    "roughly flat; moving α from 0.8 to 0.3 increases the cost by only ≈1.2× "
    "on average"
)


def run_figure6(
    domain_sizes: Optional[Sequence[int]] = None,
    alphas: Optional[Sequence[float]] = None,
    duration_seconds: float = 6 * 3600.0,
    seed: int = 0,
) -> ExperimentTable:
    """Reproduce Figure 6: update traffic vs. domain size for two α values."""
    domain_sizes = list(domain_sizes or DEFAULT_DOMAIN_SIZES)
    alphas = list(alphas or (0.3, 0.8))
    table = ExperimentTable(
        name="Figure 6 — update messages vs. domain size",
        columns=[
            "domain_size",
            "alpha",
            "total_messages",
            "messages_per_node",
            "push_messages",
            "reconciliations",
            "model_messages_per_node",
        ],
        expectation=PAPER_EXPECTATION,
        parameters={"duration_seconds": duration_seconds, "seed": seed},
    )
    registry = default_registry()
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
            model = UpdateCostModel(
                domain_size=size,
                lifetime_seconds=scenario.lifetime_mean_seconds,
                alpha=alpha,
            )
            table.add_row(
                domain_size=size,
                alpha=alpha,
                total_messages=run.update_messages,
                messages_per_node=run.messages_per_node,
                push_messages=run.push_messages,
                reconciliations=run.reconciliations,
                model_messages_per_node=model.messages_per_node(duration_seconds),
            )
    return table


def cost_increase_factor(table: ExperimentTable, low_alpha: float, high_alpha: float) -> float:
    """Average per-node cost ratio between the low and high α settings."""
    low_rows = table.filter(alpha=low_alpha)
    high_rows = table.filter(alpha=high_alpha)
    ratios: List[float] = []
    for low_row in low_rows:
        for high_row in high_rows:
            if high_row["domain_size"] != low_row["domain_size"]:
                continue
            if high_row["messages_per_node"] > 0:
                ratios.append(
                    low_row["messages_per_node"] / high_row["messages_per_node"]
                )
    return sum(ratios) / len(ratios) if ratios else float("nan")
