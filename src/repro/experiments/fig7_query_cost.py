"""Figure 7 — query cost vs. number of peers: SQ vs. flooding vs. central index.

The summary-querying algorithm (SQ) cuts the number of exchanged messages by a
factor of ≈3.5 with respect to TTL-3 flooding at 2000 peers, the gap widening
with network size, while the (idealised) centralized index remains the lower
bound.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.reporting import ExperimentTable
from repro.experiments.runner import run_query_cost_comparison
from repro.workloads.scenarios import DEFAULT_NETWORK_SIZES

PAPER_EXPECTATION = (
    "centralized index < summary querying (SQ) < pure flooding; SQ reduces the "
    "query cost by ≈3.5× vs. flooding at 2000 peers and the reduction grows "
    "with the network size"
)


def run_figure7(
    network_sizes: Optional[Sequence[int]] = None,
    queries_per_size: int = 30,
    hit_rate: float = 0.1,
    flooding_ttl: int = 3,
    seed: int = 0,
) -> ExperimentTable:
    """Reproduce Figure 7: per-query message counts for the three algorithms."""
    network_sizes = list(network_sizes or DEFAULT_NETWORK_SIZES)
    table = ExperimentTable(
        name="Figure 7 — query cost vs. number of peers",
        columns=[
            "peers",
            "sq_messages",
            "flooding_messages",
            "centralized_messages",
            "sq_model",
            "centralized_model",
            "flooding_over_sq",
        ],
        expectation=PAPER_EXPECTATION,
        parameters={
            "queries_per_size": queries_per_size,
            "hit_rate": hit_rate,
            "flooding_ttl": flooding_ttl,
            "seed": seed,
        },
    )
    for size in network_sizes:
        run = run_query_cost_comparison(
            peer_count=size,
            query_count=queries_per_size,
            hit_rate=hit_rate,
            flooding_ttl=flooding_ttl,
            seed=seed,
        )
        ratio = (
            run.flooding_messages / run.summary_querying_messages
            if run.summary_querying_messages > 0
            else float("inf")
        )
        table.add_row(
            peers=size,
            sq_messages=run.summary_querying_messages,
            flooding_messages=run.flooding_messages,
            centralized_messages=run.centralized_messages,
            sq_model=run.model_summary_querying_messages,
            centralized_model=run.model_centralized_messages,
            flooding_over_sq=ratio,
        )
    return table
