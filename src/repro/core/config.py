"""Protocol configuration: every knob of the summary-management protocols."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.freshness import FreshnessMode
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the summary-management protocols.

    Attributes
    ----------
    construction_ttl:
        TTL of the ``sumpeer`` broadcast when a domain is built (the paper
        suggests 2).
    freshness_threshold:
        The α threshold of Section 4.2.2: the reconciliation is triggered when
        the fraction of old descriptions in the cooperation list reaches it.
        The evaluation sweeps 0.1–0.8.
    freshness_mode:
        1-bit (paper's evaluation default) or 2-bit freshness encoding.
    drift_threshold:
        Fraction of descriptor churn in a local summary's intents above which
        the partner should send a ``push`` message (Section 4.2.1).  Nothing
        reads it yet: every delivered modification pushes (ROADMAP item 4
        wires it through ``LocalSummaryService.should_push``).
    flooding_ttl:
        TTL of the inter-domain flooding extension and of the pure-flooding
        baseline (the paper uses 3).
    selective_walk_max_hops:
        Bound on the selective walk used to find a summary peer.
    query_rate_per_peer:
        Queries per peer per second (Table 3: one query per node per 20 min).
    modification_probability:
        Probability that a stale partner's database actually changed with
        respect to a given query — the correction the paper applies to the
        worst-case staleness to obtain the "real estimation" of Figure 5
        (a reduction by a factor of about 4.5).
    count_reconciliation_ring_hops:
        When True (default, physically accurate) a reconciliation round costs
        one message per partner plus the return hop; when False the circulating
        reconciliation message is counted once, which is the accounting the
        paper's Figure 6 appears to use ("only one message is propagated").
    push_max_retries / reconciliation_max_retries / query_max_retries:
        Bounded retransmission budgets used when a fault plan is active.
        ``push_max_retries``: a modification or departure push and a join's
        ``localsum``, retried across a partition too (one sender cannot tell
        the far side is gone); ``reconciliation_max_retries``: each ring hop
        of a reconciliation or a cold start, a ``release`` and a reclaim's
        ``sumpeer``; ``query_max_retries``: a query's hops to the partners and
        the probe of an unreachable domain.  These budgets are the only bound
        on retries: there is no backoff, a retransmission goes out at once and
        adds no event to the schedule.  Every attempt, lost or not, is charged
        (:func:`repro.core.domain.send`).  Unused on the zero-fault path.
    """

    construction_ttl: int = 2
    freshness_threshold: float = 0.3
    freshness_mode: FreshnessMode = FreshnessMode.ONE_BIT
    drift_threshold: float = 0.1
    flooding_ttl: int = 3
    selective_walk_max_hops: int = 64
    query_rate_per_peer: float = 1.0 / 1200.0
    modification_probability: float = 1.0 / 4.5
    superpeer_fraction: float = 1.0 / 16.0
    count_reconciliation_ring_hops: bool = True
    push_max_retries: int = 3
    reconciliation_max_retries: int = 2
    query_max_retries: int = 2

    def __post_init__(self) -> None:
        if self.construction_ttl < 1:
            raise ConfigurationError("construction_ttl must be at least 1")
        if not 0.0 < self.freshness_threshold <= 1.0:
            raise ConfigurationError("freshness_threshold must lie in (0, 1]")
        if not 0.0 <= self.drift_threshold <= 1.0:
            raise ConfigurationError("drift_threshold must lie in [0, 1]")
        if self.flooding_ttl < 1:
            raise ConfigurationError("flooding_ttl must be at least 1")
        if self.selective_walk_max_hops < 1:
            raise ConfigurationError("selective_walk_max_hops must be at least 1")
        if self.query_rate_per_peer < 0:
            raise ConfigurationError("query_rate_per_peer must be non-negative")
        if not 0.0 <= self.modification_probability <= 1.0:
            raise ConfigurationError("modification_probability must lie in [0, 1]")
        if not 0.0 < self.superpeer_fraction <= 1.0:
            raise ConfigurationError("superpeer_fraction must lie in (0, 1]")
        for name in ("push_max_retries", "reconciliation_max_retries", "query_max_retries"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
