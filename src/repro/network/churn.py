"""Peer lifetime (churn) model.

Table 3 of the paper: local summary lifetimes — tied to node lifetimes —
follow a *skewed distribution with a mean of 3 hours and a median of
60 minutes*.  A log-normal distribution fits that description exactly and is
the standard churn model for P2P measurement studies; its two parameters are
derived in closed form from the requested mean and median.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LifetimeDistribution:
    """Log-normal lifetime distribution parameterised by mean and median.

    For a log-normal variable, ``median = exp(mu)`` and
    ``mean = exp(mu + sigma^2 / 2)``; hence ``mu = ln(median)`` and
    ``sigma = sqrt(2 ln(mean / median))``.  The paper's defaults (mean 3 h,
    median 1 h) give ``sigma ≈ 1.48``, a heavily right-skewed distribution:
    most peers stay briefly while a few stay a long time.
    """

    mean_seconds: float = 3 * 3600.0
    median_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.median_seconds <= 0:
            raise ConfigurationError("median lifetime must be positive")
        if self.mean_seconds < self.median_seconds:
            raise ConfigurationError(
                "a log-normal distribution requires mean >= median "
                f"(got mean={self.mean_seconds}, median={self.median_seconds})"
            )

    @cached_property
    def mu(self) -> float:
        return math.log(self.median_seconds)

    @cached_property
    def sigma(self) -> float:
        ratio = self.mean_seconds / self.median_seconds
        return math.sqrt(max(0.0, 2.0 * math.log(ratio)))

    def sample(self, rng: random.Random) -> float:
        """Draw one lifetime in seconds."""
        if self.sigma == 0.0:
            return self.median_seconds
        return rng.lognormvariate(self.mu, self.sigma)

    def sample_many(self, count: int, rng: random.Random) -> List[float]:
        return [self.sample(rng) for _ in range(count)]

    def expected_mean(self) -> float:
        """Analytical mean implied by (mu, sigma) — equals ``mean_seconds``."""
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def expected_median(self) -> float:
        return math.exp(self.mu)

    def staleness_probability(self, horizon_seconds: float) -> float:
        """P(lifetime <= horizon): chance a partner departs within the horizon.

        Uses the log-normal CDF.  This is the analytical counterpart of the
        simulated staleness fractions of Figure 4.
        """
        if horizon_seconds <= 0:
            return 0.0
        if self.sigma == 0.0:
            return 1.0 if horizon_seconds >= self.median_seconds else 0.0
        z = (math.log(horizon_seconds) - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))


@lru_cache(maxsize=64)
def lifetime_distribution(
    mean_seconds: float, median_seconds: float
) -> LifetimeDistribution:
    """One shared distribution per (mean, median): its draws reuse ``mu`` and ``sigma``."""
    return LifetimeDistribution(mean_seconds, median_seconds)


@dataclass
class ChurnSchedule:
    """Pre-drawn lifetimes/downtimes for a population of peers."""

    lifetimes: List[float]
    downtime_seconds: float = 600.0

    @classmethod
    def draw(
        cls,
        peer_count: int,
        distribution: Optional[LifetimeDistribution] = None,
        downtime_seconds: float = 600.0,
        seed: int = 0,
    ) -> "ChurnSchedule":
        rng = random.Random(seed)
        distribution = distribution or LifetimeDistribution()
        return cls(
            lifetimes=distribution.sample_many(peer_count, rng),
            downtime_seconds=downtime_seconds,
        )

    def lifetime_of(self, index: int) -> float:
        return self.lifetimes[index % len(self.lifetimes)]
