"""Unit tests for the churn (lifetime) model."""

import random
import statistics

import pytest

from repro.exceptions import ConfigurationError
from repro.network.churn import ChurnSchedule, LifetimeDistribution, lifetime_distribution


class TestLifetimeDistribution:
    def test_default_parameters_match_table3(self):
        distribution = LifetimeDistribution()
        assert distribution.expected_mean() == pytest.approx(3 * 3600.0, rel=1e-9)
        assert distribution.expected_median() == pytest.approx(3600.0, rel=1e-9)

    def test_sampled_median_close_to_target(self):
        distribution = LifetimeDistribution()
        rng = random.Random(0)
        samples = distribution.sample_many(4000, rng)
        assert statistics.median(samples) == pytest.approx(3600.0, rel=0.15)

    def test_sampled_mean_close_to_target(self):
        distribution = LifetimeDistribution()
        rng = random.Random(1)
        samples = distribution.sample_many(20000, rng)
        assert statistics.fmean(samples) == pytest.approx(3 * 3600.0, rel=0.25)

    def test_distribution_is_right_skewed(self):
        distribution = LifetimeDistribution()
        rng = random.Random(2)
        samples = distribution.sample_many(5000, rng)
        assert statistics.fmean(samples) > statistics.median(samples)

    def test_invalid_median_raises(self):
        with pytest.raises(ConfigurationError):
            LifetimeDistribution(median_seconds=0)

    def test_mean_below_median_raises(self):
        with pytest.raises(ConfigurationError):
            LifetimeDistribution(mean_seconds=100, median_seconds=200)

    def test_degenerate_distribution(self):
        distribution = LifetimeDistribution(mean_seconds=60, median_seconds=60)
        assert distribution.sigma == 0.0
        assert distribution.sample(random.Random(0)) == 60

    def test_one_shared_distribution_per_mean_and_median(self):
        shared = lifetime_distribution(3 * 3600.0, 3600.0)
        assert lifetime_distribution(3 * 3600.0, 3600.0) is shared
        assert lifetime_distribution(2 * 3600.0, 3600.0) is not shared
        assert shared == LifetimeDistribution()

    def test_a_shared_distribution_draws_what_a_fresh_one_draws(self):
        shared = lifetime_distribution(3 * 3600.0, 3600.0)
        first, second = random.Random(5), random.Random(5)
        assert [shared.sample(first) for _ in range(50)] == [
            LifetimeDistribution().sample(second) for _ in range(50)
        ]

    def test_staleness_probability_monotone(self):
        distribution = LifetimeDistribution()
        assert distribution.staleness_probability(0) == 0.0
        short = distribution.staleness_probability(600)
        long = distribution.staleness_probability(6 * 3600)
        assert 0.0 <= short < long <= 1.0

    def test_staleness_probability_at_median_is_half(self):
        distribution = LifetimeDistribution()
        assert distribution.staleness_probability(3600.0) == pytest.approx(0.5, abs=1e-6)


class TestChurnSchedule:
    def test_draw_produces_one_lifetime_per_peer(self):
        schedule = ChurnSchedule.draw(peer_count=50, seed=3)
        assert len(schedule.lifetimes) == 50
        assert all(lifetime > 0 for lifetime in schedule.lifetimes)

    def test_lifetime_of_wraps_around(self):
        schedule = ChurnSchedule.draw(peer_count=5, seed=4)
        assert schedule.lifetime_of(7) == schedule.lifetimes[2]

    def test_reproducible_with_seed(self):
        first = ChurnSchedule.draw(peer_count=10, seed=5)
        second = ChurnSchedule.draw(peer_count=10, seed=5)
        assert first.lifetimes == second.lifetimes
