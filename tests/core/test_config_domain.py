"""Unit tests for protocol configuration and domains."""

import dataclasses

import pytest

from repro.core.config import ProtocolConfig
from repro.core.domain import Domain
from repro.core.freshness import Freshness, FreshnessMode
from repro.exceptions import ConfigurationError, ProtocolError


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        config = ProtocolConfig()
        assert config.construction_ttl == 2
        assert config.flooding_ttl == 3
        assert config.freshness_mode is FreshnessMode.ONE_BIT
        assert 0 < config.freshness_threshold <= 1

    def test_invalid_threshold_raises(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(freshness_threshold=0.0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(freshness_threshold=1.5)

    def test_invalid_ttl_raises(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(construction_ttl=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(flooding_ttl=0)

    def test_invalid_probability_raises(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(modification_probability=1.5)

    def test_invalid_superpeer_fraction_raises(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(superpeer_fraction=0.0)

    def test_retries_have_no_backoff_knobs(self):
        assert len(dataclasses.fields(ProtocolConfig)) == 13
        with pytest.raises(TypeError):
            ProtocolConfig(retry_backoff_seconds=2.0)
        with pytest.raises(TypeError):
            ProtocolConfig(retry_backoff_factor=2.0)

    def test_replace_threshold_copies_other_fields(self):
        config = ProtocolConfig(construction_ttl=3, flooding_ttl=4)
        copy = dataclasses.replace(config, freshness_threshold=0.5)
        assert copy.freshness_threshold == 0.5
        assert copy.construction_ttl == 3
        assert copy.flooding_ttl == 4
        assert config.freshness_threshold != 0.5


class TestDomain:
    def test_create_and_add_partner(self):
        domain = Domain.create("sp")
        domain.add_partner("p1", distance=10.0)
        assert domain.is_partner("p1")
        assert domain.partner_ids == ["p1"]
        assert domain.size == 2  # superpeer + one partner

    def test_distance_bookkeeping(self):
        domain = Domain.create("sp")
        domain.add_partner("p1", distance=25.0)
        assert domain.distance_to("p1") == 25.0
        assert domain.distance_to("p2") == float("inf")

    def test_remove_partner(self):
        domain = Domain.create("sp")
        domain.add_partner("p1", distance=1.0)
        domain.remove_partner("p1")
        assert not domain.is_partner("p1")
        assert domain.distance_to("p1") == float("inf")

    def test_freshness_views(self):
        domain = Domain.create("sp")
        domain.add_partner("p1", distance=1.0)
        domain.add_partner("p2", distance=1.0, freshness=Freshness.STALE)
        assert domain.fresh_partners() == ["p1"]
        assert domain.old_partners() == ["p2"]
        assert domain.old_fraction() == pytest.approx(0.5)
        assert domain.needs_reconciliation(0.5)
        assert not domain.needs_reconciliation(0.6)

    def test_global_summary_installation(self, example_hierarchy):
        domain = Domain.create("sp")
        assert not domain.has_global_summary()
        assert domain.coverage() == set()
        domain.install_global_summary(example_hierarchy)
        assert domain.has_global_summary()
        assert domain.coverage() == {"peer-a"}

    def test_validate_rejects_nonzero_self_distance(self):
        domain = Domain.create("sp")
        domain.add_partner("sp", distance=5.0)
        with pytest.raises(ProtocolError):
            domain.validate()

    def test_validate_passes_on_consistent_domain(self):
        domain = Domain.create("sp")
        domain.add_partner("p1", distance=3.0)
        domain.validate()
