"""Unit tests for push/pull summary maintenance (Section 4.2)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.domain import Domain
from repro.core.freshness import Freshness
from repro.core.maintenance import MaintenanceEngine
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.messages import MessageType
from repro.saintetiq.hierarchy import SummaryHierarchy


def _domain(partner_count=10, alpha=0.3):
    domain = Domain.create("sp")
    for index in range(partner_count):
        domain.add_partner(f"p{index}", distance=float(index))
    return domain


def _summaries(peer_ids):
    background = medical_background_knowledge(include_categorical=False)
    generator = PatientGenerator(seed=1, background=background)
    result = {}
    for peer_id in peer_ids:
        hierarchy = SummaryHierarchy(background, attributes=["age", "bmi"], owner=peer_id)
        hierarchy.add_records(generator.records(4))
        result[peer_id] = hierarchy
    return result


class TestPushPhase:
    def test_push_marks_stale_and_counts_one_message(self):
        engine = MaintenanceEngine(ProtocolConfig(freshness_threshold=0.5))
        domain = _domain(10)
        due = engine.push_stale(domain, "p0", now=5.0)
        assert not due
        assert domain.cooperation.freshness_of("p0") is Freshness.STALE
        assert engine.counter.count(MessageType.PUSH) == 1

    def test_push_triggers_reconciliation_at_threshold(self):
        engine = MaintenanceEngine(ProtocolConfig(freshness_threshold=0.3))
        domain = _domain(10)
        assert not engine.push_stale(domain, "p0")
        assert not engine.push_stale(domain, "p1")
        assert engine.push_stale(domain, "p2")  # 3/10 >= 0.3

    def test_push_from_non_partner_is_ignored(self):
        engine = MaintenanceEngine()
        domain = _domain(3)
        assert not engine.push_stale(domain, "ghost")
        assert engine.counter.count(MessageType.PUSH) == 0

    def test_push_departure_uses_mode_encoding(self):
        engine = MaintenanceEngine()
        domain = _domain(5)
        engine.push_departure(domain, "p0")
        assert domain.cooperation.freshness_of("p0") is Freshness.STALE

    def test_silent_failure_sends_no_message(self):
        engine = MaintenanceEngine()
        domain = _domain(5)
        engine.register_silent_failure(domain, "p0")
        assert engine.counter.total == 0
        assert domain.cooperation.freshness_of("p0") is Freshness.FRESH


class TestReconciliation:
    def test_reconcile_resets_freshness_and_counts_ring_messages(self):
        engine = MaintenanceEngine(ProtocolConfig(freshness_threshold=0.2))
        domain = _domain(10)
        for index in range(3):
            engine.push_stale(domain, f"p{index}")
        record = engine.reconcile(domain, now=100.0)
        assert record.messages == 11  # 10 partners + return hop
        assert domain.old_fraction() == 0.0
        assert engine.stats.reconciliations == 1
        assert engine.counter.count(MessageType.RECONCILIATION) == 11

    def test_reconcile_single_message_accounting_mode(self):
        config = ProtocolConfig(count_reconciliation_ring_hops=False)
        engine = MaintenanceEngine(config)
        domain = _domain(10)
        record = engine.reconcile(domain)
        assert record.messages == 1

    def test_reconcile_removes_unavailable_partners(self):
        engine = MaintenanceEngine()
        domain = _domain(6)
        available = {f"p{i}" for i in range(4)}
        record = engine.reconcile(domain, available_partners=available)
        assert set(record.removed_partners) == {"p4", "p5"}
        assert set(domain.partner_ids) == available

    def test_reconcile_rebuilds_global_summary_from_available_partners(self):
        engine = MaintenanceEngine()
        domain = _domain(4)
        summaries = _summaries(domain.partner_ids)
        available = {"p0", "p1"}
        engine.reconcile(domain, local_summaries=summaries, available_partners=available)
        assert domain.has_global_summary()
        assert domain.coverage() == available

    def test_reconcile_with_no_live_contribution_clears_the_global_summary(self):
        """Nobody left to describe: the old summary must not keep describing them."""
        engine = MaintenanceEngine()
        domain = _domain(2)
        summaries = _summaries(domain.partner_ids)
        engine.reconcile(domain, local_summaries=summaries)
        assert domain.coverage() == {"p0", "p1"}
        engine.reconcile(domain, local_summaries=summaries, available_partners=set())
        assert domain.partner_ids == []
        assert domain.coverage() == set()
        assert not domain.has_global_summary()

    def test_maybe_reconcile_only_fires_at_threshold(self):
        engine = MaintenanceEngine(ProtocolConfig(freshness_threshold=0.5))
        domain = _domain(4)
        engine.push_stale(domain, "p0")
        assert engine.maybe_reconcile(domain) is None
        engine.push_stale(domain, "p1")
        assert engine.maybe_reconcile(domain) is not None

    def test_reconciliation_returns_its_record(self):
        engine = MaintenanceEngine()
        domain = _domain(3)
        record = engine.reconcile(domain, now=7.0)
        assert record.time == 7.0
        assert record.summary_peer_id == "sp"
        assert record.messages == engine.counter.count(MessageType.RECONCILIATION)
        assert engine.stats.reconciliations == 1
        assert not hasattr(engine.stats, "history")

    def test_reconciliation_frequency(self):
        engine = MaintenanceEngine()
        domain = _domain(3)
        engine.reconcile(domain)
        engine.reconcile(domain)
        assert engine.stats.reconciliation_frequency(100.0) == pytest.approx(0.02)
        assert engine.stats.reconciliation_frequency(0.0) == 0.0

    def test_update_traffic_summary(self):
        engine = MaintenanceEngine()
        domain = _domain(5)
        engine.push_stale(domain, "p0")
        engine.reconcile(domain)
        traffic = engine.update_traffic()
        assert traffic[MessageType.PUSH] == 1
        assert traffic[MessageType.RECONCILIATION] == 6
