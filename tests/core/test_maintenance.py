"""Unit tests for push/pull summary maintenance (Section 4.2)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.domain import Domain
from repro.core.freshness import Freshness
from repro.core.maintenance import MaintenanceEngine
from repro.core.protocol import SummaryManagementSystem
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.messages import MessageType
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
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
        # Section 4.3: a partner that fails silently sends nothing, and its
        # descriptions stay in the global summary, fresh, until the next
        # reconciliation.
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=5))
        system = SummaryManagementSystem(overlay, ProtocolConfig(freshness_threshold=0.1))
        system.build_domains()
        peer_id, sp_id = next(iter(system.assignment.items()))
        domain = system.domains[sp_id]
        before = system.counter.total
        system.schedule_event_from_spec(
            {"kind": "departure", "peer_id": peer_id, "graceful": False, "rejoin": False},
            at=0.0,
        )
        system.run()
        assert system.counter.total == before
        assert system.maintenance.stats.reconciliations == 0
        assert domain.is_partner(peer_id)
        assert domain.cooperation.freshness_of(peer_id) is Freshness.FRESH
        assert not overlay.is_online(peer_id) and peer_id not in system.assignment


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

    def test_a_modification_push_reconciles_only_at_threshold(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=2))
        system = SummaryManagementSystem(
            overlay, config=ProtocolConfig(freshness_threshold=0.5)
        )
        system.use_planned_content()
        system.build_domains(summary_peers=[overlay.peer_ids[0]])
        domain = system.domains[overlay.peer_ids[0]]
        partners = list(domain.partner_ids)
        due_after = -(-len(partners) // 2)  # the push that makes half of them old
        for pushed, peer_id in enumerate(partners[:due_after], start=1):
            system.schedule_event_from_spec(
                {"kind": "modification", "peer_id": peer_id}, at=float(pushed)
            )
            system.run(until=float(pushed))
            reconciled = 1 if pushed == due_after else 0
            assert system.maintenance.stats.reconciliations == reconciled
        assert domain.old_fraction() == 0.0

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

    def test_update_traffic_is_charged_to_the_counter(self):
        engine = MaintenanceEngine()
        domain = _domain(5)
        engine.push_stale(domain, "p0")
        engine.reconcile(domain)
        assert engine.counter.count(MessageType.PUSH) == 1
        assert engine.counter.count(MessageType.RECONCILIATION) == 6
