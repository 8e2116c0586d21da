"""Unit tests for the summary construction protocol (Section 4.1)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.construction import DomainBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.messages import MessageType
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.database.generator import PatientGenerator


@pytest.fixture
def overlay():
    return Overlay.generate(TopologyConfig(peer_count=64, seed=3))


def _local_summaries(peer_ids, records_per_peer=5):
    background = medical_background_knowledge(include_categorical=False)
    generator = PatientGenerator(seed=0, background=background)
    summaries = {}
    for peer_id in peer_ids:
        hierarchy = SummaryHierarchy(
            background, attributes=["age", "bmi"], owner=peer_id
        )
        hierarchy.add_records(generator.records(records_per_peer))
        summaries[peer_id] = hierarchy
    return summaries


class TestDomainConstruction:
    def test_every_online_peer_joins_a_domain(self, overlay):
        builder = DomainBuilder(ProtocolConfig())
        report = builder.build(overlay)
        superpeers = set(report.domains)
        for peer_id in overlay.peer_ids:
            if peer_id in superpeers:
                continue
            assert report.assignment.get(peer_id) in superpeers
        assert not report.orphan_peers

    def test_assignment_consistent_with_domains(self, overlay):
        report = DomainBuilder().build(overlay)
        for peer_id, sp_id in report.assignment.items():
            assert report.domains[sp_id].is_partner(peer_id)

    def test_peer_belongs_to_exactly_one_domain(self, overlay):
        report = DomainBuilder().build(overlay)
        seen = {}
        for sp_id, domain in report.domains.items():
            for partner in domain.partner_ids:
                assert partner not in seen, f"{partner} in two domains"
                seen[partner] = sp_id

    def test_superpeers_elected_by_degree_when_not_given(self, overlay):
        report = DomainBuilder(ProtocolConfig(superpeer_fraction=1 / 8)).build(overlay)
        assert len(report.domains) == round(64 / 8)

    def test_explicit_summary_peers_respected(self, overlay):
        chosen = overlay.peer_ids[:3]
        report = DomainBuilder().build(overlay, summary_peers=chosen)
        assert set(report.domains) == set(chosen)

    def test_message_accounting(self, overlay):
        report = DomainBuilder().build(overlay)
        assert report.messages.count(MessageType.SUMPEER) > 0
        # One localsum per (non-superpeer) partner at least; switches add more.
        partners = sum(len(d.partner_ids) for d in report.domains.values())
        assert report.messages.count(MessageType.LOCALSUM) >= partners

    def test_partnership_switch_prefers_closer_summary_peer(self, overlay):
        report = DomainBuilder().build(overlay)
        # Every partner's recorded distance must be the latency to its own SP.
        for sp_id, domain in report.domains.items():
            for partner in domain.partner_ids:
                assert domain.distance_to(partner) == pytest.approx(
                    overlay.latency(partner, sp_id)
                )

    def test_offline_peers_are_skipped(self, overlay):
        victim = next(
            p for p in overlay.peer_ids if overlay.degree(p) <= 3
        )
        overlay.set_online(victim, False)
        report = DomainBuilder().build(overlay)
        assert victim not in report.assignment
        for domain in report.domains.values():
            assert not domain.is_partner(victim)

    def test_domain_of_helper(self, overlay):
        report = DomainBuilder().build(overlay)
        some_sp = next(iter(report.domains))
        assert report.domain_of(some_sp) == some_sp
        some_partner = next(iter(report.assignment))
        assert report.domain_of(some_partner) == report.assignment[some_partner]
        assert report.domain_of("ghost") is None

    def test_single_summary_peer_with_large_ttl_covers_everything(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=40, seed=9))
        hub = max(overlay.peer_ids, key=overlay.degree)
        config = ProtocolConfig(construction_ttl=10)
        report = DomainBuilder(config).build(overlay, summary_peers=[hub])
        assert len(report.domains[hub].partner_ids) == 39


class TestGlobalSummaryMaterialisation:
    def test_global_summaries_merged_from_partners(self, overlay):
        summaries = _local_summaries(overlay.peer_ids)
        report = DomainBuilder().build(overlay, local_summaries=summaries)
        for sp_id, domain in report.domains.items():
            assert domain.has_global_summary()
            expected_peers = set(domain.partner_ids) | {sp_id}
            assert domain.coverage() <= expected_peers
            assert domain.coverage() >= set(domain.partner_ids)

    def test_without_local_summaries_no_global_summary(self, overlay):
        report = DomainBuilder().build(overlay)
        assert all(not d.has_global_summary() for d in report.domains.values())

    def test_virtual_complete_summary_covers_all_partners(self, overlay):
        """The union of global summaries describes every partner peer."""
        summaries = _local_summaries(overlay.peer_ids)
        report = DomainBuilder().build(overlay, local_summaries=summaries)
        covered = set()
        for domain in report.domains.values():
            covered |= domain.coverage()
        assert covered >= set(report.assignment)
