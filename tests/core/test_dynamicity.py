"""Unit tests for peer dynamicity handling (Section 4.3)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.construction import DomainBuilder
from repro.core.dynamicity import ChurnHandler
from repro.core.freshness import Freshness
from repro.core.maintenance import MaintenanceEngine
from repro.exceptions import ProtocolError
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig


@pytest.fixture
def built_network():
    """An overlay with domains already constructed, plus a churn handler."""
    overlay = Overlay.generate(TopologyConfig(peer_count=48, seed=5))
    config = ProtocolConfig(freshness_threshold=0.3)
    counter = MessageCounter()
    maintenance = MaintenanceEngine(config, counter)
    handler = ChurnHandler(config, counter, maintenance)
    report = DomainBuilder(config).build(overlay, counter=counter)
    return overlay, report.domains, dict(report.assignment), handler, counter


class TestPeerLeaveAndFail:
    def test_graceful_leave_pushes_and_marks_departed(self, built_network):
        overlay, domains, assignment, handler, counter = built_network
        peer_id = next(iter(assignment))
        sp_id = assignment[peer_id]
        before = counter.count(MessageType.PUSH)
        outcome = handler.peer_leave(overlay, domains, assignment, peer_id)
        assert outcome.event == "leave"
        assert outcome.domain_id == sp_id
        assert counter.count(MessageType.PUSH) == before + 1
        assert domains[sp_id].cooperation.freshness_of(peer_id) is Freshness.STALE
        assert not overlay.is_online(peer_id)

    def test_silent_failure_sends_no_message(self, built_network):
        overlay, domains, assignment, handler, counter = built_network
        peer_id = next(iter(assignment))
        sp_id = assignment[peer_id]
        before = counter.count(MessageType.PUSH)
        outcome = handler.peer_fail(overlay, domains, assignment, peer_id)
        assert outcome.event == "fail"
        assert counter.count(MessageType.PUSH) == before
        # The stale descriptions linger: freshness still FRESH until reconciliation.
        assert domains[sp_id].cooperation.freshness_of(peer_id) is Freshness.FRESH
        assert not overlay.is_online(peer_id)
        # The peer is no longer assigned to any live domain.
        assert peer_id not in assignment

    def test_many_departures_signal_reconciliation(self, built_network):
        overlay, domains, assignment, handler, _counter = built_network
        sp_id, domain = max(domains.items(), key=lambda kv: len(kv[1].partner_ids))
        partners = list(domain.partner_ids)
        due = False
        for peer_id in partners:
            outcome = handler.peer_leave(overlay, domains, assignment, peer_id)
            due = due or outcome.reconciliation_due
        assert due


class TestPeerJoin:
    def test_join_through_partner_neighbour(self, built_network):
        overlay, domains, assignment, handler, counter = built_network
        # A partner with a neighbour in some domain goes offline, unassigned.
        peer_id = next(
            p
            for p in assignment
            if any(n in domains or n in assignment for n in overlay.neighbors(p))
        )
        domains[assignment.pop(peer_id)].remove_partner(peer_id)
        overlay.set_online(peer_id, False)
        first = next(
            n for n in overlay.neighbors(peer_id) if n in domains or n in assignment
        )
        expected = first if first in domains else assignment[first]
        before = counter.count(MessageType.LOCALSUM)
        outcome = handler.peer_join(overlay, domains, assignment, peer_id)
        assert outcome.new_domain_id == expected
        assert counter.count(MessageType.LOCALSUM) == before + 1
        assert domains[expected].cooperation.freshness_of(peer_id) is Freshness.STALE
        assert assignment[peer_id] == expected
        assert overlay.is_online(peer_id)

    def test_rejoin_after_leave(self, built_network):
        overlay, domains, assignment, handler, _counter = built_network
        peer_id = next(iter(assignment))
        handler.peer_leave(overlay, domains, assignment, peer_id)
        # The old entry is still in the cooperation list (stale); rejoining
        # re-registers the peer as a (stale) partner of some domain.
        outcome = handler.peer_join(overlay, domains, assignment, peer_id)
        assert overlay.is_online(peer_id)
        assert outcome.new_domain_id in domains


class TestSummaryPeerDeparture:
    def test_graceful_departure_releases_partners(self, built_network):
        overlay, domains, assignment, handler, counter = built_network
        sp_id, domain = max(domains.items(), key=lambda kv: len(kv[1].partner_ids))
        partners = list(domain.partner_ids)
        outcome = handler.summary_peer_leave(overlay, domains, assignment, sp_id)
        assert outcome.event == "sp_leave"
        assert sp_id not in domains
        assert counter.count(MessageType.RELEASE) == len(partners)
        # Online released partners found a new domain.
        for peer_id in partners:
            if overlay.is_online(peer_id):
                assert assignment.get(peer_id) in domains

    def test_silent_failure_no_release_messages(self, built_network):
        overlay, domains, assignment, handler, counter = built_network
        sp_id = next(iter(domains))
        outcome = handler.summary_peer_fail(overlay, domains, assignment, sp_id)
        assert outcome.event == "sp_fail"
        assert counter.count(MessageType.RELEASE) == 0
        assert sp_id not in domains

    def test_departure_of_unknown_summary_peer_raises(self, built_network):
        overlay, domains, assignment, handler, _counter = built_network
        with pytest.raises(ProtocolError):
            handler.summary_peer_leave(overlay, domains, assignment, "ghost")
        with pytest.raises(ProtocolError):
            handler.summary_peer_fail(overlay, domains, assignment, "ghost")
