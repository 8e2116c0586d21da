"""Unit tests for peer dynamicity handling (Section 4.3), on a built system.

Departures and rejoins are scheduled as the system's own event specs and
run at the current time, so each test drives exactly the handler a churn or
fault event would.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.freshness import Freshness
from repro.core.protocol import SummaryManagementSystem
from repro.network.messages import MessageType
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig


def built_system(peer_count=48, seed=5, alpha=0.3):
    overlay = Overlay.generate(TopologyConfig(peer_count=peer_count, seed=seed))
    system = SummaryManagementSystem(
        overlay, ProtocolConfig(freshness_threshold=alpha), seed=seed
    )
    system.build_domains()
    return system


def depart(system, peer_id, graceful=True):
    spec = {"kind": "departure", "peer_id": peer_id, "graceful": graceful, "rejoin": False}
    system.schedule_event_from_spec(spec, at=system.simulator.now)
    system.run()


def rejoin(system, peer_id):
    system.schedule_event_from_spec(
        {"kind": "rejoin", "peer_id": peer_id}, at=system.simulator.now
    )
    system.run()


def neighbour_domain(system, peer_id):
    """The live domain a join finds through ``peer_id``'s neighbours, or None."""
    assignment = system.assignment
    for neighbour in system.overlay.neighbors(peer_id):
        if neighbour in system.domains:
            return neighbour
        if assignment.get(neighbour) in system.domains:
            return assignment[neighbour]
    return None


@pytest.fixture
def system():
    return built_system()


def _largest_domain(system):
    return max(system.domains.items(), key=lambda kv: len(kv[1].partner_ids))


class TestPeerLeaveAndFail:
    def test_graceful_leave_pushes_and_marks_departed(self, system):
        peer_id, sp_id = next(iter(system.assignment.items()))
        before = system.counter.count(MessageType.PUSH)
        depart(system, peer_id)
        assert system.counter.count(MessageType.PUSH) == before + 1
        assert system.domains[sp_id].cooperation.freshness_of(peer_id) is Freshness.STALE
        assert not system.overlay.is_online(peer_id)
        assert peer_id not in system.assignment

    def test_silent_failure_sends_no_message(self, system):
        peer_id, sp_id = next(iter(system.assignment.items()))
        before = system.counter.total
        depart(system, peer_id, graceful=False)
        assert system.counter.total == before
        # The stale descriptions linger: listed, still FRESH, until reconciliation.
        assert system.domains[sp_id].cooperation.freshness_of(peer_id) is Freshness.FRESH
        assert not system.overlay.is_online(peer_id)
        # The peer is no longer assigned to any live domain.
        assert peer_id not in system.assignment

    def test_many_departures_trigger_a_reconciliation_that_omits_them(self, system):
        sp_id, domain = _largest_domain(system)
        partners = list(domain.partner_ids)
        for peer_id in partners:
            depart(system, peer_id)
        assert system.maintenance.stats.reconciliations >= 1
        assert not domain.is_partner(partners[0])


class TestPeerJoin:
    def test_join_through_partner_neighbour(self, system):
        peer_id = next(p for p in system.assignment if neighbour_domain(system, p))
        depart(system, peer_id, graceful=False)
        expected = neighbour_domain(system, peer_id)
        before = system.counter.count(MessageType.LOCALSUM)
        rejoin(system, peer_id)
        assert system.counter.count(MessageType.LOCALSUM) == before + 1
        domain = system.domains[expected]
        assert domain.cooperation.freshness_of(peer_id) is Freshness.STALE
        assert system.assignment[peer_id] == expected
        assert system.overlay.is_online(peer_id)

    def test_rejoin_after_leave(self, system):
        peer_id = next(iter(system.assignment))
        depart(system, peer_id)
        # The old entry is still in the cooperation list (stale); rejoining
        # re-registers the peer as a (stale) partner of some domain.
        rejoin(system, peer_id)
        assert system.overlay.is_online(peer_id)
        assert system.domains[system.assignment[peer_id]].is_partner(peer_id)


class TestSummaryPeerDeparture:
    def test_graceful_departure_releases_partners(self, system):
        sp_id, domain = _largest_domain(system)
        partners = list(domain.partner_ids)
        depart(system, sp_id)
        assert sp_id not in system.domains
        assert system.counter.count(MessageType.RELEASE) == len(partners)
        # Online released partners found a new domain.
        for peer_id in partners:
            assert system.overlay.is_online(peer_id)
            assert system.assignment.get(peer_id) in system.domains

    def test_silent_failure_no_release_messages(self, system):
        sp_id = next(iter(system.domains))
        depart(system, sp_id, graceful=False)
        assert system.counter.count(MessageType.RELEASE) == 0
        assert sp_id not in system.domains

    def test_a_silent_failure_whose_joins_tip_a_domain_reconciles_it(self):
        """A join that tips its domain over α reconciles it, whichever event
        made the join: here a failed summary peer's members re-joining."""
        system = built_system(alpha=0.01)  # one stale listing tips any domain
        reconciled = []
        run_reconciliation = system._run_reconciliation
        system._run_reconciliation = lambda sp_id: (
            reconciled.append(sp_id), run_reconciliation(sp_id)
        )
        sp_id, _domain = _largest_domain(system)
        members = [p for p, sp in system.assignment.items() if sp == sp_id]
        depart(system, sp_id, graceful=False)
        joined = {system.assignment[p] for p in members if p in system.assignment}
        assert joined and set(reconciled) == joined
        for peer_id, owner in system.assignment.items():
            domain = system.domains[owner]
            assert system.overlay.is_online(peer_id) and domain.is_partner(peer_id)
        for owner in joined:
            assert system.domains[owner].old_fraction() == 0.0

    @pytest.mark.parametrize("graceful", [True, False], ids=["leave", "fail"])
    def test_a_stale_listing_that_joined_elsewhere_stays_there(self, system, graceful):
        """Only the departing summary peer's members look for a new domain."""
        for sp_id, domain in system.domains.items():
            members = [p for p, sp in system.assignment.items() if sp == sp_id]
            for peer_id in members:
                depart(system, peer_id, graceful=False)
            moved = next(
                (p for p in members if neighbour_domain(system, p) not in (None, sp_id)),
                None,
            )
            if moved is not None:
                break
        else:
            pytest.fail("no departed member re-joins another domain")
        rejoin(system, moved)
        elsewhere = system.assignment[moved]
        assert elsewhere != sp_id and domain.is_partner(moved)  # listed stale by sp_id
        listed = len(domain.partner_ids)
        counts = {t: system.counter.count(t) for t in (MessageType.LOCALSUM, MessageType.FIND)}
        depart(system, sp_id, graceful=graceful)
        assert sp_id not in system.domains
        assert system.assignment[moved] == elsewhere
        assert system.domains[elsewhere].is_partner(moved)
        assert {t: system.counter.count(t) for t in counts} == counts
        assert system.counter.count(MessageType.RELEASE) == (listed if graceful else 0)
