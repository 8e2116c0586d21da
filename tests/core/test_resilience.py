"""Resilient-protocol tests: retries, partitions, reclamation, degraded answers."""

import pytest

from repro.core.session import SystemBuilder
from repro.exceptions import ConfigurationError
from repro.network.faults import (
    DomainFailureEvent,
    FaultPlan,
    FlashCrowdEvent,
    LinkFaults,
    MassacreEvent,
    PartitionEvent,
)
from repro.network.messages import MessageType
from repro.workloads.registry import default_registry


def _session(peer_count=32, seed=3, plan=None, **protocol):
    builder = (
        SystemBuilder()
        .topology(peer_count=peer_count, seed=seed)
        .planned_content(hit_rate=0.2)
        .seed(seed)
    )
    if protocol:
        builder.protocol(**protocol)
    if plan is not None:
        builder.faults(plan)
    return builder.build()


def _a_partner(system):
    return next(p for p in system.overlay.peer_ids if p not in system.domains)


class TestBuilderFaults:
    def test_faults_requires_a_plan(self):
        with pytest.raises(ConfigurationError):
            SystemBuilder().faults("not a plan")

    def test_plan_installs_injector_and_events(self):
        plan = FaultPlan(
            seed=1, partitions=[PartitionEvent(at=60.0, heal_at=600.0)]
        )
        session = _session(plan=plan)
        assert session.system.faults is not None
        labels = [event.label for event in session.simulator.pending()]
        assert "partition" in labels
        assert "heal" in labels

    def test_no_plan_means_no_injector(self):
        assert _session().system.faults is None


class TestPushRetries:
    @pytest.mark.parametrize("reason", ["link loss", "partitioned"])
    def test_exhausted_push_budget_is_accounted(self, reason):
        drop = 1.0 if reason == "link loss" else 0.0
        plan = FaultPlan(seed=2, link=LinkFaults(drop_probability=drop))
        session = _session(plan=plan, push_max_retries=3)
        system = session.system
        partner = _a_partner(system)
        sp_id = system.assignment[partner]
        if reason == "partitioned":
            system.faults.set_partition([[partner], [sp_id]])
        counter = system.counter
        before_push = counter.count(MessageType.PUSH)
        before_retries = counter.retry_total

        system._handle_modification(partner)

        # All 1 + 3 transmissions hit the wire and are charged as PUSH traffic
        # even though none arrived; the 3 retransmissions are retries.
        assert counter.count(MessageType.PUSH) == before_push + 4
        assert counter.dropped_by_reason() == {reason: 4}
        assert counter.retry_total == before_retries + 3
        assert session.maintenance_report().push_messages == before_push + 4
        # The summary peer never heard the push: no reconciliation pressure.
        assert system.domains[sp_id].cooperation.entry(partner).freshness.is_fresh

    def test_successful_push_without_loss_charges_nothing_extra(self):
        plan = FaultPlan(seed=2, link=LinkFaults(drop_probability=0.0))
        session = _session(plan=plan)
        system = session.system
        partner = _a_partner(system)
        system._handle_modification(partner)
        assert system.counter.retry_total == 0
        assert system.counter.dropped_total == 0


class TestOneTally:
    def test_lossy_network_report_reads_the_counter(self):
        # The faulted path: lost pushes and ring hops are charged too.
        scenario = default_registry().scenario("lossy-network")
        session = scenario.apply_dynamics(scenario.builder()).build()
        session.run_until()
        session.query_batch(count=20)
        counter = session.system.counter
        assert counter.dropped_total > 0
        report = session.maintenance_report()
        assert report.push_messages == counter.count(MessageType.PUSH)
        assert report.reconciliation_messages == counter.count(
            MessageType.RECONCILIATION
        )
        assert not hasattr(session.system.maintenance, "record_failed_attempts")


class TestPartitionedQueries:
    @staticmethod
    def _partitioned_session():
        plan = FaultPlan(seed=1, partitions=[PartitionEvent(at=60.0, fraction=0.5)])
        session = _session(peer_count=64, plan=plan)
        session.run_until(120.0)
        assert session.system.faults.partitioned
        return session

    def test_every_domain_is_visited_or_marked_unreachable(self):
        session = self._partitioned_session()
        all_domains = set(session.system.domains)
        for peer_id in session.system.overlay.peer_ids:
            if not session.system.overlay.is_online(peer_id):
                continue
            answer = session.query(peer_id)
            report = answer.degradation
            assert report is not None
            visited = {o.domain_id for o in answer.routing.domain_outcomes}
            unreachable = set(report.unreachable_domains)
            assert visited | unreachable == all_domains
            assert not visited & unreachable

    def test_unreachable_probes_are_charged_and_bounded(self):
        session = self._partitioned_session()
        system = session.system
        budget = 1 + system.config.query_max_retries
        faults = system.faults
        origin = next(
            p
            for p in system.overlay.peer_ids
            if any(not faults.reachable(p, sp) for sp in system.domains)
        )
        answer = session.query(origin)
        report = answer.degradation
        assert report.probe_messages == budget * len(report.unreachable_domains)
        assert answer.routing.total_messages >= report.probe_messages

    def test_heal_repairs_every_orphan(self):
        plan = FaultPlan(
            seed=1, partitions=[PartitionEvent(at=60.0, fraction=0.5, heal_at=300.0)]
        )
        session = _session(peer_count=64, plan=plan)
        session.run_until(120.0)
        # Force reconciliations mid-partition so far-side partners get dropped.
        for sp_id in list(session.system.domains):
            session.system._run_reconciliation(sp_id)
        session.run_until(400.0)
        system = session.system
        assert not system.faults.partitioned
        for peer_id in system.overlay.peer_ids:
            if not system.overlay.is_online(peer_id) or peer_id in system.domains:
                continue
            sp_id = system.assignment.get(peer_id)
            assert sp_id in system.domains
            assert system.domains[sp_id].is_partner(peer_id)
        # Queries come back complete again.
        answer = session.query(_a_partner(system))
        assert answer.degradation.complete


class TestLossyReconciliation:
    def test_missed_ring_hop_keeps_partner_stale_not_evicted(self):
        plan = FaultPlan(seed=6, link=LinkFaults(drop_probability=1.0))
        session = _session(plan=plan, reconciliation_max_retries=1)
        system = session.system
        sp_id = next(iter(system.domains))
        domain = system.domains[sp_id]
        partners_before = set(domain.partner_ids)
        assert partners_before

        system._run_reconciliation(sp_id)

        # Every hop was lost: nobody was reconciled, but nobody fell out of
        # the domain either — they all just stay stale.
        assert set(domain.partner_ids) == partners_before
        for peer_id in partners_before:
            assert domain.cooperation.entry(peer_id).freshness.counts_as_old
        assert system.counter.dropped_by_reason()["link loss"] == 2 * len(
            partners_before
        )


class TestDomainReclamation:
    @staticmethod
    def _reclaim_setup():
        session = _session(peer_count=32, seed=5)
        session.attach_store(None)
        system = session.system
        sp_id = next(iter(system.domains))
        # A reconciliation archives the metadata head (partner roster).
        system._run_reconciliation(sp_id)
        head = system.maintenance.archived_head(sp_id)
        assert head is not None
        assert head["partners"]
        return session, sp_id, [pid for pid, _ in head["partners"]]

    def test_rejoining_summary_peer_reclaims_domain(self):
        session, sp_id, former = self._reclaim_setup()
        system = session.system
        system._handle_departure(sp_id, graceful=False)
        assert sp_id not in system.domains

        sumpeer_before = system.counter.count_types([MessageType.SUMPEER])
        reconciliations_before = system.maintenance.stats.reconciliations
        system._handle_rejoin(sp_id)

        assert sp_id in system.domains
        domain = system.domains[sp_id]
        reclaimed = set(domain.partner_ids)
        assert reclaimed  # its old partners came back
        for peer_id in reclaimed:
            assert peer_id in former
            assert system.assignment[peer_id] == sp_id
            assert system.overlay.is_online(peer_id)
        assert system.counter.count_types([MessageType.SUMPEER]) > sumpeer_before
        # Planned-content mode has no local summaries to merge, so the
        # store-backed cold start falls back to a full reconciliation.
        assert system.maintenance.stats.reconciliations == reconciliations_before + 1

    def test_without_store_rejoin_falls_back_to_normal_join(self):
        session = _session(peer_count=32, seed=5)
        system = session.system
        sp_id = next(iter(system.domains))
        system._handle_departure(sp_id, graceful=False)
        system._handle_rejoin(sp_id)
        # No store, no archived head: the peer re-joins as a plain partner.
        assert sp_id not in system.domains
        assert system.assignment.get(sp_id) in system.domains


class TestScheduledAdversities:
    def test_domain_failure_kills_whole_domains(self):
        plan = FaultPlan(seed=7, domain_failures=[DomainFailureEvent(at=60.0, count=1)])
        session = _session(peer_count=64, plan=plan)
        domains_before = set(session.system.domains)
        session.run_until(120.0)
        system = session.system
        dead = domains_before - set(system.domains)
        assert len(dead) == 1
        for sp_id in dead:
            assert not system.overlay.is_online(sp_id)

    def test_massacre_and_rejoin(self):
        plan = FaultPlan(
            seed=8,
            massacres=[MassacreEvent(at=60.0, fraction=0.5, rejoin_after=120.0)],
        )
        session = _session(peer_count=64, plan=plan)
        count_before = len(session.system.domains)
        session.run_until(90.0)
        assert len(session.system.domains) < count_before
        session.run_until(300.0)
        # Victims rejoined (without a store they come back as partners).
        for peer_id in session.system.overlay.peer_ids:
            assert session.system.overlay.is_online(peer_id)

    def test_flash_crowd_brings_everyone_back(self):
        plan = FaultPlan(seed=9, flash_crowds=[FlashCrowdEvent(at=120.0)])
        session = _session(peer_count=32, plan=plan)
        system = session.system
        victims = [_a_partner(system)]
        victims.append(
            next(
                p
                for p in system.overlay.peer_ids
                if p not in system.domains and p != victims[0]
            )
        )
        for peer_id in victims:
            system._handle_departure(peer_id, graceful=False)
        session.run_until(150.0)
        for peer_id in victims:
            assert system.overlay.is_online(peer_id)
            assert system.assignment.get(peer_id) in system.domains


class TestZeroFaultIdentity:
    def test_empty_plan_matches_no_plan_exactly(self):
        with_plan = _session(seed=13, plan=FaultPlan(seed=99))
        without = _session(seed=13)
        for session in (with_plan, without):
            session.run_until(600.0)
        answers_a = with_plan.query_batch(count=10)
        answers_b = without.query_batch(count=10)
        assert (
            with_plan.system.counter.state_payload()
            == without.system.counter.state_payload()
        )
        assert with_plan.system.rng.getstate() == without.system.rng.getstate()
        for a, b in zip(answers_a, answers_b):
            assert a.routing.total_messages == b.routing.total_messages
            assert a.routing.responding_peers == b.routing.responding_peers
            assert a.routing.unreachable_domains == b.routing.unreachable_domains == []
            assert a.staleness == b.staleness
            # The degraded-answer surface exists either way.
            assert a.degradation is not None and b.degradation is not None
            assert a.degradation == b.degradation
