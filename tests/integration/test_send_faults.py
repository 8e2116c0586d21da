"""Membership sends pass the fault plan like any other message.

* A departure push goes through the plan like a modification push: in
  ``lossy-network`` it is retried, and lost at the plan's rate.
* A cold start's ring respects a partition as a reconciliation's does: the
  partners across it are omitted.

Test ids carry the chaos matrix's underscore scenario names, so each CI leg's
``-k`` selects its own case.
"""

import math

from golden_fault_runs import PEERS, SEED
from test_membership_invariant import membership_violations

from repro.core.maintenance import MaintenanceEngine
from repro.core.protocol import SummaryManagementSystem
from repro.network.messages import MessageType
from repro.obs import Observability
from repro.store import InMemoryBackend
from repro.workloads.registry import default_registry


def _binomial_tail_bound(trials, p, alpha=1e-6):
    """The least ``k`` with ``P(Binomial(trials, p) > k) <= alpha``."""
    below = 0.0
    for k in range(trials + 1):
        below += math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        if 1.0 - below <= alpha:
            return k
    return trials


def test_lossy_network_loses_departure_pushes_at_the_plan_rate(monkeypatch):
    scenario = default_registry().scenario("lossy-network", peer_count=PEERS, seed=SEED)
    drop = scenario.fault_plan.link.drop_probability
    obs = Observability()
    seen = {"attempts": 0, "delivered": 0, "charged": 0, "retries": 0}

    def push_retries():
        return sum(obs.metrics.counter_series("repro_push_retries_total").values())

    handle_departure = SummaryManagementSystem._handle_departure

    def departure(system, peer_id, graceful):
        sp_id = system.assignment.get(peer_id)
        pushes = (
            graceful
            and peer_id not in system.domains
            and system.overlay.is_online(peer_id)
            and sp_id in system.domains
            and system.domains[sp_id].is_partner(peer_id)
        )
        charged, retries = system.counter.count(MessageType.PUSH), push_retries()
        handle_departure(system, peer_id, graceful)
        if pushes:
            seen["attempts"] += 1
            seen["charged"] += system.counter.count(MessageType.PUSH) - charged
            seen["retries"] += push_retries() - retries

    push_departure = MaintenanceEngine.push_departure

    def delivered(engine, domain, peer_id, now=0.0):
        seen["delivered"] += 1
        return push_departure(engine, domain, peer_id, now=now)

    monkeypatch.setattr(SummaryManagementSystem, "_handle_departure", departure)
    monkeypatch.setattr(MaintenanceEngine, "push_departure", delivered)
    session = scenario.apply_dynamics(scenario.builder()).observability(obs).build()
    session.run_until(scenario.duration_seconds)

    attempts, retries = seen["attempts"], seen["retries"]
    losses = attempts - seen["delivered"]
    assert attempts >= 30
    # Every attempt is charged as a push, the retransmissions included.
    assert seen["charged"] == attempts + retries
    # The plan sees departure pushes: some are retried ...
    assert retries > 0
    sent = attempts + retries
    failed = retries + losses
    assert failed <= _binomial_tail_bound(sent, drop)
    # ... and a push is lost only when all 1 + push_max_retries attempts are.
    lost_per_push = drop ** (1 + session.system.config.push_max_retries)
    assert losses <= _binomial_tail_bound(attempts, lost_per_push)


def _partitioned_massacre_session():
    """A planned ``massacre`` session with every domain's head archived, split
    in half before its massacre."""
    scenario = default_registry().scenario("massacre", peer_count=PEERS, seed=SEED)
    session = scenario.apply_dynamics(scenario.builder()).build()
    session.attach_store(InMemoryBackend())
    system = session.system
    for sp_id in sorted(system.domains):
        system._run_reconciliation(sp_id)  # archives each domain's head
    system._handle_partition({"kind": "partition", "fraction": 0.5})
    return session


def test_massacre_cold_start_omits_partners_across_a_partition():
    cold, ring = _partitioned_massacre_session(), _partitioned_massacre_session()
    system = cold.system
    faults = system.faults

    def cut(sp_id):
        return {
            p for p in system.domains[sp_id].partner_ids
            if system.assignment.get(p) == sp_id and not faults.reachable(sp_id, p)
        }

    sp_id = max(sorted(system.domains), key=lambda sp: len(cut(sp)))
    across = cut(sp_id)
    assert across

    record = cold.cold_start_domain(sp_id)
    ring.system._run_reconciliation(sp_id)

    domain = system.domains[sp_id]
    assert across <= set(record.removed_partners)
    assert not across & set(domain.partner_ids)
    assert not across & set(system.assignment)
    # Exactly what a reconciliation's ring does across the same partition.
    assert domain.partner_ids == ring.system.domains[sp_id].partner_ids
    assert system.assignment == ring.system.assignment
    assert membership_violations(system) == []
