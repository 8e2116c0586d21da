"""Membership holds its invariant after every simulator event.

Every assigned peer is online, and the live domain it is assigned to lists
it with a partner distance; every summary peer is online and assigned to no
one (see :mod:`repro.core.dynamicity`).  Each run below is stepped one event
at a time with a store attached (so massacred summary peers reclaim their
domains) and checked after each event: the five adversity scenarios at the
faulted goldens' size and seed, fault-free ``churn-heavy``, and ``massacre``
at 200 peers, where a departing summary peer lists peers that have joined
another domain since.  Test ids use the chaos matrix's underscore scenario
names, so each CI leg's ``-k`` selects its own case.
"""

import pytest

from golden_fault_runs import PEERS, SEED
from repro.store import InMemoryBackend
from repro.workloads.registry import ADVERSITY_SCENARIOS, default_registry

#: Test id -> (scenario, overrides).
RUNS = {
    **{
        name.replace("-", "_"): (name, {"peer_count": PEERS, "seed": SEED})
        for name in ADVERSITY_SCENARIOS
    },
    "churn_heavy": ("churn-heavy", {}),
    "massacre_200_peers": ("massacre", {"peer_count": 200, "seed": 1}),
}


def membership_violations(system):
    """Each way ``system``'s membership breaks the invariant, as a tuple."""
    online = system.overlay.is_online
    domains = system.domains
    assignment = system.assignment
    violations = []
    for peer_id, sp_id in assignment.items():
        domain = domains.get(sp_id)
        if not online(peer_id):
            violations.append(("assigned offline", peer_id, sp_id))
        if domain is None:
            violations.append(("assigned to no live domain", peer_id, sp_id))
        elif not domain.is_partner(peer_id):
            violations.append(("assigned, not listed", peer_id, sp_id))
        elif peer_id not in domain.partner_distances:
            violations.append(("listed with no distance", peer_id, sp_id))
    for sp_id in domains:
        if not online(sp_id):
            violations.append(("summary peer offline", sp_id))
        if sp_id in assignment:
            violations.append(("summary peer assigned", sp_id, assignment[sp_id]))
    return violations


@pytest.mark.parametrize("run", sorted(RUNS))
def test_membership_invariant_holds_after_every_event(run):
    name, overrides = RUNS[run]
    scenario = default_registry().scenario(name, **overrides)
    session = scenario.apply_dynamics(scenario.builder()).build()
    session.attach_store(InMemoryBackend())
    runtime, system = session.runtime, session.system
    assert membership_violations(system) == []
    events = 0
    while runtime.run(until=scenario.duration_seconds, max_events=1):
        events += 1
        violations = membership_violations(system)
        assert violations == [], (session.now, events, violations[:5])
    session.detach_store()
    assert events == runtime.processed_events > 0
