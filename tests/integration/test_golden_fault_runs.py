"""Faulted runs are held to digests recorded before the fault paths moved.

See ``golden_fault_runs.py`` for what is run and what is hashed.  Test ids
use the chaos matrix's underscore scenario names, so each CI leg's ``-k``
selects its own case.
"""

import json

import pytest

from golden_fault_runs import FIXTURE, run_digests
from repro.workloads.registry import ADVERSITY_SCENARIOS

RECORDED = json.loads(FIXTURE.read_text())


def test_every_adversity_scenario_is_recorded():
    assert sorted(RECORDED) == sorted(ADVERSITY_SCENARIOS)


@pytest.mark.parametrize(
    "name", ADVERSITY_SCENARIOS, ids=[n.replace("-", "_") for n in ADVERSITY_SCENARIOS]
)
def test_faulted_run_matches_recording(name):
    assert run_digests(name) == RECORDED[name]


def _unlisted_assigned_peers(session):
    """Assigned peers that their assigned domain does not list.

    A peer the system assigns to a summary peer should be a partner of that
    live domain, with a partner distance.
    """
    system = session.system
    unlisted = []
    for peer_id, summary_peer in system.assignment.items():
        domain = system.domains.get(summary_peer)
        if (
            domain is None
            or not domain.is_partner(peer_id)
            or peer_id not in domain.partner_distances
        ):
            unlisted.append((session.now, peer_id))
    return unlisted


#: Runs whose domains stop listing peers the assignment still gives them.
_UNLISTED = {
    "partition-heal": "at 3600 s domains p0 and p4 no longer list 18 peers "
    "(p13, p40, ...) the assignment still gives them; the heal handler reads "
    "exactly this disagreement to pick the peers that rejoin",
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=[pytest.mark.xfail(strict=True, reason=_UNLISTED[name])]
            if name in _UNLISTED
            else [],
        )
        for name in ADVERSITY_SCENARIOS
    ],
    ids=[n.replace("-", "_") for n in ADVERSITY_SCENARIOS],
)
def test_every_assigned_peer_is_listed_by_its_domain_at_every_stop(name):
    unlisted = []
    run_digests(
        name, lambda session: unlisted.extend(_unlisted_assigned_peers(session))
    )
    assert unlisted == []
