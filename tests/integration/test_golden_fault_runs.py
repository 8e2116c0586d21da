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


def _assignment_disagreements(session):
    """Peers whose own state disagrees with the system's assignment.

    A peer's ``summary_peer_id`` should be ``system.assignment.get(peer)``, and
    its ``summary_peer_distance`` the assigned domain's partner distance
    (``inf`` when unassigned).
    """
    system = session.system
    disagreements = []
    for peer in system.overlay.peers():
        summary_peer = system.assignment.get(peer.peer_id)
        if summary_peer is None:
            distance = float("inf")
        else:
            domain = system.domains.get(summary_peer)
            distances = {} if domain is None else domain.partner_distances
            distance = distances.get(peer.peer_id)
        state = (peer.summary_peer_id, peer.summary_peer_distance)
        if state != (summary_peer, distance):
            disagreements.append((session.now, peer.peer_id))
    return disagreements


#: Runs whose peers disagree with the assignment (see CHANGES.md, FOUND).
_DISAGREEING = {
    "partition-heal": "at 3600 s domain p0 has dropped partner p2, which "
    "p2 and the assignment still give to p0",
    "massacre": "at 3600 s summary peer p0, massacred and back, names itself "
    "its summary peer but is unassigned",
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=[pytest.mark.xfail(strict=True, reason=_DISAGREEING[name])]
            if name in _DISAGREEING
            else [],
        )
        for name in ADVERSITY_SCENARIOS
    ],
    ids=[n.replace("-", "_") for n in ADVERSITY_SCENARIOS],
)
def test_peer_state_agrees_with_the_assignment_at_every_stop(name):
    disagreements = []
    run_digests(
        name, lambda session: disagreements.extend(_assignment_disagreements(session))
    )
    assert disagreements == []
