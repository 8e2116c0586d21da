"""Chaos matrix: every named adversity scenario keeps answering accurately.

Each registered adversity scenario (partitions, massacres, flash crowds,
lossy links, correlated domain failures) is run through its full horizon
with queries fired at several points.  The invariants are the robustness
acceptance criteria: every query returns a :class:`QueryAnswer` whose
degradation report accounts for every domain (visited or marked
unreachable, never both, never neither), and the retry machinery keeps
message overhead bounded by the configured budgets.
"""

import pytest

from repro.workloads.registry import ADVERSITY_SCENARIOS, default_registry

#: pytest ``-k`` cannot select hyphenated ids, so the CI chaos matrix keys
#: jobs by these underscore forms.
SCENARIO_IDS = [name.replace("-", "_") for name in ADVERSITY_SCENARIOS]


def _assert_answer_invariants(session, answer):
    system = session.system
    report = answer.degradation
    assert report is not None
    visited = {outcome.domain_id for outcome in answer.routing.domain_outcomes}
    unreachable = set(report.unreachable_domains)
    all_domains = set(system.domains)
    assert visited | unreachable == all_domains
    assert not visited & unreachable
    # A marked-partial answer and an unreachable list agree with each other.
    assert report.complete == (not unreachable)
    assert report.probe_messages == answer.routing.unreachable_probe_messages
    if unreachable:
        budget = 1 + system.config.query_max_retries
        assert report.probe_messages == budget * len(unreachable)


@pytest.mark.parametrize(
    "name", ADVERSITY_SCENARIOS, ids=SCENARIO_IDS
)
def test_adversity_scenario_answers_stay_marked_and_bounded(name):
    scenario = default_registry().scenario(name, seed=11)
    session = scenario.apply_dynamics(scenario.builder()).build()
    horizon = scenario.duration_seconds
    system = session.system

    answers = []
    # Query at several points of the horizon so faults are hit while armed,
    # mid-flight, and after healing/rejoin.
    for fraction in (0.3, 0.5, 0.8, 1.0):
        session.run_until(horizon * fraction)
        for answer in session.query_batch(count=5):
            _assert_answer_invariants(session, answer)
            answers.append(answer)

    assert len(answers) == 20

    # The retry budgets bound the overhead: every retry burst is capped by the
    # largest configured budget, so the total can never exceed the cap times
    # the number of fault-charged transmissions.
    counter = system.counter
    config = system.config
    max_budget = max(
        config.push_max_retries,
        config.reconciliation_max_retries,
        config.query_max_retries,
    )
    assert counter.retry_total <= max_budget * max(1, counter.dropped_total)
    # Dropped messages are all attributed to a reason.
    assert sum(counter.dropped_by_reason().values()) == counter.dropped_total


def test_chaos_matrix_covers_every_registered_adversity():
    registry = default_registry()
    for name in ADVERSITY_SCENARIOS:
        scenario = registry.scenario(name)
        assert scenario.fault_plan is not None
        assert scenario.fault_plan.any_faults()
