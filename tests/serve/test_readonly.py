"""Read-only serving sessions: purity, concurrency, mutation rejection.

The acceptance bar for sharing one restored session across worker threads:
a request *reads* the session.  Its checkpoint encoding is byte-equal before
and after any request — answered or raising, from one thread or eight — and
every request answers byte-identically to the first request after a fresh
restore, regardless of how many threads race, in what order requests land,
or how many requests came before.  Every mutating operation raises the typed
:class:`ReadOnlySessionError`.
"""

import json
import sys
import threading

import pytest

from repro.core.routing import RoutingPolicy
from repro.exceptions import ProtocolError, ReadOnlySessionError
from repro.store.checkpoint import (
    capture_session,
    open_readonly_session,
    restore_session,
    save_session,
)
from repro.workloads.queries import QueryWorkload, paper_example_query
from repro.workloads.registry import default_registry

REQUIRED = 5
THREADS = 8


def _state(session):
    """The session's whole checkpoint state, as canonical bytes."""
    return json.dumps(capture_session(session)[0], sort_keys=True)


def _requests(planned):
    """``name -> request`` for every kind of read a session of this mode serves."""
    if planned:
        return {
            "single": lambda s: s.query(required_results=REQUIRED),
            "batch": lambda s: s.query_batch(
                count=3, required_results=REQUIRED, include_staleness=True
            ),
            "staleness": lambda s: s.staleness_batch(3),
        }
    query = paper_example_query()
    return {
        "single": lambda s: s.query(query=query),
        "batch": lambda s: s.query_batch(queries=[query] * 3),
    }


def _expected(path, background, requests):
    """Each request's answer as the first request after a fresh restore."""
    return {
        name: pose(restore_session(path, background=background))
        for name, pose in requests.items()
    }


@pytest.fixture
def fast_switching():
    """Hand the GIL over every microsecond: races show up in few iterations."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run_threads(work):
    """Run ``work(index)`` on ``THREADS`` threads; return the exceptions raised."""
    errors = []

    def guarded(index):
        try:
            work(index)
        except Exception as exc:  # noqa: BLE001 - surfaced via the assert
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_requests_read_the_session_and_answer_like_a_fresh_restore(any_store):
    path, background = any_store
    with open_readonly_session(path, background=background) as session:
        requests = _requests(session.planned)
        expected = _expected(path, background, requests)
        before = _state(session)
        for name, pose in requests.items():
            assert pose(session) == expected[name], name
            assert pose(session) == expected[name], f"{name}, asked again"
            assert _state(session) == before, f"{name} wrote to the session"
        with pytest.raises(ProtocolError, match="either query or query_id"):
            session.query(query=paper_example_query(), query_id=7)
        assert _state(session) == before, "a raising request wrote to the session"


def test_the_same_requests_do_write_a_mutable_restore(any_store):
    """The oracle above is not vacuous: on the mutable side each request moves
    the encoded state — the fault layer's share of it included."""
    path, background = any_store
    session = restore_session(path, background=background)
    for name, pose in _requests(session.planned).items():
        before = capture_session(session)[0]
        pose(session)
        after = capture_session(session)[0]
        assert after["query_counter"] > before["query_counter"], name
        if name != "staleness":  # sampling staleness routes nothing
            assert after["counter"] != before["counter"], name
            faults = after.get("faults")
            if faults is None:
                continue
            if faults["plan"]["link"]["drop_probability"] > 0:
                # A lossy link draws per hop: the injector's RNG moves.
                assert faults != before["faults"], name
            else:
                # A partition draws nothing: its cuts are the counter's drops.
                assert after["counter"]["dropped"] != before["counter"].get(
                    "dropped"
                ), name


def test_threads_hammering_one_session_stay_byte_identical(
    any_store, fast_switching
):
    path, background = any_store
    with open_readonly_session(path, background=background) as session:
        requests = _requests(session.planned)
        expected = _expected(path, background, requests)
        before = _state(session)
        results = {}

        def hammer(thread_id):
            results[thread_id] = [
                (name, pose(session))
                for _ in range(5)
                for name, pose in requests.items()
            ]

        assert _run_threads(hammer) == []
        assert len(results) == THREADS
        for seen in results.values():
            for name, value in seen:
                assert value == expected[name]
        assert _state(session) == before


def test_cold_first_touch_from_many_threads(real_store, fast_switching):
    """Nothing is materialized yet and every thread asks at once."""
    path, background = real_store
    query = paper_example_query()
    with open_readonly_session(path, background=background) as session:
        expected = session.query(query=query)
        digests_touched = session.hierarchy_source.fetches
    assert digests_touched > 0

    for _ in range(5):
        with open_readonly_session(path, background=background) as session:
            barrier = threading.Barrier(THREADS)
            answers = {}

            def ask(thread_id):
                barrier.wait(timeout=60)
                answers[thread_id] = session.query(query=query)

            assert _run_threads(ask) == []
            assert list(answers.values()) == [expected] * THREADS
            assert session.hierarchy_source.fetches == digests_touched


def test_threads_filling_the_ground_truth_index_with_different_queries(
    real_store, fast_switching
):
    """Each thread asks its own queries of a fresh session at once.

    The peers' databases fill their predicate masks lazily on first use; here
    the threads race to fill *different* keys of the same maps.
    """
    path, background = real_store
    stream = QueryWorkload(query_count=4 * THREADS, seed=11).generate()
    slices = [stream[index::THREADS] for index in range(THREADS)]
    with open_readonly_session(path, background=background) as session:
        serial = [[session.query(query=q) for q in queries] for queries in slices]

    with open_readonly_session(path, background=background) as session:
        before = _state(session)
        barrier = threading.Barrier(THREADS)
        answers = {}

        def ask(thread_id):
            barrier.wait(timeout=60)
            answers[thread_id] = [session.query(query=q) for q in slices[thread_id]]

        assert _run_threads(ask) == []
        assert [answers[index] for index in range(THREADS)] == serial
        assert _state(session) == before


@pytest.fixture(scope="module")
def churned_store(tmp_path_factory):
    """A planned Table-3 checkpoint (160 peers, several domains) after 1 h of
    churn and modifications: departed peers, stale partners, offline links."""
    scenario = default_registry().scenario("table3-default", peer_count=160, seed=5)
    session = scenario.apply_dynamics(scenario.builder()).build()
    session.run_until(3600.0)
    path = tmp_path_factory.mktemp("serve-churned") / "churned.sqlite"
    save_session(session, str(path))
    return str(path)


def test_threads_deriving_the_routing_state_of_a_fresh_session(
    churned_store, fast_switching
):
    """Everything a planned query derives lazily on a read-only session — each
    domain's kept routing sets, the online-neighbour memo, the population a
    plan is drawn from — is first derived here by threads racing on it.  Each
    cache is assigned whole, so every racer writes an equal value and every
    answer equals the one a single thread gets."""
    with open_readonly_session(churned_store) as session:
        originators = session.partner_ids()
        requests = [
            {
                "originator": originators[(7 * index) % len(originators)],
                "query_id": 1000 + index,
                "policy": list(RoutingPolicy)[index % len(RoutingPolicy)],
                "required_results": (None, 4, 16)[index % 3],
            }
            for index in range(3 * THREADS)
        ]
        sequential = [session.query(**request) for request in requests]

    for _ in range(3):
        with open_readonly_session(churned_store) as session:
            barrier = threading.Barrier(THREADS)
            answers = {}

            def ask(thread_id):
                barrier.wait(timeout=60)
                answers[thread_id] = [
                    session.query(**request) for request in requests[thread_id::THREADS]
                ]

            assert _run_threads(ask) == []
            for thread_id in range(THREADS):
                assert answers[thread_id] == sequential[thread_id::THREADS]


def test_mutations_raise_typed_error(planned_store):
    with open_readonly_session(planned_store) as session:
        mutations = [
            lambda: session.run_until(10.0),
            lambda: session.attach_store(None),
            lambda: session.detach_store(),
            lambda: session.cold_start_domain("sp-0"),
            lambda: session.next_query_id(),
        ]
        for mutate in mutations:
            with pytest.raises(ReadOnlySessionError):
                mutate()


def test_closed_session_rejects_requests(planned_store):
    session = open_readonly_session(planned_store)
    assert not session.closed
    session.close()
    assert session.closed
    session.close()  # idempotent
    with pytest.raises(ReadOnlySessionError):
        session.query_batch(count=1)


def test_context_manager_closes(planned_store):
    with open_readonly_session(planned_store) as session:
        session.query(required_results=REQUIRED)
    assert session.closed


def test_matches_mutable_restore_after_close(planned_store):
    """Opening read-only must not disturb the stored checkpoint."""
    with open_readonly_session(planned_store) as session:
        served = session.query_batch(count=3, required_results=REQUIRED)
    assert served == restore_session(planned_store).query_batch(
        count=3, required_results=REQUIRED
    )
