"""Crash-fault injection: SIGKILL workers mid-request, prove the contract.

The seeded :class:`~repro.serve.chaos.ChaosMonkey` kills live workers while
clients hammer the fleet.  The supervised-serving contract under that abuse:

* zero wrong answers — every response that completes decodes equal to a
  fresh local restore of the same checkpoint, and repeated successes for the
  same request are byte-identical;
* interrupted requests fail *typed* (a :class:`ServeError` subclass), never
  with a truncated or corrupt body;
* availability recovers within the restart-backoff budget once the killing
  stops.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.exceptions import ServeError
from repro.serve.chaos import ChaosMonkey
from repro.serve.client import ServeClient
from repro.serve.supervisor import LIVE, Supervisor
from repro.store.checkpoint import open_readonly_session


@pytest.fixture(scope="module")
def supervisor(planned_store):
    sup = Supervisor(
        planned_store,
        workers=2,
        max_inflight=32,
        deadline_ms=30_000,
        cache_size=0,  # force every request through a real worker
        heartbeat_interval=0.1,
        heartbeat_misses=4,
        restart_backoff_base=0.05,
        restart_backoff_cap=0.5,
    ).start()
    yield sup
    sup.stop()


@pytest.fixture(scope="module")
def expected(planned_store):
    """Answers from a fresh local restore, per request shape."""
    session = open_readonly_session(planned_store)
    try:
        return {count: session.query_batch(count=count) for count in (1, 2, 3)}
    finally:
        session.close()


def wait_for_recovery(supervisor, client, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = client.health()
        if (
            payload["workers_live"] == len(payload["workers"])
            and payload["restarts_total"] >= 1
        ):
            return payload
        time.sleep(0.2)
    raise AssertionError(
        f"fleet did not recover within {timeout}s: {client.health()!r}"
    )


class TestKillOnce:
    def test_sigkill_is_detected_restarted_and_accounted(
        self, supervisor, expected
    ):
        with ServeClient(supervisor.url, timeout=60.0, retry_seed=0) as client:
            assert client.query_batch(count=2) == expected[2]
            monkey = ChaosMonkey(supervisor, seed=11)
            old_pids = {h.index: h.pid for h in supervisor.workers}
            killed = monkey.kill_once()
            assert killed is not None
            assert monkey.kills[0]["index"] == killed

            payload = wait_for_recovery(supervisor, client)
            restarted = next(
                worker for worker in payload["workers"] if worker["index"] == killed
            )
            assert restarted["state"] == LIVE
            assert restarted["restarts"] >= 1
            assert restarted["pid"] != old_pids[killed]  # a fresh process
            # The replacement answers byte-for-byte like its predecessor did.
            assert client.query_batch(count=2) == expected[2]


class TestChaosSchedule:
    def test_no_wrong_answers_under_sustained_crashes(
        self, supervisor, expected
    ):
        stop = threading.Event()
        outcomes = []  # (count, "ok"|"typed"|"wrong"|"untyped", detail)
        lock = threading.Lock()

        def hammer(seed):
            client = ServeClient(
                supervisor.url,
                timeout=60.0,
                max_retries=3,
                retry_backoff_base=0.05,
                retry_seed=seed,
            )
            index = 0
            while not stop.is_set():
                count = (index + seed) % 3 + 1
                index += 1
                try:
                    answers = client.query_batch(count=count)
                except ServeError as exc:
                    with lock:
                        outcomes.append((count, "typed", repr(exc)))
                except Exception as exc:  # noqa: BLE001 - contract violation
                    with lock:
                        outcomes.append((count, "untyped", repr(exc)))
                else:
                    verdict = "ok" if answers == expected[count] else "wrong"
                    with lock:
                        outcomes.append((count, verdict, len(answers)))
            client.close()

        clients = [
            threading.Thread(target=hammer, args=(seed,), daemon=True)
            for seed in range(3)
        ]
        monkey = ChaosMonkey(
            supervisor, seed=5, min_interval=0.4, max_interval=0.8, max_kills=6
        )
        for thread in clients:
            thread.start()
        with monkey:
            time.sleep(4.0)
        stop.set()
        for thread in clients:
            thread.join(timeout=90.0)
            assert not thread.is_alive()

        assert monkey.kills, "the monkey never got to kill anything"
        kinds = [kind for _, kind, _ in outcomes]
        assert kinds.count("ok") > 0, f"no request ever completed: {outcomes!r}"
        # The contract: completed answers are never wrong, failures are
        # never untyped.  (Typed failures are allowed — that's the point.)
        assert kinds.count("wrong") == 0, [o for o in outcomes if o[1] == "wrong"]
        assert kinds.count("untyped") == 0, [
            o for o in outcomes if o[1] == "untyped"
        ]

        with ServeClient(supervisor.url, timeout=60.0, retry_seed=9) as client:
            payload = wait_for_recovery(supervisor, client)
            assert payload["status"] == "ok"
            assert payload["restarts_total"] >= 1
            # The recovered fleet still answers exactly like a fresh restore.
            for count, answers in expected.items():
                assert client.query_batch(count=count) == answers

    def test_successful_responses_are_byte_identical(self, supervisor):
        """Raw wire bytes for one request never vary, whichever worker
        (or worker incarnation) produced them."""
        url = supervisor.url + "/query_batch"
        body = b'{"count": 2, "include_staleness": true}'
        bodies = set()
        monkey = ChaosMonkey(
            supervisor, seed=3, min_interval=0.4, max_interval=0.7, max_kills=2
        )
        with monkey:
            finish_at = time.monotonic() + 2.5
            while time.monotonic() < finish_at:
                request = urllib.request.Request(
                    url, data=body, headers={"Content-Type": "application/json"}
                )
                try:
                    with urllib.request.urlopen(request, timeout=60.0) as response:
                        bodies.add(response.read())
                except Exception:  # noqa: BLE001 - failures checked elsewhere
                    time.sleep(0.05)
        assert bodies, "no request completed during the chaos window"
        assert len(bodies) == 1, f"{len(bodies)} distinct wire encodings"
        decoded = json.loads(next(iter(bodies)))
        assert "answers" in decoded and len(decoded["answers"]) == 2


class TestChaosMonkeyConfig:
    def test_bad_intervals_are_rejected(self, supervisor):
        with pytest.raises(ValueError, match="min_interval"):
            ChaosMonkey(supervisor, min_interval=0.0)
        with pytest.raises(ValueError, match="min_interval"):
            ChaosMonkey(supervisor, min_interval=0.5, max_interval=0.1)

    def test_schedule_is_seed_deterministic(self, supervisor):
        a = ChaosMonkey(supervisor, seed=42)
        b = ChaosMonkey(supervisor, seed=42)
        assert [a.rng.uniform(0.2, 0.8) for _ in range(5)] == [
            b.rng.uniform(0.2, 0.8) for _ in range(5)
        ]
