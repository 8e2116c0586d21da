"""A fleet restores once: workers are forks of one read-only zygote.

The supervisor forks a single-threaded zygote before it starts any thread of
its own; the zygote opens the checkpoint, freezes the heap and forks every
worker, at start and at each restart.  These tests pin what that must hold:
a replacement is the zygote's child and answers byte-identically, the
supervisor itself never forks again, a dead zygote degrades the fleet
without hanging it, ``stop()`` leaves no process behind, and no store
handle is used on both sides of a fork (lazy fetches happen in the workers,
over their own connections, on a SQLite and a JSON store alike).
"""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.exceptions import StoreError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.serve.client import ServeClient
from repro.serve.supervisor import BACKOFF, LIVE, Supervisor
from repro.serve.worker import run_child
from repro.store.backend import SqliteBackend
from repro.store.checkpoint import open_readonly_session, save_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases

BATCH = b'{"count": 3, "include_staleness": true}'


def fleet(store, **options):
    options.setdefault("workers", 2)
    options.setdefault("heartbeat_interval", 0.1)
    options.setdefault("restart_backoff_base", 0.05)
    options.setdefault("restart_backoff_cap", 0.5)
    return Supervisor(store, **options).start()


def parent_pid(pid):
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[1])


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def post(url, body=BATCH):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.read()


def get_json(url):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return json.loads(response.read())


def wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_workers_are_forks_of_the_zygote_and_report_private_memory(planned_store):
    sup = fleet(planned_store)
    try:
        assert parent_pid(sup.zygote.pid) == os.getpid()
        health = ServeClient(sup.url).health()
        assert health["status"] == "ok"
        for worker in health["workers"]:
            assert parent_pid(worker["pid"]) == sup.zygote.pid
            assert isinstance(worker["private_mb"], float) and worker["private_mb"] > 0
    finally:
        sup.stop()


def test_a_killed_worker_is_reforked_from_the_zygote_and_answers_identically(
    planned_store,
):
    sup = fleet(planned_store)
    try:
        victim = sup.workers[0]
        before = post(victim.url + "/query_batch")
        old_pid = victim.pid
        killed_at = time.monotonic()
        victim.process.kill()
        budget = sup.backoff_delay(0) + 1.0
        assert wait_until(
            lambda: victim.state == LIVE and victim.pid != old_pid, budget
        ), f"no replacement within {budget}s: {victim.payload()}"
        assert time.monotonic() - killed_at <= budget
        assert parent_pid(victim.pid) == sup.zygote.pid
        assert post(victim.url + "/query_batch") == before
    finally:
        sup.stop()


def test_the_supervisor_never_forks_after_it_started(planned_store, monkeypatch):
    sup = fleet(planned_store)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    try:
        for round_ in range(2):
            victim = sup.workers[round_ % 2]
            old_pid = victim.pid
            victim.process.kill()
            assert wait_until(
                lambda: victim.state == LIVE and victim.pid != old_pid, 10.0
            )
        assert ServeClient(sup.url).health()["restarts_total"] == 2
        assert forks == []
    finally:
        sup.stop()


def test_a_dead_zygote_degrades_the_fleet_and_restarts_fail_typed(planned_store):
    sup = fleet(planned_store)
    try:
        os.kill(sup.zygote.pid, signal.SIGKILL)
        client = ServeClient(sup.url, timeout=30.0)
        assert wait_until(lambda: client.health()["status"] == "degraded", 5.0)
        victim = sup.workers[0]
        victim.process.kill()
        # The replacement cannot be forked: each attempt fails typed and
        # backs off again, and the survivor keeps answering meanwhile.
        assert wait_until(lambda: victim.restarts >= 3, 10.0), victim.payload()
        assert victim.state == BACKOFF
        metrics = client.metrics()
        assert 'repro_supervisor_worker_failures_total{reason="spawn"}' in metrics
        assert client.query_batch(count=2)
        assert client.health()["workers_live"] == 1
    finally:
        started = time.monotonic()
        sup.stop()
        assert time.monotonic() - started < 15.0


def test_stop_leaves_no_zygote_or_worker_alive(planned_store):
    sup = fleet(planned_store)
    victim = sup.workers[1]
    pids = [sup.zygote.pid] + [handle.pid for handle in sup.workers]
    victim.process.kill()
    assert wait_until(lambda: victim.state == LIVE and victim.pid not in pids, 10.0)
    pids.append(victim.pid)
    sup.stop()
    assert [pid for pid in pids if alive(pid)] == []


def test_a_failed_start_leaves_no_zygote_behind(planned_store):
    sup = Supervisor(planned_store, name="no-such-checkpoint", workers=1)
    with pytest.raises(StoreError, match="no-such-checkpoint"):
        sup.start()
    assert sup.zygote.poll() is not None
    assert not alive(sup.zygote.pid)


def test_a_forked_child_reads_a_sqlite_store_over_a_connection_of_its_own(
    planned_store,
):
    backend = SqliteBackend(planned_store, exclusive=False)
    inherited = backend._connection
    keys = backend.keys("checkpoint")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        run_child(
            lambda: os.write(
                write_end,
                json.dumps(
                    [backend.keys("checkpoint"), backend._connection is inherited]
                ).encode(),
            )
            and 0
        )
    os.close(write_end)
    with os.fdopen(read_end) as report:
        assert json.loads(report.read()) == [keys, False]
    assert os.waitpid(pid, 0)[1] == 0
    assert backend._connection is inherited  # the parent's is untouched
    assert backend.keys("checkpoint") == keys
    backend.close()


@pytest.fixture(scope="module")
def medical_session():
    overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=3))
    background = medical_background_knowledge()
    workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=3)
    return (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(build_peer_databases(overlay.peer_ids, workload))
        .seed(3)
        .build()
    )


@pytest.mark.parametrize("suffix", [".sqlite", ""], ids=["sqlite", "json"])
def test_workers_fetch_lazily_over_their_own_store_handles(
    medical_session, tmp_path, suffix
):
    store = str(tmp_path / f"medical{suffix}")
    save_session(medical_session, store)
    background = medical_background_knowledge()
    local = open_readonly_session(store, background=background)
    sup = fleet(store, background="medical", cache_size=0)
    try:
        with ServeClient(sup.url, timeout=60.0) as client:
            for query_id in range(6):
                assert client.query(query_id=query_id) == local.query(
                    query_id=query_id
                )
            assert client.query_batch(count=4) == local.query_batch(count=4)
        for handle in sup.workers:
            assert get_json(handle.url + "/stats")["lazy"]["fetches"] > 0
    finally:
        sup.stop()
        local.close()
