"""The write-lock sidecar: pid recycling, torn stamps, and steal races.

A pid in a lock file is not an identity: pids recycle, so a lock left by a
crashed writer can point at an unrelated live process.  The stamp therefore
records ``{"pid": ..., "token": <process start time>}`` and a holder is
"live" only when both match a running process.  These tests pin down every
staleness rule and the guarantee that two contenders racing for a stale lock
resolve to exactly one winner and one *typed* loser.
"""

import json
import os
import threading

import pytest

from repro.exceptions import StoreError
from repro.store import SqliteBackend
from repro.store import backend as backend_module
from repro.store.backend import _pid_start_token


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "store.sqlite"


def lock_path(store_path):
    return store_path.with_name(store_path.name + ".lock")


class TestStampFormat:
    def test_lock_stamp_records_pid_and_start_token(self, store_path):
        backend = SqliteBackend(store_path)
        try:
            stamp = json.loads(lock_path(store_path).read_text())
            assert stamp["pid"] == os.getpid()
            assert stamp["token"] == _pid_start_token(os.getpid())
        finally:
            backend.close()
        assert not lock_path(store_path).exists()

    def test_start_token_is_stable_and_distinguishes_processes(self):
        token = _pid_start_token(os.getpid())
        assert token is not None
        assert token == _pid_start_token(os.getpid())
        # pid 1 (init) started before this test process did.
        other = _pid_start_token(1)
        if other is not None:  # /proc may be restricted in odd sandboxes
            assert other != token

    def test_unknown_pid_has_no_token(self):
        assert _pid_start_token(999_999_999) is None


class TestStaleness:
    def _steal_succeeds(self, store_path):
        backend = SqliteBackend(store_path)
        backend.put("checkpoint", "k", {"v": 1})
        backend.close()

    def test_recycled_pid_is_stolen(self, store_path):
        # A live pid (our own) with a *mismatched* start token is a previous
        # incarnation: the holder crashed and the pid was reused.
        lock_path(store_path).write_text(
            json.dumps({"pid": os.getpid(), "token": "1"})
        )
        self._steal_succeeds(store_path)

    def test_live_holder_with_matching_token_is_respected(self, store_path):
        lock_path(store_path).write_text(
            json.dumps({"pid": os.getpid(), "token": _pid_start_token(os.getpid())})
        )
        with pytest.raises(StoreError, match="already open for write"):
            SqliteBackend(store_path)

    def test_legacy_bare_pid_stamp_of_live_process_is_respected(self, store_path):
        # Pre-token lockers wrote just the pid.  With no recorded token we
        # cannot tell incarnations apart, which must read as "held".
        lock_path(store_path).write_text(str(os.getpid()))
        with pytest.raises(StoreError, match="already open for write"):
            SqliteBackend(store_path)

    def test_legacy_bare_pid_stamp_of_dead_process_is_stolen(self, store_path):
        lock_path(store_path).write_text("999999999")
        self._steal_succeeds(store_path)

    def test_empty_stamp_is_stolen(self, store_path):
        # A writer that crashed between creating the file and stamping it.
        lock_path(store_path).write_text("")
        self._steal_succeeds(store_path)

    def test_torn_json_stamp_is_stolen(self, store_path):
        lock_path(store_path).write_text('{"pid": 12')
        self._steal_succeeds(store_path)

    def test_stamp_without_pid_is_stolen(self, store_path):
        lock_path(store_path).write_text(json.dumps({"token": "42"}))
        self._steal_succeeds(store_path)


class TestStealRace:
    def test_two_contenders_one_winner_one_typed_loser(self, store_path):
        """Racing a stale lock: exactly one open succeeds, the loser gets
        StoreError — never two writers, never an untyped crash."""
        for _ in range(5):  # the interleaving is scheduler-dependent; repeat
            lock_path(store_path).write_text("999999999")  # dead holder
            barrier = threading.Barrier(2)
            results = [None, None]

            def contend(slot):
                barrier.wait()
                try:
                    # SQLite handles are thread-affine: the winner must use
                    # and close its backend on this same thread.
                    backend = SqliteBackend(store_path)
                except StoreError as exc:
                    results[slot] = exc
                    return
                try:
                    backend.put("checkpoint", "k", {"v": slot})
                    assert backend.get("checkpoint", "k") == {"v": slot}
                    stamp = json.loads(lock_path(store_path).read_text())
                    assert stamp["pid"] == os.getpid()
                    results[slot] = "winner"
                finally:
                    backend.close()

            threads = [
                threading.Thread(target=contend, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            winners = [r for r in results if r == "winner"]
            losers = [r for r in results if isinstance(r, StoreError)]
            assert len(winners) == 1, f"expected one winner, got {results!r}"
            assert len(losers) == 1
            assert "already open for write" in str(losers[0])
            assert not lock_path(store_path).exists()

    def test_locker_paused_while_stamping_is_not_taken_for_a_torn_write(
        self, store_path, monkeypatch
    ):
        """A locker frozen while it computes its stamp must never be visible
        as an empty sidecar: a contender arriving meanwhile either finds no
        lock at all or a fully stamped one, and of the two opens exactly one
        succeeds while the other fails typed."""
        paused, resume = threading.Event(), threading.Event()
        real_token = backend_module._pid_start_token
        first = {}

        def stalling_token(pid):
            if threading.current_thread() is first.get("thread") and not paused.is_set():
                paused.set()
                assert resume.wait(10.0)
            return real_token(pid)

        monkeypatch.setattr(backend_module, "_pid_start_token", stalling_token)

        def open_first():
            try:
                backend = SqliteBackend(store_path)
            except StoreError as exc:
                first["result"] = exc
            else:
                first["result"] = "winner"
                backend.close()

        first["thread"] = threading.Thread(target=open_first)
        first["thread"].start()
        assert paused.wait(10.0)
        try:
            sidecar = lock_path(store_path)
            assert not sidecar.exists() or json.loads(sidecar.read_text())["pid"]
            try:
                second = SqliteBackend(store_path)
            except StoreError as exc:
                second_result = exc
            else:
                second_result = "winner"
        finally:
            resume.set()
            first["thread"].join(10.0)
        assert not first["thread"].is_alive()
        try:
            results = [first["result"], second_result]
            assert results.count("winner") == 1, results
            loser = next(r for r in results if r != "winner")
            assert isinstance(loser, StoreError)
            assert "already open for write" in str(loser)
        finally:
            if second_result == "winner":
                second.close()
        assert not lock_path(store_path).exists()
