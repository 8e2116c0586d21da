"""Backend edge-case parity: the three implementations fail identically.

A parametrized matrix asserting *identical behaviour — exception types
included* — across in-memory / JSON-directory / SQLite for the awkward
corners: deleting a missing key, reading after a delete, overwriting,
operating after ``close()``, reopening a durable store, and GC refcount
accounting.
"""

import pytest

from repro.exceptions import StoreError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.store import (
    DomainHeadArchive,
    InMemoryBackend,
    JsonDirectoryBackend,
    SnapshotStore,
    SqliteBackend,
    snapshot_refcounts,
)

BACKENDS = ["memory", "json", "sqlite"]


class _Harness:
    """One backend plus how to (re)open it; memory cannot reopen."""

    def __init__(self, param, tmp_path):
        self._param = param
        self._tmp_path = tmp_path
        self.backend = self._open()
        self.durable = param != "memory"

    def _open(self):
        if self._param == "memory":
            return InMemoryBackend()
        if self._param == "json":
            return JsonDirectoryBackend(self._tmp_path / "store")
        return SqliteBackend(self._tmp_path / "store.sqlite")

    def reopen(self):
        self.backend.close()
        self.backend = self._open()
        return self.backend


@pytest.fixture(params=BACKENDS)
def harness(request, tmp_path):
    h = _Harness(request.param, tmp_path)
    yield h
    try:
        h.backend.close()
    except StoreError:  # pragma: no cover - already closed by the test
        pass


class TestEdgeCaseParity:
    def test_delete_missing_key(self, harness):
        with pytest.raises(StoreError, match="no stored object"):
            harness.backend.delete("checkpoint", "never-stored")

    def test_get_after_delete(self, harness):
        backend = harness.backend
        backend.put("checkpoint", "k", {"v": 1})
        backend.delete("checkpoint", "k")
        assert not backend.contains("checkpoint", "k")
        with pytest.raises(StoreError, match="no stored object"):
            backend.get("checkpoint", "k")
        with pytest.raises(StoreError, match="no stored object"):
            backend.size_bytes("checkpoint", "k")
        assert backend.keys("checkpoint") == []

    def test_get_encoded_returns_the_stored_text(self, harness):
        backend = harness.backend
        text = '{"b": [1, 2.5], "a": "é"}'  # not canonical: stored as given
        backend.put_encoded("snapshot", "k", text)
        assert backend.get_encoded("snapshot", "k") == text
        assert backend.get("snapshot", "k") == {"a": "é", "b": [1, 2.5]}
        with pytest.raises(StoreError, match="no stored object"):
            backend.get_encoded("snapshot", "missing")

    def test_get_of_corrupt_text_raises_store_error(self, harness):
        backend = harness.backend
        backend.put_encoded("snapshot", "k", '{"torn": ')
        with pytest.raises(StoreError, match="^corrupt stored object snapshot/k: "):
            backend.get("snapshot", "k")
        assert backend.get_encoded("snapshot", "k") == '{"torn": '

    def test_reput_overwrites(self, harness):
        backend = harness.backend
        backend.put("checkpoint", "k", {"v": 1, "extra": [1, 2, 3]})
        backend.put("checkpoint", "k", {"v": 2})
        assert backend.get("checkpoint", "k") == {"v": 2}
        assert backend.keys("checkpoint") == ["k"]
        assert backend.size_bytes("checkpoint", "k") == len(b'{"v":2}')

    @pytest.mark.parametrize(
        "operation",
        [
            lambda b: b.put("checkpoint", "k", {}),
            lambda b: b.get("checkpoint", "k"),
            lambda b: b.get_encoded("checkpoint", "k"),
            lambda b: b.contains("checkpoint", "k"),
            lambda b: b.keys("checkpoint"),
            lambda b: b.kinds(),
            lambda b: b.delete("checkpoint", "k"),
            lambda b: b.size_bytes("checkpoint", "k"),
        ],
        ids=[
            "put", "get", "get_encoded", "contains", "keys", "kinds", "delete",
            "size_bytes",
        ],
    )
    def test_every_operation_after_close_raises_store_error(self, harness, operation):
        harness.backend.put("checkpoint", "k", {"v": 1})
        harness.backend.close()
        assert harness.backend.closed
        with pytest.raises(StoreError, match="closed"):
            operation(harness.backend)

    def test_close_is_idempotent(self, harness):
        harness.backend.close()
        harness.backend.close()  # no error, still closed
        assert harness.backend.closed

    def test_context_manager_closes(self, harness):
        with harness.backend as backend:
            backend.put("checkpoint", "k", {"v": 1})
        assert harness.backend.closed
        with pytest.raises(StoreError, match="closed"):
            harness.backend.get("checkpoint", "k")

    def test_entering_a_closed_backend_raises(self, harness):
        harness.backend.close()
        with pytest.raises(StoreError, match="closed"):
            with harness.backend:
                pass  # pragma: no cover

    def test_reopen_after_close(self, harness):
        harness.backend.put("checkpoint", "k", {"v": 7})
        reopened = harness.reopen()
        if harness.durable:
            assert reopened.get("checkpoint", "k") == {"v": 7}
        else:
            # Memory stores do not survive reopening — but the reopened store
            # must behave like any other empty backend, not error differently.
            with pytest.raises(StoreError, match="no stored object"):
                reopened.get("checkpoint", "k")
        assert not reopened.closed

    def test_second_exclusive_open_raises_typed_error(self, harness, tmp_path):
        """A concurrent write open fails with StoreError, not sqlite3/OSError."""
        if not harness.durable:
            pytest.skip("memory backends have no shared path to contend on")
        with pytest.raises(StoreError, match="already open for write"):
            harness._open()
        # The losing open must not have broken the holder.
        harness.backend.put("checkpoint", "k", {"v": 1})
        assert harness.backend.get("checkpoint", "k") == {"v": 1}

    def test_exclusive_reopen_after_close_succeeds(self, harness):
        if not harness.durable:
            pytest.skip("memory backends have no shared path to contend on")
        harness.backend.put("checkpoint", "k", {"v": 1})
        reopened = harness.reopen()  # closing released the write lock
        assert reopened.get("checkpoint", "k") == {"v": 1}

    def test_non_exclusive_open_coexists_with_writer(self, harness):
        if not harness.durable:
            pytest.skip("memory backends have no shared path to contend on")
        harness.backend.put("checkpoint", "k", {"v": 1})
        if harness._param == "json":
            reader = JsonDirectoryBackend(harness._tmp_path / "store", exclusive=False)
        else:
            reader = SqliteBackend(harness._tmp_path / "store.sqlite", exclusive=False)
        try:
            assert reader.get("checkpoint", "k") == {"v": 1}
        finally:
            reader.close()
        # Closing the non-exclusive reader must not release the writer's lock.
        with pytest.raises(StoreError, match="already open for write"):
            harness._open()

    def test_stale_lock_of_dead_process_is_stolen(self, harness):
        if not harness.durable:
            pytest.skip("memory backends have no shared path to contend on")
        harness.backend.close()
        if harness._param == "json":
            lock = harness._tmp_path / "store" / ".write.lock"
        else:
            lock = harness._tmp_path / "store.sqlite.lock"
        # A writer that crashed without close() leaves its lock behind; a pid
        # that cannot exist marks it dead, so the next open steals it.
        lock.write_text("999999999")
        harness.backend = harness._open()
        harness.backend.put("checkpoint", "k", {"v": 1})
        assert harness.backend.get("checkpoint", "k") == {"v": 1}

    def test_gc_refcount_accounting(self, harness):
        """Identical refcounts and GC outcome on every backend."""
        backend = harness.backend
        background = medical_background_knowledge()

        def hierarchy(tag):
            h = SummaryHierarchy(background, attributes=["age", "bmi"], owner=tag)
            h.add_records([{"age": 40, "bmi": 25.0, "sex": "F", "disease": "asthma"}])
            return h

        snapshots = SnapshotStore(backend)
        shared = snapshots.put_hierarchy(hierarchy("shared"))
        orphan = snapshots.put_hierarchy(hierarchy("orphan"))
        archive = DomainHeadArchive(backend)
        archive.record_head("p1", shared, [["p2", shared]], time=1.0)
        archive.record_head("p9", shared, [], time=2.0)

        assert snapshot_refcounts(backend) == {shared: 3, orphan: 0}
        report = backend.gc()
        assert report.deleted == [orphan]
        assert report.live == 1
        assert snapshot_refcounts(backend) == {shared: 3}
