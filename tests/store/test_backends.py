"""Backend contract tests: the three implementations behave identically."""

import os

import pytest

from repro.exceptions import StoreError
from repro.store import (
    InMemoryBackend,
    JsonDirectoryBackend,
    SqliteBackend,
    open_store,
)


@pytest.fixture(params=["memory", "json", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield InMemoryBackend()
    elif request.param == "json":
        yield JsonDirectoryBackend(tmp_path / "store")
    else:
        store = SqliteBackend(tmp_path / "store.sqlite")
        yield store
        store.close()


class TestContract:
    def test_put_get_roundtrip(self, backend):
        payload = {"alpha": 0.3, "nested": {"values": [1, 2.5, "x", None, True]}}
        backend.put("checkpoint", "run-1", payload)
        assert backend.get("checkpoint", "run-1") == payload

    def test_overwrite_replaces(self, backend):
        backend.put("snapshot", "k", {"v": 1})
        backend.put("snapshot", "k", {"v": 2})
        assert backend.get("snapshot", "k") == {"v": 2}

    def test_contains_and_membership(self, backend):
        assert not backend.contains("snapshot", "missing")
        backend.put("snapshot", "present", {})
        assert backend.contains("snapshot", "present")
        assert ("snapshot", "present") in backend
        assert ("snapshot", "missing") not in backend

    def test_keys_and_kinds_sorted(self, backend):
        backend.put("b-kind", "z", {})
        backend.put("b-kind", "a", {})
        backend.put("a-kind", "m", {})
        assert backend.keys("b-kind") == ["a", "z"]
        assert backend.kinds() == ["a-kind", "b-kind"]
        assert backend.keys("no-such-kind") == []

    def test_get_missing_raises(self, backend):
        with pytest.raises(StoreError, match="no stored object"):
            backend.get("checkpoint", "nope")

    def test_delete(self, backend):
        backend.put("snapshot", "k", {"v": 1})
        backend.delete("snapshot", "k")
        assert not backend.contains("snapshot", "k")
        with pytest.raises(StoreError):
            backend.delete("snapshot", "k")

    def test_size_bytes_matches_canonical_encoding(self, backend):
        payload = {"b": 1, "a": [1, 2]}
        backend.put("snapshot", "k", payload)
        assert backend.size_bytes("snapshot", "k") == len(b'{"a":[1,2],"b":1}')

    def test_invalid_names_rejected(self, backend):
        for bad in ("", "a/b", "a b", "x" * 201):
            with pytest.raises(StoreError, match="invalid store"):
                backend.put("snapshot", bad, {})
            with pytest.raises(StoreError, match="invalid store"):
                backend.put(bad, "key", {})

    def test_non_json_payload_rejected(self, backend):
        with pytest.raises(StoreError, match="not JSON-compatible"):
            backend.put("snapshot", "k", {"bad": object()})


class TestTransaction:
    def test_writes_inside_a_transaction_are_stored(self, backend):
        with backend.transaction():
            backend.put("snapshot", "a", {"v": 1})
            backend.put("snapshot", "b", {"v": 2})
            backend.delete("snapshot", "a")
            assert backend.keys("snapshot") == ["b"]
        assert backend.keys("snapshot") == ["b"]
        assert backend.get("snapshot", "b") == {"v": 2}

    def test_a_transaction_on_a_closed_store_raises(self, backend):
        backend.close()
        with pytest.raises(StoreError, match="closed"):
            with backend.transaction():
                pass

    def test_a_failed_transaction_rolls_back_on_sqlite(self, tmp_path):
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            store.put("snapshot", "kept", {"v": 0})
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.put("snapshot", "a", {"v": 1})
                    store.delete("snapshot", "kept")
                    raise RuntimeError("mid-save")
            assert store.keys("snapshot") == ["kept"]
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            assert store.keys("snapshot") == ["kept"]

    def test_a_nested_transaction_joins_the_outer_one_on_sqlite(self, tmp_path):
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            statements = []
            store._connection.set_trace_callback(statements.append)
            with store.transaction():
                store.put("snapshot", "a", {"v": 1})
                with store.transaction():
                    store.put("snapshot", "b", {"v": 2})
                store.put("checkpoint", "c", {"v": 3})
            assert [s for s in statements if s.startswith("COMMIT")] == ["COMMIT"]
            assert store.keys("snapshot") == ["a", "b"]


class TestAtomicJsonWrites:
    """A crash mid-`put` must never poison a previously stored document."""

    def test_torn_temp_write_leaves_previous_document_intact(
        self, tmp_path, monkeypatch
    ):
        store = JsonDirectoryBackend(tmp_path / "s")
        store.put("checkpoint", "k", {"v": 1})

        real_fdopen = os.fdopen

        class TornStream:
            """Writes half the payload, then dies — a simulated crash."""

            def __init__(self, stream):
                self._stream = stream

            def write(self, text):
                self._stream.write(text[: len(text) // 2])
                self._stream.flush()
                raise OSError("simulated crash mid-write")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._stream.close()

        monkeypatch.setattr(
            "repro.store.backend.os.fdopen",
            lambda fd, *args, **kwargs: TornStream(real_fdopen(fd, *args, **kwargs)),
        )
        with pytest.raises(OSError, match="simulated crash"):
            store.put("checkpoint", "k", {"v": 2, "payload": "x" * 4096})
        monkeypatch.undo()

        # The torn write is invisible: the old document reads back whole and
        # no half-written file pollutes the key listing.
        assert store.get("checkpoint", "k") == {"v": 1}
        assert store.keys("checkpoint") == ["k"]
        assert store.kinds() == ["checkpoint"]

    def test_crash_before_publish_leaves_previous_document_intact(
        self, tmp_path, monkeypatch
    ):
        store = JsonDirectoryBackend(tmp_path / "s")
        store.put("checkpoint", "k", {"v": 1})

        def refuse_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.store.backend.os.replace", refuse_replace)
        with pytest.raises(OSError, match="before rename"):
            store.put("checkpoint", "k", {"v": 2})
        monkeypatch.undo()

        assert store.get("checkpoint", "k") == {"v": 1}
        assert store.keys("checkpoint") == ["k"]
        # The failed attempt cleaned its temp file up.
        leftovers = list((tmp_path / "s" / "checkpoint").glob("*.tmp"))
        assert leftovers == []

    def test_orphaned_temp_file_is_ignored(self, tmp_path):
        store = JsonDirectoryBackend(tmp_path / "s")
        store.put("checkpoint", "k", {"v": 1})
        # A temp file left behind by a crash elsewhere must not surface as a
        # stored object or corrupt reads.
        (tmp_path / "s" / "checkpoint" / ".k.deadbeef.tmp").write_text("{tor")
        assert store.keys("checkpoint") == ["k"]
        assert store.get("checkpoint", "k") == {"v": 1}


class TestDurability:
    def test_json_store_survives_reopen(self, tmp_path):
        with JsonDirectoryBackend(tmp_path / "s") as store:
            store.put("checkpoint", "k", {"v": 7})
        with JsonDirectoryBackend(tmp_path / "s") as store:
            assert store.get("checkpoint", "k") == {"v": 7}

    def test_sqlite_store_survives_reopen(self, tmp_path):
        first = SqliteBackend(tmp_path / "s.sqlite")
        first.put("checkpoint", "k", {"v": 7})
        first.close()
        second = SqliteBackend(tmp_path / "s.sqlite")
        assert second.get("checkpoint", "k") == {"v": 7}
        second.close()

    def test_json_files_are_one_per_object(self, tmp_path):
        store = JsonDirectoryBackend(tmp_path / "s")
        store.put("snapshot", "abc", {"v": 1})
        assert (tmp_path / "s" / "snapshot" / "abc.json").is_file()


class TestOpenStore:
    def test_none_gives_memory(self):
        assert isinstance(open_store(None), InMemoryBackend)

    def test_sqlite_suffixes(self, tmp_path):
        for suffix in (".sqlite", ".sqlite3", ".db"):
            store = open_store(tmp_path / f"s{suffix}")
            assert isinstance(store, SqliteBackend)
            store.close()

    def test_directory_gives_json(self, tmp_path):
        assert isinstance(open_store(tmp_path / "plain"), JsonDirectoryBackend)

    def test_backend_passthrough(self):
        backend = InMemoryBackend()
        assert open_store(backend) is backend
