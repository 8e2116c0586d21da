"""Pluggable persistence backends for the ``repro.store`` subsystem.

A backend is a tiny namespaced document store: JSON-compatible payloads are
filed under a ``(kind, key)`` pair, where ``kind`` groups objects of one type
("snapshot", "checkpoint", ...) and ``key`` identifies one object — typically
a content hash or a user-chosen name.  Three implementations ship:

* :class:`InMemoryBackend` — a dict; the default for tests and throwaway runs.
* :class:`JsonDirectoryBackend` — one ``<kind>/<key>.json`` file per object;
  greppable, diffable, rsync-friendly.
* :class:`SqliteBackend` — a single SQLite file; the compact choice for large
  stores (thousands of snapshots) and the one that travels as one artifact.

:func:`open_store` picks a backend from a path: ``None`` → memory, a
``.sqlite``/``.db``/``.sqlite3`` suffix → SQLite, anything else → directory.

Lifecycle: every backend is a context manager.  ``close()`` releases held
resources (the SQLite connection, most importantly) and flips the backend
into a closed state in which **every** operation raises :class:`StoreError`
— uniformly across the three implementations, so code that accidentally uses
a store after closing it fails the same way everywhere instead of only under
SQLite.
"""

from __future__ import annotations

import abc
import json
import os
import re
import sqlite3
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.exceptions import StoreError

try:
    import fcntl
except ImportError:  # pragma: no cover - no flock: stale-lock steals race
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.gc import GcReport

#: Payloads are canonicalised on write: sorted keys, compact separators.
_ENCODER = {"sort_keys": True, "separators": (",", ":")}

_KEY_PATTERN = re.compile(r"^[A-Za-z0-9._@+-]{1,200}$")


def _check_names(kind: str, key: str) -> None:
    for name, value in (("kind", kind), ("key", key)):
        if not _KEY_PATTERN.match(value):
            raise StoreError(
                f"invalid store {name} {value!r}: use 1-200 characters from "
                "[A-Za-z0-9._@+-]"
            )


def parse_document(kind: str, key: str, encoded: str) -> Dict[str, Any]:
    """Parse the stored text of ``(kind, key)``; corrupt text is a :class:`StoreError`."""
    try:
        return json.loads(encoded)
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt stored object {kind}/{key}: {exc}") from exc


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - platform dependent
        return True  # exists, owned by someone else
    except OSError:  # pragma: no cover - platform dependent
        return False
    return True


def _pid_start_token(pid: int) -> Optional[str]:
    """A token identifying this *incarnation* of ``pid``.

    On Linux this is the kernel's process start time (field 22 of
    ``/proc/<pid>/stat``, in clock ticks since boot) — two processes that
    recycle the same pid get different tokens.  Where ``/proc`` is not
    available the token is unknown (``None``) and pid-recycling cannot be
    detected; callers must then fall back to the plain liveness check.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
        # The comm field (2) may itself contain spaces and parentheses, so
        # split on the *last* ')': what follows are fields 3, 4, ... and the
        # start time is overall field 22 (index 19 after the state field).
        fields = data.rsplit(b")", 1)[1].split()
        return fields[19].decode("ascii")
    except (OSError, IndexError, UnicodeDecodeError):
        return None


class _WriteLock:
    """Sidecar lock file marking the one live writer of an on-disk store.

    Two backends writing the same SQLite file corrupt each other silently
    (last ``put`` wins, mid-transaction reads see torn state); two JSON
    directory writers race their atomic renames.  The lock turns that data
    race into one typed :class:`StoreError` at *open* time: the second
    exclusive open of a path fails while the first backend is alive.

    The lock records the holder's ``(pid, start-time token)`` as JSON.  It is
    considered **stale** — and stolen — when the recorded process no longer
    exists, or when a process with that pid exists but its start-time token
    differs from the recorded one (the pid was recycled by an unrelated
    process after the writer crashed).  The stamp is written to a private
    temp file and published with an atomic :func:`os.link` (which fails when
    the name exists), so the sidecar is never visible unstamped and a
    contender cannot take a holder that is mid-acquire for a crashed one.  A
    torn or empty sidecar can only come from a crashed writer that created
    the file before stamping it; it is stale, not an error.  Only an
    *unreadable* file (permissions, I/O) is treated as held, erring on the
    safe side.

    Stealing is race-safe: contenders remove a stale sidecar under an
    ``flock`` of that very file (see :meth:`_reap_stale`), then race the
    link — exactly one wins it.  Losers see a fresh, live lock and fail with
    the usual typed :class:`StoreError`.
    """

    def __init__(self, path: Path, store: str) -> None:
        self._path = path
        self._store = store
        self._acquired = False

    def acquire(self) -> None:
        pid = os.getpid()
        handle, stamp = tempfile.mkstemp(
            prefix=f"{self._path.name}.stamp.", dir=self._path.parent
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(
                    json.dumps({"pid": pid, "token": _pid_start_token(pid)})
                )
            self._publish(stamp)
        finally:
            os.unlink(stamp)

    def _publish(self, stamp: str) -> None:
        """Link the finished stamp into place, removing a stale lock first."""
        for attempt in (1, 2, 3):
            try:
                os.link(stamp, self._path)
            except FileExistsError:
                holder_pid, stale = self._reap_stale()
                if not stale or attempt == 3:
                    raise StoreError(
                        f"store {self._store} is already open for write "
                        f"(lock {self._path} held by pid {holder_pid}): close "
                        "the other backend first, or open read-only with "
                        "exclusive=False"
                    ) from None
                continue
            self._acquired = True
            return

    def _reap_stale(self) -> "tuple[Optional[int], bool]":
        """Unlink the sidecar if its holder is gone: ``(holder pid, stale)``.

        Judging a file stale and unlinking it are two steps, and between
        them another contender may already have removed that file and
        published its own live stamp under the same name.  Contenders
        therefore serialise on an ``flock`` of the sidecar *they judged*
        (the open descriptor also pins its inode) and unlink only while the
        name still refers to it; whoever comes second finds a different
        file under the name and simply looks again.
        """
        try:
            handle = os.open(self._path, os.O_RDONLY)
        except FileNotFoundError:
            return None, True  # released or reaped meanwhile: retry the link
        except OSError:
            return None, False  # unreadable: assume held, err on the safe side
        try:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_EX)  # released by os.close
            try:
                if not os.path.samestat(os.stat(self._path), os.fstat(handle)):
                    return None, True
                raw = os.read(handle, 4096).decode("utf-8").strip()
            except FileNotFoundError:
                return None, True
            except (OSError, UnicodeDecodeError):
                return None, False
            holder_pid, stale = self._holder_state(raw)
            if stale:
                os.unlink(self._path)
            return holder_pid, stale
        finally:
            os.close(handle)

    @staticmethod
    def _holder_state(raw: str) -> "tuple[Optional[int], bool]":
        """The holder pid a stamp records and whether that holder is gone."""
        if not raw:
            return None, True  # legacy torn write: crashed before stamping
        token: Optional[str] = None
        try:
            document = json.loads(raw)
        except ValueError:
            document = None
        if isinstance(document, dict):
            try:
                pid = int(document["pid"])
            except (KeyError, TypeError, ValueError):
                return None, True  # malformed stamp: stale
            token = document.get("token") or None
        elif isinstance(document, int):
            pid = document  # legacy bare-pid stamp (pre-token lockers)
        else:
            return None, True  # torn/garbage JSON: stale
        if not _pid_alive(pid):
            return pid, True
        # A live process holds that pid — but is it the same incarnation?
        # Steal only when both recorded and current tokens are known and
        # disagree; an unknown token on either side means "cannot tell",
        # which must read as held.
        current = _pid_start_token(pid)
        if token is not None and current is not None and token != current:
            return pid, True
        return pid, False

    def release(self) -> None:
        if not self._acquired:
            return
        self._acquired = False
        try:
            os.unlink(self._path)
        except OSError:  # pragma: no cover - filesystem dependent
            pass


class StoreBackend(abc.ABC):
    """The persistence contract: a namespaced JSON document store."""

    def __init__(self) -> None:
        self._closed = False

    def put(self, kind: str, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``(kind, key)``, overwriting any previous value."""
        self._ensure_open()
        try:
            encoded = json.dumps(payload, **_ENCODER)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"payload for {kind}/{key} is not JSON-compatible: {exc}")
        self.put_encoded(kind, key, encoded)

    @abc.abstractmethod
    def put_encoded(self, kind: str, key: str, encoded: str) -> None:
        """:meth:`put` for a payload already in its canonical JSON text."""

    def get(self, kind: str, key: str) -> Dict[str, Any]:
        """Load the payload stored under ``(kind, key)``.

        Raises :class:`StoreError` when the object does not exist or its
        stored text is not JSON.
        """
        return parse_document(kind, key, self.get_encoded(kind, key))

    @abc.abstractmethod
    def get_encoded(self, kind: str, key: str) -> str:
        """The text :meth:`put_encoded` stored under ``(kind, key)``, unparsed.

        Raises :class:`StoreError` when the object does not exist.
        """

    @abc.abstractmethod
    def contains(self, kind: str, key: str) -> bool:
        """Whether an object is stored under ``(kind, key)``."""

    @abc.abstractmethod
    def keys(self, kind: str) -> List[str]:
        """All keys stored under ``kind``, sorted."""

    @abc.abstractmethod
    def kinds(self) -> List[str]:
        """All kinds with at least one stored object, sorted."""

    @abc.abstractmethod
    def delete(self, kind: str, key: str) -> None:
        """Remove one object; raises :class:`StoreError` when absent."""

    @abc.abstractmethod
    def size_bytes(self, kind: str, key: str) -> int:
        """Encoded size of one stored object, in bytes."""

    @abc.abstractmethod
    def location(self) -> str:
        """Human-readable description of where the data lives."""

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError(
                f"store {self.location()} is closed: reopen it before use"
            )

    def close(self) -> None:
        """Release any held resources; further operations raise :class:`StoreError`."""
        self._closed = True

    def __enter__(self) -> "StoreBackend":
        self._ensure_open()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- conveniences ------------------------------------------------------------

    def gc(self, dry_run: bool = False) -> "GcReport":
        """Collect content-addressed snapshots unreachable from any checkpoint.

        Delegates to :func:`repro.store.gc.collect_garbage`; see there for the
        reachability rules (retained checkpoints, delta chains and recorded
        domain heads all pin their snapshots).
        """
        from repro.store.gc import collect_garbage

        return collect_garbage(self, dry_run=dry_run)

    def __contains__(self, kind_key: object) -> bool:
        if not (isinstance(kind_key, tuple) and len(kind_key) == 2):
            raise StoreError("membership tests take a (kind, key) pair")
        kind, key = kind_key
        return self.contains(str(kind), str(key))


class InMemoryBackend(StoreBackend):
    """Objects live in a process-local dict (no durability)."""

    def __init__(self) -> None:
        super().__init__()
        self._objects: Dict[str, Dict[str, str]] = {}

    def put_encoded(self, kind: str, key: str, encoded: str) -> None:
        self._ensure_open()
        _check_names(kind, key)
        self._objects.setdefault(kind, {})[key] = encoded

    def get_encoded(self, kind: str, key: str) -> str:
        self._ensure_open()
        _check_names(kind, key)
        try:
            return self._objects[kind][key]
        except KeyError:
            raise StoreError(f"no stored object {kind}/{key}") from None

    def contains(self, kind: str, key: str) -> bool:
        self._ensure_open()
        _check_names(kind, key)
        return key in self._objects.get(kind, {})

    def keys(self, kind: str) -> List[str]:
        self._ensure_open()
        return sorted(self._objects.get(kind, {}))

    def kinds(self) -> List[str]:
        self._ensure_open()
        return sorted(kind for kind, objects in self._objects.items() if objects)

    def delete(self, kind: str, key: str) -> None:
        self._ensure_open()
        _check_names(kind, key)
        try:
            del self._objects[kind][key]
        except KeyError:
            raise StoreError(f"no stored object {kind}/{key}") from None

    def size_bytes(self, kind: str, key: str) -> int:
        self._ensure_open()
        _check_names(kind, key)
        try:
            return len(self._objects[kind][key].encode("utf-8"))
        except KeyError:
            raise StoreError(f"no stored object {kind}/{key}") from None

    def location(self) -> str:
        return "memory"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        total = sum(len(objects) for objects in self._objects.values())
        return f"InMemoryBackend({total} objects)"


class JsonDirectoryBackend(StoreBackend):
    """One ``<root>/<kind>/<key>.json`` file per object.

    ``exclusive=True`` (the default) takes a ``.write.lock`` sidecar in the
    root directory; a second exclusive open of the same root then raises
    :class:`StoreError` while this backend is alive.  Read-only consumers
    (``open_readonly_session``) open with ``exclusive=False`` and coexist
    with one writer.
    """

    def __init__(self, root: Union[str, Path], exclusive: bool = True) -> None:
        super().__init__()
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise StoreError(
                f"JSON store root {self._root} exists and is not a directory"
            )
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock: Optional[_WriteLock] = None
        if exclusive:
            self._lock = _WriteLock(self._root / ".write.lock", str(self._root))
            self._lock.acquire()

    @property
    def root(self) -> Path:
        return self._root

    def close(self) -> None:
        if not self._closed and self._lock is not None:
            self._lock.release()
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _path(self, kind: str, key: str) -> Path:
        _check_names(kind, key)
        return self._root / kind / f"{key}.json"

    def put_encoded(self, kind: str, key: str, encoded: str) -> None:
        self._ensure_open()
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: the document is written to a uniquely named temp
        # file in the same directory, then renamed over the target.  Readers
        # (and the `*.json` key listing) never observe a half-written file —
        # a crash mid-write leaves only an orphaned `*.tmp` the next `put`
        # ignores, and the previously stored document stays intact.
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(encoded)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def get_encoded(self, kind: str, key: str) -> str:
        self._ensure_open()
        path = self._path(kind, key)
        if not path.is_file():
            raise StoreError(f"no stored object {kind}/{key} under {self._root}")
        return path.read_text(encoding="utf-8")

    def contains(self, kind: str, key: str) -> bool:
        self._ensure_open()
        return self._path(kind, key).is_file()

    def keys(self, kind: str) -> List[str]:
        self._ensure_open()
        directory = self._root / kind
        if not directory.is_dir():
            return []
        return sorted(path.stem for path in directory.glob("*.json"))

    def kinds(self) -> List[str]:
        self._ensure_open()
        return sorted(
            path.name
            for path in self._root.iterdir()
            if path.is_dir() and any(path.glob("*.json"))
        )

    def delete(self, kind: str, key: str) -> None:
        self._ensure_open()
        path = self._path(kind, key)
        if not path.is_file():
            raise StoreError(f"no stored object {kind}/{key} under {self._root}")
        path.unlink()

    def size_bytes(self, kind: str, key: str) -> int:
        self._ensure_open()
        path = self._path(kind, key)
        if not path.is_file():
            raise StoreError(f"no stored object {kind}/{key} under {self._root}")
        return path.stat().st_size

    def location(self) -> str:
        return str(self._root)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"JsonDirectoryBackend({self._root})"


class SqliteBackend(StoreBackend):
    """All objects in one SQLite file (table ``objects(kind, key, payload)``).

    ``exclusive=True`` (the default) takes a ``<path>.lock`` sidecar; a
    second exclusive open of the same file raises :class:`StoreError` while
    this backend is alive, instead of the two connections corrupting each
    other's writes.  Read-only consumers open with ``exclusive=False``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        check_same_thread: bool = True,
        exclusive: bool = True,
    ) -> None:
        super().__init__()
        self._path = Path(path)
        if self._path.parent and not self._path.parent.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock: Optional[_WriteLock] = None
        if exclusive:
            self._lock = _WriteLock(
                Path(str(self._path) + ".lock"), str(self._path)
            )
            self._lock.acquire()
        try:
            # check_same_thread=False lets the read-only serving path touch
            # the connection from worker threads; every such caller must
            # serialize access itself (sqlite connections are not re-entrant).
            self._connection = sqlite3.connect(
                str(self._path), check_same_thread=check_same_thread
            )
        except sqlite3.Error as exc:  # pragma: no cover - filesystem dependent
            if self._lock is not None:
                self._lock.release()
            raise StoreError(f"cannot open SQLite store {self._path}: {exc}") from exc
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS objects ("
            " kind TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " payload TEXT NOT NULL,"
            " PRIMARY KEY (kind, key))"
        )
        self._connection.commit()

    @property
    def path(self) -> Path:
        return self._path

    def put_encoded(self, kind: str, key: str, encoded: str) -> None:
        self._ensure_open()
        _check_names(kind, key)
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO objects (kind, key, payload) VALUES (?, ?, ?)",
                (kind, key, encoded),
            )

    def get_encoded(self, kind: str, key: str) -> str:
        self._ensure_open()
        _check_names(kind, key)
        row = self._connection.execute(
            "SELECT payload FROM objects WHERE kind = ? AND key = ?", (kind, key)
        ).fetchone()
        if row is None:
            raise StoreError(f"no stored object {kind}/{key} in {self._path}")
        return row[0]

    def contains(self, kind: str, key: str) -> bool:
        # The index answers; the payload (a snapshot is tens of KB) stays put.
        self._ensure_open()
        _check_names(kind, key)
        row = self._connection.execute(
            "SELECT 1 FROM objects WHERE kind = ? AND key = ?", (kind, key)
        ).fetchone()
        return row is not None

    def keys(self, kind: str) -> List[str]:
        self._ensure_open()
        rows = self._connection.execute(
            "SELECT key FROM objects WHERE kind = ? ORDER BY key", (kind,)
        ).fetchall()
        return [row[0] for row in rows]

    def kinds(self) -> List[str]:
        self._ensure_open()
        rows = self._connection.execute(
            "SELECT DISTINCT kind FROM objects ORDER BY kind"
        ).fetchall()
        return [row[0] for row in rows]

    def delete(self, kind: str, key: str) -> None:
        self._ensure_open()
        _check_names(kind, key)
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM objects WHERE kind = ? AND key = ?", (kind, key)
            )
        if cursor.rowcount == 0:
            raise StoreError(f"no stored object {kind}/{key} in {self._path}")

    def size_bytes(self, kind: str, key: str) -> int:
        return len(self.get_encoded(kind, key).encode("utf-8"))

    def location(self) -> str:
        return str(self._path)

    def close(self) -> None:
        if not self._closed:
            self._connection.close()
            if self._lock is not None:
                self._lock.release()
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if hasattr(self, "_connection"):
                self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SqliteBackend({self._path})"


_SQLITE_SUFFIXES = {".sqlite", ".sqlite3", ".db"}


def open_store(
    target: Union[None, str, Path, StoreBackend],
    check_same_thread: bool = True,
    exclusive: bool = True,
) -> StoreBackend:
    """Open (or pass through) a store backend.

    ``None`` opens an in-memory store; a path with a ``.sqlite``/``.sqlite3``/
    ``.db`` suffix opens the single-file SQLite backend; any other path opens
    a JSON directory; an existing backend is returned unchanged.

    ``check_same_thread=False`` opens a SQLite backend whose connection may be
    used from threads other than the opening one (the caller must serialize
    access); other backends are thread-agnostic and ignore the flag.

    ``exclusive=True`` (the default) claims the path's write lock: a second
    exclusive open of the same path raises :class:`StoreError` while the
    first backend is alive.  Pass ``exclusive=False`` for read-only sharing
    (the read-only serving path does).  In-memory backends ignore the flag.
    """
    if target is None:
        return InMemoryBackend()
    if isinstance(target, StoreBackend):
        return target
    path = Path(target)
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        return SqliteBackend(
            path, check_same_thread=check_same_thread, exclusive=exclusive
        )
    return JsonDirectoryBackend(path, exclusive=exclusive)


def owns_backend(target: Union[None, str, Path, StoreBackend]) -> bool:
    """Whether :func:`open_store` on ``target`` would *create* a backend.

    Callers that open a store from a path are responsible for closing it;
    callers handed an already-open :class:`StoreBackend` must leave its
    lifecycle to whoever opened it.
    """
    return not isinstance(target, StoreBackend)
