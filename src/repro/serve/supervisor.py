"""Crash-safe serving: a supervised fleet of worker processes, one front port.

The single-process daemon (:mod:`repro.serve.server`) computes one answer at
a time: its handler threads share the session freely, but protocol work is
pure Python under one GIL, so more threads buy no throughput.  The
:class:`Supervisor` parallelizes across processes instead: it runs ``N``
**worker processes** and fronts them with a proxy on a single port.  Because
answers are deterministic by construction — no request writes to the session
it reads — which process answers a request is unobservable, and
process-level recovery can be verified *byte for byte*.

A fleet restores its checkpoint once.  :meth:`Supervisor.start` first forks
one single-threaded **zygote** (:func:`repro.serve.worker.run_zygote`),
which opens the checkpoint read-only (``exclusive=False``, so the fleet
coexists with at most one writer), freezes the restored heap and forks every
worker — at start and at each restart — so the workers share the restored
pages copy-on-write.  The supervisor starts its own threads only after that
first fork and never forks again: a worker is the zygote's child, and the
supervisor holds it through a :class:`ForkedProcess` (a pidfd).  Each worker
opens its own store connection on its first lazy fetch; no store handle is
used on both sides of a fork.  If the zygote dies, the workers serve on but
none can be replaced: ``/health`` reads ``degraded`` and each restart fails
typed and backs off.

What the front process adds on top of raw forwarding:

* **Supervision** — a health loop polls every worker; a crashed worker
  (nonzero exit, SIGKILL) or a hung one (missed heartbeats) is restarted
  with capped exponential backoff.  Restart counts, per-worker liveness and
  each worker's unique memory (``private_mb``: what copy-on-write could not
  share) are reported on ``/health``.
* **Deadlines** — every query-shaped request carries a budget
  (``deadline_ms``, overridable per request via the ``X-Repro-Deadline-Ms``
  header, its name in any case).  A request that exceeds it fails typed (HTTP 504,
  :class:`~repro.exceptions.ServeDeadlineError`) instead of hanging.
* **Load shedding** — at most ``max_inflight`` requests execute at once;
  beyond that the supervisor answers HTTP 503 with a ``Retry-After`` header
  (:class:`~repro.exceptions.ServeOverloadError` client-side) instead of
  queueing unboundedly.
* **Zero-wrong-answer recovery** — a forward interrupted by a worker crash
  is transparently retried on another live worker (safe: answers are
  deterministic); if none is available within the deadline the request fails
  typed (HTTP 502, :class:`~repro.exceptions.WorkerCrashError`).  A client
  never sees a wrong or truncated answer, only a success or a typed failure.
* **Exact response caching** — a :class:`~repro.serve.cache.ResponseCache`
  keyed by (canonical request, checkpoint digest) sits in front of worker
  dispatch; hits are provably correct because identical requests against the
  same checkpoint bytes answer identically.
* **Merged metrics** — each worker's
  :class:`~repro.obs.registry.MetricsRegistry` snapshot is polled over
  ``/metrics_snapshot`` and folded into the supervisor's ``/metrics`` via
  ``merge_snapshot``, so one Prometheus page aggregates the whole fleet
  (crashed workers keep their last-polled counters through a retired
  registry).
* **Graceful drain** — ``/shutdown`` (or :meth:`Supervisor.stop`) stops
  admitting new work, lets in-flight requests finish, then shuts workers
  down cleanly (HTTP shutdown, then SIGTERM, then SIGKILL).

Connection lifecycle: both of the supervisor's hops are persistent HTTP/1.1.
*Client → front*: the front port behaves exactly like the single daemon (see
:mod:`repro.serve.server`) — one handler thread per client connection,
responses in one write with Nagle off, request bodies always consumed, idle
connections closed after :data:`~repro.serve.server.IDLE_TIMEOUT_SECONDS`,
and every open connection ended by drain.  *Front → worker*: each
:class:`WorkerHandle` owns a :class:`~repro.serve.transport.ConnectionPool`
to its current incarnation's port, and everything the supervisor says to
that worker — forwarded requests, the heartbeat poll, metrics collection,
the polite ``/shutdown`` — goes through it, so a forward reuses a warm
connection instead of dialling.  The pool is opened when the worker reports
``READY`` (over a pipe handed to the zygote with the fork request) and
closed when the worker is declared failed, restarted (a new
incarnation listens on a new port) or stopped.  A request's deadline is the
socket timeout of the connection carrying it.  A pooled connection the
worker closed while idle is re-dialled once, silently; a connection that
dies *under* a request (reset, EOF before or inside the response, refused
re-dial) means the worker is gone: the request is retried on another worker
and the failure counted, exactly as before connections were kept.

Start one from the command line with ``repro serve --store S --workers 4``
or in-process for tests::

    sup = Supervisor(store, name="session", workers=2).start()
    with ServeClient(sup.url) as client:
        ...
    sup.stop()
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.exceptions import ServeError
from repro.obs.registry import MetricsRegistry
from repro.serve.cache import ResponseCache, checkpoint_digest
from repro.serve.server import KeepAliveHandler, KeepAliveHTTPServer
from repro.serve.transport import ConnectionPool, Headers
from repro.serve.worker import FORK, QUIT, READY_PREFIX, run_child, run_zygote

#: Query-shaped endpoints the supervisor proxies to workers (everything else
#: is answered by the supervisor itself).
PROXIED_PATHS = frozenset({"/query", "/query_batch", "/staleness"})

#: Worker states as reported on ``/health``.
STARTING, LIVE, BACKOFF, STOPPED = "starting", "live", "backoff", "stopped"


def _readable(fd: int, timeout: Optional[float]) -> bool:
    """Whether ``fd`` turns readable within ``timeout`` seconds (``None``: ever)."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return bool(poller.poll(None if timeout is None else max(0.0, timeout) * 1000.0))


class ForkedProcess:
    """A forked process, held through a pidfd: ``Popen``'s process half.

    ``pid`` / ``poll()`` / ``wait()`` / ``kill()`` / ``terminate()`` as on
    :class:`subprocess.Popen`, without being the process's parent.  A worker
    is the zygote's child: the supervisor can signal it and learn *that* it
    ended, race-free even once its pid is recycled, but never reaps it, so
    its ``returncode`` reads ``-SIGKILL`` once it ended after this handle
    killed it and ``0`` after any other end.  For the zygote, the
    supervisor's own child (``reap=True``), it is the real exit status.
    ``wait`` raises :class:`TimeoutError` when the timeout passes first.
    """

    def __init__(self, pid: int, reap: bool = False) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        self._reap = reap
        self._killed = False
        self._lock = threading.Lock()
        self._fd = os.pidfd_open(pid)

    def poll(self) -> Optional[int]:
        with self._lock:
            if self.returncode is None and _readable(self._fd, 0):
                if self._reap:
                    status = os.waitpid(self.pid, 0)[1]
                    self.returncode = os.waitstatus_to_exitcode(status)
                else:
                    self.returncode = -signal.SIGKILL if self._killed else 0
            return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        code = self.poll()
        if code is None:
            if not _readable(self._fd, timeout):
                raise TimeoutError(f"pid {self.pid} still running after {timeout}s")
            code = self.poll()
        assert code is not None
        return code

    def send_signal(self, signum: int) -> None:
        with self._lock:
            if self.returncode is not None:
                return
            try:
                signal.pidfd_send_signal(self._fd, signum)
            except ProcessLookupError:
                return  # ended already; poll() tells
            self._killed = self._killed or signum == signal.SIGKILL

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def __del__(self) -> None:
        fd = getattr(self, "_fd", None)
        if fd is not None:
            os.close(fd)


def private_mb(pid: Optional[int]) -> Optional[float]:
    """A process's unique memory in MiB, ``None`` where it cannot be read.

    ``Private_Clean + Private_Dirty`` of ``/proc/<pid>/smaps_rollup``: the
    pages no other process maps, i.e. what a forked worker did not share
    with its zygote and siblings.
    """
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
            kib = sum(
                int(line.split()[1])
                for line in rollup
                if line.startswith(("Private_Clean:", "Private_Dirty:"))
            )
    except (OSError, ValueError, IndexError):
        return None
    return kib / 1024.0


def _read_line(fd: int, deadline: float) -> str:
    """One line from a pipe, or what came before end-of-file or the deadline."""
    data = b""
    while not data.endswith(b"\n") and _readable(fd, deadline - time.monotonic()):
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        data += chunk
    return data.decode("utf-8", "replace")


class WorkerHandle:
    """One supervised worker process and its bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[ForkedProcess] = None
        self.port: Optional[int] = None
        #: Kept-alive connections to the current incarnation, ``None`` while
        #: there is nobody to talk to (starting, backoff, stopped).
        self.link: Optional[ConnectionPool] = None
        self.state = STARTING
        self.restarts = 0
        self.heartbeat_misses = 0
        self.next_restart_at = 0.0
        self.last_snapshot: Optional[Dict[str, Any]] = None

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    @property
    def url(self) -> Optional[str]:
        return None if self.port is None else f"http://127.0.0.1:{self.port}"

    def connect(self, port: int) -> None:
        """A new incarnation listens on ``port``: talk to it from now on."""
        self.port = port
        self.link = ConnectionPool("127.0.0.1", port)

    def disconnect(self) -> None:
        """Drop the connections to an incarnation that is gone or going."""
        link, self.link = self.link, None
        if link is not None:
            link.close()

    def exchange(
        self,
        method: str,
        path: str,
        timeout: float,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Headers, bytes]:
        """One request to the worker over its kept-alive link."""
        link = self.link
        if link is None:
            raise ConnectionError(f"worker {self.index} has no live incarnation")
        return link.request(method, path, body, headers or {}, timeout)

    def payload(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "pid": self.pid,
            "port": self.port,
            "state": self.state,
            "restarts": self.restarts,
            "heartbeat_misses": self.heartbeat_misses,
        }


class Supervisor:
    """Fork, front, health-check and restart a fleet of serve workers."""

    def __init__(
        self,
        store: str,
        name: str = "session",
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        deadline_ms: float = 10_000.0,
        max_inflight: int = 32,
        cache_size: int = 256,
        background: Optional[str] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_misses: int = 4,
        restart_backoff_base: float = 0.1,
        restart_backoff_cap: float = 5.0,
        startup_timeout: float = 120.0,
        drain_timeout: float = 10.0,
        quiet: bool = True,
    ) -> None:
        if workers < 1:
            raise ServeError(f"a supervisor needs at least 1 worker, got {workers}")
        if max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {max_inflight}")
        if deadline_ms <= 0:
            raise ServeError(f"deadline_ms must be > 0, got {deadline_ms}")
        self.store = str(store)
        self.name = name
        self.host = host
        self.requested_port = port
        self.deadline_ms = float(deadline_ms)
        self.max_inflight = int(max_inflight)
        self.background = background
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss_budget = heartbeat_misses
        self.restart_backoff_base = restart_backoff_base
        self.restart_backoff_cap = restart_backoff_cap
        self.startup_timeout = startup_timeout
        self.drain_timeout = drain_timeout
        self.quiet = quiet

        self.workers: List[WorkerHandle] = [WorkerHandle(i) for i in range(workers)]
        #: The process every worker is forked from, and the supervisor's end
        #: of its control socket; one fork request is answered at a time.
        self.zygote: Optional[ForkedProcess] = None
        self._control: Optional[socket.socket] = None
        self._spawn_lock = threading.Lock()
        self.registry = MetricsRegistry()
        self._retired = MetricsRegistry()  # final counters of dead incarnations
        self.checkpoint_digest = ""
        self.cache = ResponseCache(cache_size)
        self._lock = threading.Lock()
        self._inflight = 0
        self._rr = 0
        self._shed_total = 0
        self._retries_total = 0
        self._restarts_total = 0
        self._draining = False
        self._stopped = False
        self.started_at = 0.0
        self._front: Optional[_FrontServer] = None
        self._front_thread: Optional[threading.Thread] = None
        self._health_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._stop_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def url(self) -> str:
        if self._front is None:
            raise ServeError("supervisor is not started")
        host, port = self._front.server_address[0], self._front.server_address[1]
        return f"http://{host}:{port}"

    def start(self) -> "Supervisor":
        """Fork the zygote, digest the checkpoint, fork the fleet, open the front port."""
        if self._front is not None:
            raise ServeError("supervisor already started")
        from repro.store.backend import open_store

        # First, while this process runs no thread of its own: the zygote
        # restores while the digest below is computed here.
        self._fork_zygote()
        try:
            with open_store(
                self.store, check_same_thread=False, exclusive=False
            ) as backend:
                digest = checkpoint_digest(backend, self.name)
            self.checkpoint_digest = digest
            self.cache.checkpoint = digest
            deadline = time.monotonic() + self.startup_timeout
            for handle in self.workers:
                self._launch(handle, deadline)
        except BaseException:
            self._stop_fleet()
            raise

        self.started_at = time.time()
        self._front = _FrontServer((self.host, self.requested_port), self)
        self._front_thread = threading.Thread(
            target=self._front.serve_forever, name="repro-supervisor", daemon=True
        )
        self._front_thread.start()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-supervisor-health", daemon=True
        )
        self._health_thread.start()
        return self

    def _fork_zygote(self) -> None:
        ours, theirs = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            ours.close()
            run_child(
                lambda: run_zygote(
                    theirs, self.store, self.name, self.background, self.quiet
                )
            )
        theirs.close()
        self._control = ours
        self.zygote = ForkedProcess(pid, reap=True)

    def _launch(self, handle: WorkerHandle, deadline: float) -> None:
        """Have the zygote fork the worker; return once it reports ``READY``.

        Fails with :class:`ServeError` when the zygote is gone or the worker
        ends, or stays silent past ``deadline``, before its handshake.
        """
        handle.state = STARTING
        handle.port = None
        handle.heartbeat_misses = 0
        with self._spawn_lock:
            ready, handed = os.pipe()
            try:
                try:
                    if self._control is None:
                        raise OSError("the fleet has no zygote")
                    socket.send_fds(self._control, [FORK], [handed])
                except OSError as exc:
                    raise ServeError(
                        f"worker {handle.index} cannot be forked: the zygote "
                        f"is gone ({exc})"
                    ) from exc
                finally:
                    os.close(handed)
                line = _read_line(ready, deadline)
            finally:
                os.close(ready)
        fields = dict(
            part.split("=", 1) for part in line.strip().split()[1:] if "=" in part
        )
        try:
            if not line.startswith(READY_PREFIX):
                raise ValueError(line)
            handle.process = ForkedProcess(int(fields["pid"]))
        except (ValueError, KeyError, ProcessLookupError) as exc:
            raise ServeError(
                f"worker {handle.index} failed to start "
                f"(expected {READY_PREFIX!r} handshake, got {line!r})"
            ) from exc
        handle.connect(int(fields["port"]))
        handle.state = LIVE

    def stop(self) -> None:
        """Graceful drain: stop admitting, finish in-flight, stop the fleet."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._draining = True
        self._stop_event.set()

        # Let in-flight requests finish before tearing anything down.
        drain_deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < drain_deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.02)

        if self._front is not None:
            self._front.shutdown()
            if self._front_thread is not None:
                self._front_thread.join(timeout=5.0)
            self._front.close_connections()
            self._front.server_close()
        if self._health_thread is not None:
            self._health_thread.join(timeout=2 * self.heartbeat_interval + 5.0)
        self._stop_fleet()

    def _stop_fleet(self) -> None:
        """Stop every worker, then the zygote, and collect its exit."""
        for handle in self.workers:
            self._stop_worker(handle)
        control, self._control = self._control, None
        if control is None:
            return
        try:
            control.sendall(QUIT)
        except OSError:
            pass  # the zygote is gone already
        control.close()
        zygote = self.zygote
        if zygote is not None:
            try:
                zygote.wait(timeout=5.0)
            except TimeoutError:  # pragma: no cover - a wedged zygote
                zygote.kill()
                zygote.wait()

    def request_shutdown(self) -> None:
        """Asynchronous :meth:`stop` (used by the ``/shutdown`` endpoint)."""
        self._stop_thread = threading.Thread(target=self.stop, daemon=True)
        self._stop_thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for serving — and any in-flight teardown — to finish."""
        if self._front_thread is not None:
            self._front_thread.join(timeout)
        stopper = self._stop_thread
        if stopper is not None and stopper is not threading.current_thread():
            stopper.join(timeout)

    def _stop_worker(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is None:
            handle.state = STOPPED
            return
        if process.poll() is None:
            try:  # polite first: the worker drains its own in-flight writes
                handle.exchange("POST", "/shutdown", timeout=2.0, body=b"{}")
            except (OSError, http.client.HTTPException):
                pass  # any failure falls through to signals
        handle.disconnect()
        try:
            process.wait(timeout=3.0)
        except TimeoutError:
            process.terminate()
            try:
                process.wait(timeout=2.0)
            except TimeoutError:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=2.0)
        handle.state = STOPPED

    # -- supervision -------------------------------------------------------------------

    def backoff_delay(self, restarts: int) -> float:
        """Capped exponential restart delay: ``base * 2**n``, at most ``cap``."""
        return min(
            self.restart_backoff_cap, self.restart_backoff_base * (2.0 ** restarts)
        )

    def _health_loop(self) -> None:
        while not self._stop_event.wait(self.heartbeat_interval):
            for handle in self.workers:
                if self._stop_event.is_set():
                    return
                self._check_worker(handle)
            with self._lock:
                live = sum(1 for h in self.workers if h.state == LIVE)
            self.registry.set_gauge("repro_supervisor_workers_live", live)

    def _check_worker(self, handle: WorkerHandle) -> None:
        with self._lock:
            state = handle.state
        if state == STOPPED:
            return
        process = handle.process
        if state == BACKOFF:
            if time.monotonic() >= handle.next_restart_at:
                self._restart(handle)
            return
        if process is None or process.poll() is not None:
            self._note_failure(handle, reason="exit")
            return
        # Heartbeat: poll the worker's snapshot endpoint (or /health when it
        # serves uninstrumented) — one round-trip doubles as liveness probe
        # and metrics collection.
        if handle.link is None:
            return
        try:
            # An HTTP *error response* still proves the worker is alive and
            # serving (e.g. /metrics_snapshot 400s when obs is disabled).
            snapshot = self._poll_snapshot(
                handle, timeout=max(1.0, 4 * self.heartbeat_interval)
            )
            with self._lock:
                handle.heartbeat_misses = 0
                if snapshot is not None:
                    handle.last_snapshot = snapshot
        except Exception:  # noqa: BLE001 - any probe failure is a miss
            with self._lock:
                handle.heartbeat_misses += 1
                missed = handle.heartbeat_misses >= self.heartbeat_miss_budget
            if missed:
                # Hung (or unreachable) worker: treat like a crash.
                self._note_failure(handle, reason="heartbeat")

    @staticmethod
    def _poll_snapshot(handle: WorkerHandle, timeout: float) -> Optional[Dict[str, Any]]:
        """The worker's metrics snapshot, or ``None`` when it serves none."""
        status, _, body = handle.exchange("GET", "/metrics_snapshot", timeout)
        if status != 200:
            return None
        snapshot = json.loads(body.decode("utf-8")).get("snapshot")
        return snapshot if isinstance(snapshot, dict) else None

    def _note_failure(self, handle: WorkerHandle, reason: str) -> None:
        """Mark a worker dead and schedule its restart with backoff."""
        with self._lock:
            if handle.state in (BACKOFF, STOPPED):
                return
            handle.state = BACKOFF
            handle.next_restart_at = time.monotonic() + self.backoff_delay(
                handle.restarts
            )
            handle.restarts += 1
            self._restarts_total += 1
            if handle.last_snapshot is not None:
                self._retired.merge_snapshot(handle.last_snapshot)
                handle.last_snapshot = None
        handle.disconnect()
        self.registry.inc("repro_supervisor_worker_failures_total", reason=reason)
        process = handle.process
        if process is not None:
            # Failed means gone: a hung or merely unreachable worker must not
            # outlive its replacement (SIGKILL is safe — the read-only
            # discipline means no state is lost), and a dead one is reaped.
            if process.poll() is None:
                process.kill()
                process.wait()

    def _restart(self, handle: WorkerHandle) -> None:
        try:
            self._launch(handle, time.monotonic() + self.startup_timeout)
        except Exception:  # noqa: BLE001 - respawn failures reschedule
            self.registry.inc("repro_supervisor_worker_failures_total", reason="spawn")
            with self._lock:
                handle.state = BACKOFF
                handle.next_restart_at = time.monotonic() + self.backoff_delay(
                    handle.restarts
                )
                handle.restarts += 1
            return
        self.registry.inc("repro_supervisor_restarts_total")

    # -- dispatch ----------------------------------------------------------------------

    def _pick_worker(self) -> Optional[WorkerHandle]:
        with self._lock:
            live = [h for h in self.workers if h.state == LIVE]
            if not live:
                return None
            handle = live[self._rr % len(live)]
            self._rr += 1
            return handle

    def _shed(self, reason: str, retry_after: float = 1.0) -> Tuple[int, str, bytes, Dict[str, str]]:
        with self._lock:
            self._shed_total += 1
        self.registry.inc("repro_supervisor_shed_total", reason=reason)
        body = json.dumps(
            {
                "error": f"supervisor shed the request ({reason}); retry after "
                f"{retry_after:g}s",
                "type": "ServeOverloadError",
                "retry_after": retry_after,
            }
        ).encode("utf-8")
        return 503, "application/json", body, {"Retry-After": f"{retry_after:g}"}

    def dispatch(
        self, method: str, path: str, body: bytes, headers: Headers
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        """Admission control + cache + forward; returns a full response.

        ``headers`` are looked up in any case.  The returned tuple is
        ``(status, content_type, body, extra_headers)``.
        Every failure mode maps to a *typed* JSON error body: deadline → 504
        ``ServeDeadlineError``, overload → 503 ``ServeOverloadError`` (with
        ``Retry-After``), worker crash with no recovery path → 502
        ``WorkerCrashError``.  A response is either the worker's bytes,
        verbatim, or one of those typed failures — never a truncated answer.
        """
        self.registry.inc("repro_supervisor_requests_total", endpoint=path)
        with self._lock:
            if self._draining:
                shed_reason: Optional[str] = "draining"
            elif self._inflight >= self.max_inflight:
                shed_reason = "max_inflight"
            else:
                shed_reason = None
                self._inflight += 1
        if shed_reason is not None:
            return self._shed(shed_reason)
        try:
            return self._dispatch_admitted(method, path, body, headers)
        finally:
            with self._lock:
                self._inflight -= 1

    def _dispatch_admitted(
        self, method: str, path: str, body: bytes, headers: Headers
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        cached = self.cache.lookup(method, path, body)
        if cached is not None:
            self.registry.inc("repro_serve_cache_hits_total")
            status, content_type, payload = cached
            return status, content_type, payload, {"X-Repro-Cache": "hit"}
        self.registry.inc("repro_serve_cache_misses_total")

        budget_ms = self.deadline_ms
        override = headers.get("X-Repro-Deadline-Ms")
        if override:
            try:
                budget_ms = min(budget_ms, float(override))
            except ValueError:
                pass
        started = time.monotonic()
        deadline = started + budget_ms / 1000.0

        forward_headers = {"Content-Type": "application/json"}
        for name in ("X-Repro-Trace-Id", "X-Repro-Parent-Id"):
            if headers.get(name):
                forward_headers[name] = headers[name]

        attempts = 0
        max_attempts = max(2, len(self.workers) + 1)
        while attempts < max_attempts:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self._deadline_response(budget_ms)
            handle = self._pick_worker()
            if handle is None:
                return self._shed("no_live_worker", retry_after=self.backoff_delay(0) + 0.5)
            attempts += 1
            try:
                status, content_type, payload = self._forward(
                    handle, method, path, body, forward_headers, remaining
                )
            except _WorkerGone:
                # The worker died under the request (or was unreachable).
                # Answers are deterministic, so re-asking another worker is
                # *provably* safe — the retry either returns the identical
                # bytes or fails typed.
                self._note_failure(handle, reason="request")
                with self._lock:
                    self._retries_total += 1
                self.registry.inc("repro_supervisor_retries_total")
                continue
            except _DeadlineHit:
                return self._deadline_response(budget_ms)
            if status == 200:
                self.cache.store(method, path, body, status, content_type, payload)
            return status, content_type, payload, {}
        body_bytes = json.dumps(
            {
                "error": "request interrupted by worker crashes and not "
                f"recoverable within its deadline ({attempts} attempts)",
                "type": "WorkerCrashError",
            }
        ).encode("utf-8")
        return 502, "application/json", body_bytes, {}

    def _deadline_response(self, budget_ms: float) -> Tuple[int, str, bytes, Dict[str, str]]:
        self.registry.inc("repro_supervisor_deadline_total")
        body = json.dumps(
            {
                "error": f"request exceeded its {budget_ms:g}ms deadline and "
                "was abandoned (no partial answer was produced)",
                "type": "ServeDeadlineError",
            }
        ).encode("utf-8")
        return 504, "application/json", body, {}

    def _forward(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
        timeout: float,
    ) -> Tuple[int, str, bytes]:
        try:
            status, response_headers, payload = handle.exchange(
                method, path, timeout, body if method == "POST" else None, headers
            )
        except TimeoutError as exc:
            raise _DeadlineHit() from exc
        except (OSError, http.client.HTTPException) as exc:
            raise _WorkerGone() from exc
        # Typed worker-side errors (400s...) relay verbatim to the client.
        content_type = response_headers.get("Content-Type", "application/json")
        return status, content_type, payload

    # -- introspection -----------------------------------------------------------------

    def health_payload(self) -> Dict[str, Any]:
        # A fleet without its zygote serves on but can replace no worker.
        zygote_alive = self.zygote is not None and self.zygote.poll() is None
        with self._lock:
            workers = [handle.payload() for handle in self.workers]
            live = sum(1 for w in workers if w["state"] == LIVE)
            payload = {
                "status": "ok" if live == len(workers) and zygote_alive else "degraded",
                "role": "supervisor",
                "checkpoint": self.name,
                "checkpoint_digest": self.checkpoint_digest,
                "workers": workers,
                "workers_live": live,
                "restarts_total": self._restarts_total,
                "shed_total": self._shed_total,
                "retries_total": self._retries_total,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "deadline_ms": self.deadline_ms,
                "draining": self._draining,
                "cache": self.cache.stats_payload(),
            }
        for worker in workers:
            worker["private_mb"] = (
                private_mb(worker["pid"]) if worker["state"] == LIVE else None
            )
        payload["uptime_seconds"] = time.time() - self.started_at
        return payload

    def merged_metrics(self) -> MetricsRegistry:
        """One registry for the whole fleet: supervisor + every worker.

        Live workers contribute their latest polled snapshot (re-polled here
        for freshness when reachable); dead incarnations contribute the final
        snapshot captured before their crash, folded into the retired
        registry — counters never go backwards just because a worker died.
        """
        merged = MetricsRegistry()
        cache_stats = self.cache.stats_payload()
        self.registry.set_gauge("repro_serve_cache_size", cache_stats["size"])
        self.registry.set_gauge("repro_supervisor_inflight", self._inflight)
        with self._lock:
            live = sum(1 for h in self.workers if h.state == LIVE)
        self.registry.set_gauge("repro_supervisor_workers_live", live)
        merged.merge_snapshot(self.registry.snapshot())
        merged.merge_snapshot(self._retired.snapshot())
        for handle in self.workers:
            snapshot = None
            if handle.state == LIVE:
                try:
                    snapshot = self._poll_snapshot(handle, timeout=2.0)
                    with self._lock:
                        if snapshot is not None:
                            handle.last_snapshot = snapshot
                except Exception:  # noqa: BLE001 - fall back to the last poll
                    snapshot = None
            if snapshot is None:
                with self._lock:
                    snapshot = handle.last_snapshot
            if isinstance(snapshot, dict):
                merged.merge_snapshot(snapshot)
        return merged


class _WorkerGone(Exception):
    """Internal: the forwarded request died with its worker."""


class _DeadlineHit(Exception):
    """Internal: the forwarded request ran out of deadline budget."""


class _FrontServer(KeepAliveHTTPServer):
    def __init__(self, address: Tuple[str, int], supervisor: Supervisor) -> None:
        super().__init__(address, _FrontHandler)
        self.supervisor = supervisor


class _FrontHandler(KeepAliveHandler):
    server: _FrontServer

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.supervisor.quiet:
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        supervisor = self.server.supervisor
        path = urlsplit(self.path).path
        if self.consume_body() is None:
            return
        if path == "/health":
            self.send_json(200, supervisor.health_payload())
        elif path == "/stats":
            self.send_json(200, supervisor.health_payload())
        elif path == "/metrics":
            self.send_body(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                supervisor.merged_metrics().render_prometheus().encode("utf-8"),
            )
        else:
            self.send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        supervisor = self.server.supervisor
        path = urlsplit(self.path).path
        body = self.consume_body()
        if body is None:
            return
        if path == "/shutdown":
            self.send_json(200, {"status": "shutting down"})
            supervisor.request_shutdown()
            return
        if path not in PROXIED_PATHS:
            self.send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            status, content_type, payload, extra = supervisor.dispatch(
                "POST", path, body, self.headers
            )
        except Exception as exc:  # noqa: BLE001 - the front must not die
            self.send_json(500, {"error": str(exc), "type": type(exc).__name__})
            return
        self.send_body(status, content_type, payload, extra)


def start_supervisor(store: str, **kwargs: Any) -> Supervisor:
    """Build and start a :class:`Supervisor`; returns it once serving."""
    return Supervisor(store, **kwargs).start()


__all__ = [
    "Supervisor",
    "WorkerHandle",
    "start_supervisor",
    "PROXIED_PATHS",
]
