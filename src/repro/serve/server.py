"""The query-service daemon: HTTP/JSON over one shared read-only session.

A :class:`SummaryQueryServer` is a stdlib
:class:`~http.server.ThreadingHTTPServer` — one handler thread per client
connection — whose threads all answer against the same
:class:`~repro.core.session.ReadOnlyNetworkSession`.  A request reads the
restored system and writes only a throwaway scratch of its own (see the
session's docstring): handler threads neither wait for each other nor leave
anything behind, so the daemon's answers are byte-identical to a fresh restore
of the checkpoint no matter how many clients hammer it or in what order
requests land.  Hierarchies are materialized lazily from the snapshot store on
first touch; ``/stats`` exposes the fetch/hit counters.

Endpoints (all JSON unless noted):

========  =============== ====================================================
method    path            body / answer
========  =============== ====================================================
GET       ``/health``     ``{"status": "ok", "peers": ..., "domains": ...}``
GET       ``/stats``      request counters + lazy-loading counters + uptime
GET       ``/metrics``    Prometheus text exposition of the metrics registry
GET       ``/trace``      newest spans of the in-memory ring, per-domain rows
                          listed as spans (``?limit=N``, N >= 0); ``emitted``
                          counts spans as listed here, the ring's capacity
                          bounds how many are
POST      ``/query``      one query -> one encoded ``QueryAnswer``
POST      ``/query_batch``  ``{"count": N}`` or ``{"queries": [...]}`` ->
                          ``{"answers": [...]}``
POST      ``/staleness``  ``{"query_id": id}`` or ``{"count": N}``
POST      ``/shutdown``   acknowledges, then stops the server cleanly
========  =============== ====================================================

Observability is on by default (an in-memory span ring plus the metrics
registry, installed on the shared session): every request runs under a span —
adopting the client's ``X-Repro-Trace-Id``/``X-Repro-Parent-Id`` headers when
present, so one trace follows a query from the client process through
per-domain routing and hierarchy selection — and the registry accumulates
request latencies and every protocol/store series.  Pass
``observability=None`` (or ``repro serve --no-obs``) to run the daemon
uninstrumented.

Connection lifecycle: the daemon speaks HTTP/1.1 with persistent
connections.  A client opens a connection and may send any number of requests
over it; one handler thread serves that connection until it ends, so threads
number as many as open connections, not requests.  Heads are read by
:func:`~repro.serve.transport.read_head`; every response, head and body,
leaves in one write with Nagle off (separate header and body writes on a
kept-alive socket would stall ~40 ms each on Nagle + delayed ACK), and every
request body is consumed before the response is written, whatever the path
or outcome, so the next request on the connection parses cleanly.  The
daemon closes a connection when the client asks (``Connection: close``,
HTTP/1.0), when it sat idle — or stalled mid-request — for
:data:`IDLE_TIMEOUT_SECONDS`, when a request's body cannot be read safely
(malformed, negative, repeated or oversize ``Content-Length``, chunked
encoding: typed ``400`` with ``Connection: close``; cut short: no answer),
and when the daemon stops: :meth:`SummaryQueryServer.stop` stops accepting,
half-closes every open connection so its handler finishes the request in
hand and exits, and only then releases the session — a stopped daemon
answers nothing, and a client holding a warm connection sees it closed,
re-dials and is refused.

Library errors surface as ``400`` with ``{"error": ..., "type": ...}``;
anything unexpected is a ``500``.  Use :func:`start_server` for an in-process
daemon on an ephemeral port (tests, benchmarks) and the ``repro serve`` CLI
command for a long-running one; that command runs :func:`serve_checkpoint`,
and it and every supervised worker process serve through
:func:`serve_session`, the one foreground loop.
"""

from __future__ import annotations

import email.utils
import functools
import http.client
import json
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.routing import RoutingPolicy
from repro.core.session import ReadOnlyNetworkSession
from repro.exceptions import ConfigurationError, ReproError, ServeError
from repro.fuzzy.background import BackgroundKnowledge
from repro.obs import Observability
from repro.serve import wire
from repro.serve.transport import MalformedHeader, read_head

#: Largest request body the daemon accepts (a query batch of thousands of
#: encoded queries fits comfortably; anything bigger is a client bug).
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: Seconds a connection may sit idle between requests (or stall inside one)
#: before the daemon closes it and its handler thread ends.
IDLE_TIMEOUT_SECONDS = 30.0

#: How long ``stop`` waits for handlers to finish the request they hold.
_HANDLER_DRAIN_SECONDS = 5.0

#: Sentinel: "no observability argument given" (the default builds a ring).
_DEFAULT_OBS = object()


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """A ``Date`` header value, formatted once per second however many ask."""
    return email.utils.formatdate(second, usegmt=True)


class KeepAliveHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can end its kept-alive connections.

    A persistent connection's handler thread outlives ``shutdown()`` — it
    sits in a read waiting for the next request.  The server therefore
    tracks every accepted connection until its handler is done, and
    :meth:`close_connections` ends them all.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler_class: Any) -> None:
        super().__init__(address, handler_class)
        self._open_connections: set = set()
        self._connections_changed = threading.Condition()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_changed:
            self._open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        super().shutdown_request(request)
        with self._connections_changed:
            self._open_connections.discard(request)
            self._connections_changed.notify_all()

    def close_connections(self) -> None:
        """Half-close every open connection and wait for its handler to end.

        Shutting down the *read* side wakes a handler idling between
        requests with EOF, and lets one that is mid-request still write its
        response before it sees the same EOF.  Call after ``shutdown()``, so
        no new connection can slip in.
        """
        with self._connections_changed:
            for connection in self._open_connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer is already gone
            self._connections_changed.wait_for(
                lambda: not self._open_connections,
                timeout=_HANDLER_DRAIN_SECONDS,
            )


class KeepAliveHandler(BaseHTTPRequestHandler):
    """Request plumbing that keeps a persistent connection in sync."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_SECONDS

    def parse_request(self) -> bool:
        """The request line by the stdlib's rules (400, 505, HTTP/0.9) but always
        refused with a status line; the head by :func:`read_head`."""
        self.command, self.request_version = None, self.protocol_version
        self.close_connection = True
        self.requestline = line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = version[5:].split(".") if version.startswith("HTTP/") else []
            if len(number) != 2 or not all(
                n.isascii() and n.isdigit() and len(n) <= 10 for n in number):
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            self.close_connection = (int(number[0]), int(number[1])) < (1, 1)
            if int(number[0]) >= 2:
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
        if len(words) not in (2, 3) or (len(words) == 2 and words[0] != "GET"):
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        self.request_version = words[2] if len(words) == 3 else self.default_request_version
        self.command, path = words[:2]
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_head(self.rfile)
        except http.client.HTTPException as exc:
            self.send_error(400 if isinstance(exc, MalformedHeader) else 431, str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        expect = self.headers.get("Expect", "").lower()
        if expect == "100-continue" and self.request_version >= "HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def consume_body(self) -> Optional[bytes]:
        """The request body, consumed so the next request parses cleanly.

        A body that cannot be read safely — malformed, negative, repeated or
        oversize ``Content-Length``, or chunked encoding — is left on the
        socket: the request is answered with a typed 400 that closes the
        connection, and ``None`` returned; a body cut short, unanswered.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if self.headers.get("Transfer-Encoding"):
            problem = "chunked request bodies are not supported"
        elif not (declared.isascii() and declared.isdigit()):
            problem = f"malformed Content-Length header {declared!r}"
        elif len(declared) > 12 or int(declared) > MAX_REQUEST_BYTES:
            problem = (
                f"request body of {declared} bytes exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit"
            )
        else:
            body = self.rfile.read(int(declared))
            if len(body) == int(declared):
                return body
            self.close_connection = True  # cut short: nobody left to answer
            return None
        self.close_connection = True
        self.send_json(400, {"error": problem, "type": "ServeError"})
        return None

    def send_body(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Write one complete response, head and body, in one ``sendall``."""
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            head = (
                f"{self.protocol_version} {status} {self.responses.get(status, ('',))[0]}\r\n"
                f"Server: {self.version_string()}\r\nDate: {_http_date(int(time.time()))}\r\n"
                f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            )
            head += "".join(f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items())
            if self.close_connection:
                head += "Connection: close\r\n"
            body = (head + "\r\n").encode("iso-8859-1") + body
        self.wfile.write(body)

    def send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self.send_body(status, "application/json", json.dumps(payload).encode("utf-8"))


class SummaryQueryServer(KeepAliveHTTPServer):
    """HTTP daemon whose handler threads all answer from one read-only session."""

    def __init__(
        self,
        address: Tuple[str, int],
        session: ReadOnlyNetworkSession,
        checkpoint_name: str = "session",
        quiet: bool = True,
        close_session_on_stop: bool = False,
        observability: Any = _DEFAULT_OBS,
    ) -> None:
        super().__init__(address, _RequestHandler)
        self.session = session
        self.checkpoint_name = checkpoint_name
        self.quiet = quiet
        self.close_session_on_stop = close_session_on_stop
        if observability is _DEFAULT_OBS:
            observability = Observability.with_ring(detail=True)
            observability.tracer.origin = "server"
        self.observability: Optional[Observability] = observability
        if observability is not None:
            session.install_observability(observability)
        self.started_at = time.time()
        self._stats_lock = threading.Lock()
        self._request_counts: Dict[str, int] = {}
        self._queries_answered = 0
        self._thread: Optional[threading.Thread] = None
        self._stop_thread: Optional[threading.Thread] = None

    # -- bookkeeping -------------------------------------------------------------------

    def record_request(self, endpoint: str, queries_answered: int = 0) -> None:
        with self._stats_lock:
            self._request_counts[endpoint] = self._request_counts.get(endpoint, 0) + 1
            self._queries_answered += queries_answered
        obs = self.observability
        if obs is not None:
            obs.inc("repro_serve_requests_total", endpoint=endpoint)
            if queries_answered:
                obs.inc("repro_serve_queries_answered_total", queries_answered)

    def stats_payload(self) -> Dict[str, Any]:
        session = self.session
        with self._stats_lock:
            counts = dict(self._request_counts)
            answered = self._queries_answered
        source = session.hierarchy_source
        return {
            "requests": counts,
            "queries_answered": answered,
            "peers": session.overlay.size,
            "domains": len(session.domains),
            "planned": session.planned,
            "lazy": None if source is None else source.stats_payload(),
            "uptime_seconds": time.time() - self.started_at,
        }

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def start_background(self) -> "SummaryQueryServer":
        """Run ``serve_forever`` on a daemon thread (in-process serving)."""
        if self._thread is not None:
            raise ServeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for serving — and any in-flight teardown — to finish."""
        if self._thread is not None:
            self._thread.join(timeout)
        stopper = self._stop_thread
        if stopper is not None and stopper is not threading.current_thread():
            stopper.join(timeout)

    def stop(self) -> None:
        """Shut the daemon down cleanly and release its resources."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.close_connections()
        self.server_close()
        if self.close_session_on_stop:
            self.session.close()

    def request_shutdown(self) -> None:
        """Asynchronous shutdown (used by the ``/shutdown`` endpoint)."""
        self._stop_thread = threading.Thread(target=self.stop, daemon=True)
        self._stop_thread.start()


_JSON_KINDS = {int: "non-negative integer", bool: "boolean", str: "string"}


def _field(payload: Dict[str, Any], name: str, kind: type) -> Any:
    """``payload[name]`` (absent or ``null``: ``None``), never coerced: any
    other JSON type than ``kind`` is a :class:`ServeError`, i.e. a 400."""
    value = payload.get(name)
    if value is None:
        return None
    if type(value) is not kind or (kind is int and value < 0):
        raise ServeError(f"{name!r} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


class _RequestHandler(KeepAliveHandler):
    server: SummaryQueryServer

    # -- plumbing ----------------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _read_body(self) -> Dict[str, Any]:
        raw = self._raw_body
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    def _route(self, routes: Dict[str, Any], path: str) -> None:
        """Consume the body, then dispatch ``path`` (or answer 404)."""
        self._raw_body = self.consume_body()
        if self._raw_body is None:
            return
        handler = routes.get(path)
        if handler is None:
            self.send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        self._dispatch(handler)

    def _dispatch(self, handler) -> None:
        obs = self.server.observability
        if obs is None:
            self._write_outcome(self._execute(handler))
            return
        endpoint = urlsplit(self.path).path
        started = time.perf_counter()
        # Adopt the client's trace context when it sends one: the request
        # span (and everything the session opens underneath it) then belongs
        # to the client's trace, with the client span as its parent.
        trace_id = self.headers.get("X-Repro-Trace-Id") or None
        parent_id = self.headers.get("X-Repro-Parent-Id") or None
        with obs.span(
            f"serve {endpoint}",
            {"endpoint": endpoint},
            trace_id=trace_id,
            parent_id=parent_id,
        ):
            outcome = self._execute(handler)
        # Observe *before* writing the response: once the body is on the
        # wire the client may immediately scrape /metrics from another
        # thread, and this request's latency must already be recorded.
        obs.observe(
            "repro_serve_request_seconds",
            time.perf_counter() - started,
            endpoint=endpoint,
        )
        self._write_outcome(outcome)

    def _execute(self, handler):
        """Run a handler, mapping failures to error responses.

        Returns the ``(status, payload)`` pair still to be written, or
        ``None`` when the handler wrote its own response (shutdown must
        flush the acknowledgement before stopping the server; /metrics
        writes a non-JSON body).
        """
        try:
            return handler()
        except ReproError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            return 500, {"error": str(exc), "type": type(exc).__name__}

    def _write_outcome(self, outcome) -> None:
        if outcome is not None:
            status, payload = outcome
            self.send_json(status, payload)

    # -- HTTP verbs --------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        routes = {
            "/health": self._handle_health,
            "/stats": self._handle_stats,
            "/metrics": self._handle_metrics,
            "/metrics_snapshot": self._handle_metrics_snapshot,
            "/trace": self._handle_trace,
        }
        self._route(routes, urlsplit(self.path).path)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        routes = {
            "/query": self._handle_query,
            "/query_batch": self._handle_query_batch,
            "/staleness": self._handle_staleness,
            "/shutdown": self._handle_shutdown,
        }
        self._route(routes, self.path)

    # -- endpoints ---------------------------------------------------------------------

    def _handle_health(self) -> Tuple[int, Dict[str, Any]]:
        session = self.server.session
        self.server.record_request("health")
        return 200, {
            "status": "ok",
            "checkpoint": self.server.checkpoint_name,
            "peers": session.overlay.size,
            "domains": len(session.domains),
            "planned": session.planned,
            "now": session.now,
        }

    def _handle_stats(self) -> Tuple[int, Dict[str, Any]]:
        self.server.record_request("stats")
        return 200, self.server.stats_payload()

    def _handle_metrics(self) -> None:
        obs = self.server.observability
        if obs is None:
            self.send_json(404, {"error": "observability is disabled on this server"})
            return None
        self.server.record_request("metrics")
        obs.set_gauge(
            "repro_serve_uptime_seconds", time.time() - self.server.started_at
        )
        self.send_body(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            obs.metrics.render_prometheus().encode("utf-8"),
        )
        return None

    def _handle_metrics_snapshot(self) -> Tuple[int, Dict[str, Any]]:
        """The registry as a mergeable JSON snapshot.

        This is the multi-process half of the metrics story: a supervisor
        polls every worker's snapshot and folds them into one registry via
        :meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`, so the
        fleet's ``/metrics`` aggregates per-worker counters exactly.
        """
        obs = self.server.observability
        if obs is None:
            raise ServeError("observability is disabled on this server")
        self.server.record_request("metrics_snapshot")
        return 200, {"snapshot": obs.metrics.snapshot(), "pid": os.getpid()}

    def _handle_trace(self) -> Tuple[int, Dict[str, Any]]:
        obs = self.server.observability
        ring = None if obs is None else obs.ring
        if ring is None:
            raise ServeError("this server has no in-memory trace ring")
        self.server.record_request("trace")
        query = parse_qs(urlsplit(self.path).query)
        limit = None
        if query.get("limit"):
            raw = query["limit"][0]
            # Digits only: a bare int() also takes "-3", " 7 " and "1_0".
            if not (raw.isascii() and raw.isdigit()):
                raise ServeError(
                    f"'limit' must be a non-negative integer, got {raw!r}"
                )
            limit = int(raw)
        spans = ring.tail(limit)
        return 200, {
            "spans": [span.to_payload() for span in spans],
            "emitted": ring.emitted,
        }

    @staticmethod
    def _query_options(payload: Dict[str, Any]) -> Dict[str, Any]:
        options: Dict[str, Any] = {}
        if "policy" in payload and payload["policy"] is not None:
            try:
                options["policy"] = RoutingPolicy(payload["policy"])
            except ValueError as exc:
                raise ServeError(f"unknown routing policy: {payload['policy']!r}") from exc
        for knob in ("required_results", "max_domains"):
            if payload.get(knob) is not None:
                options[knob] = _field(payload, knob, int)
        for knob in ("include_staleness", "include_answer"):
            if payload.get(knob) is not None:
                options[knob] = _field(payload, knob, bool)
        return options

    def _handle_query(self) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_body()
        session = self.server.session
        options = self._query_options(payload)
        query = (
            None if payload.get("query") is None else wire.decode_query(payload["query"])
        )
        answer = session.query(
            _field(payload, "originator", str),
            query=query,
            query_id=_field(payload, "query_id", int),
            **options,
        )
        self.server.record_request("query", queries_answered=1)
        return 200, {"answer": wire.encode_answer(answer)}

    def _handle_query_batch(self) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_body()
        session = self.server.session
        options = self._query_options(payload)
        queries: Optional[List[Any]] = None
        if payload.get("queries") is not None:
            queries = [wire.decode_query(q) for q in payload["queries"]]
        originators = payload.get("originators") or None
        if originators is not None and not (
            type(originators) is list and all(type(p) is str for p in originators)
        ):
            raise ServeError("'originators' must be a JSON list of strings")
        answers = session.query_batch(
            count=_field(payload, "count", int),
            queries=queries,
            originators=originators,
            **options,
        )
        self.server.record_request("query_batch", queries_answered=len(answers))
        return 200, {"answers": [wire.encode_answer(a) for a in answers]}

    def _handle_staleness(self) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_body()
        session = self.server.session
        count = _field(payload, "count", int)
        if count is not None:
            snapshots = session.staleness_batch(count)
            self.server.record_request("staleness")
            return 200, {
                "snapshots": [wire.encode_staleness(s) for s in snapshots]
            }
        snapshot = session.staleness(query_id=_field(payload, "query_id", int))
        self.server.record_request("staleness")
        return 200, {"staleness": wire.encode_staleness(snapshot)}

    def _handle_shutdown(self) -> None:
        self.server.record_request("shutdown")
        # The acknowledgement is flushed before stopping: in CLI mode the
        # main thread exits serve_forever (and may exit the process) as soon
        # as shutdown lands, which would otherwise race the response write.
        self.send_json(200, {"status": "shutting down"})
        self.server.request_shutdown()
        return None


def start_server(
    session: ReadOnlyNetworkSession,
    host: str = "127.0.0.1",
    port: int = 0,
    checkpoint_name: str = "session",
    quiet: bool = True,
    close_session_on_stop: bool = False,
    observability: Any = _DEFAULT_OBS,
) -> SummaryQueryServer:
    """Serve ``session`` on a background thread; returns the running server.

    Every handler thread answers from ``session``, which they only read.
    ``port=0`` binds an ephemeral port — read the actual address off
    ``server.url``.  Stop with ``server.stop()`` (or a client-side
    ``/shutdown`` request, which triggers the same clean teardown).
    ``observability`` defaults to a fresh ring-buffer instance; pass ``None``
    to serve uninstrumented (``/metrics`` and ``/trace`` then return errors).
    """
    server = SummaryQueryServer(
        (host, port),
        session,
        checkpoint_name=checkpoint_name,
        quiet=quiet,
        close_session_on_stop=close_session_on_stop,
        observability=observability,
    )
    return server.start_background()


def background_from_name(name: Optional[str]) -> Optional[BackgroundKnowledge]:
    """Resolve a named background knowledge (real-content checkpoints)."""
    if name is None:
        return None
    if name == "medical":
        from repro.fuzzy.vocabularies import medical_background_knowledge

        return medical_background_knowledge()
    raise ConfigurationError(f"unknown background knowledge {name!r} (try: medical)")


def serve_checkpoint(
    store: str,
    name: str,
    host: str,
    port: int,
    banner: Callable[[SummaryQueryServer], str],
    background: Optional[BackgroundKnowledge] = None,
    observe: bool = True,
    quiet: bool = True,
) -> int:
    """Serve one checkpoint in the foreground until stopped; returns 0.

    The whole life of a single serve process — ``repro serve`` and
    ``python -m repro.serve.worker`` alike: open ``name`` from ``store``
    read-only, then :func:`serve_session` it, printing ``banner(server)`` on
    stdout (the one line a parent process waits for, so it is flushed).
    """
    from repro.store.checkpoint import open_readonly_session

    session = open_readonly_session(store, name=name, background=background)
    return serve_session(
        session,
        name,
        host,
        port,
        lambda server: print(banner(server), flush=True),
        observe=observe,
        quiet=quiet,
    )


def serve_session(
    session: ReadOnlyNetworkSession,
    name: str,
    host: str,
    port: int,
    announce: Callable[[SummaryQueryServer], None],
    observe: bool = True,
    quiet: bool = True,
) -> int:
    """Serve an open read-only session in the foreground until stopped; returns 0.

    Bind a :class:`SummaryQueryServer` over ``session``, call
    ``announce(server)`` once it listens, and ``serve_forever`` on the
    calling thread.  ``POST /shutdown``, ``SIGTERM`` and Ctrl-C all end the
    same way: stop accepting, let the handler threads finish the requests
    they hold, end their kept-alive connections, close the session and the
    store it owns.  Call from the main thread (it installs the ``SIGTERM``
    handler).  A supervised worker runs this in a child forked from the
    process that opened ``session``.
    """
    server = SummaryQueryServer(
        (host, port),
        session,
        checkpoint_name=name,
        quiet=quiet,
        close_session_on_stop=True,
        observability=_DEFAULT_OBS if observe else None,
    )

    # shutdown() must not run on the serve_forever thread (it would deadlock
    # waiting for itself), so hand it to a helper thread and let
    # serve_forever return.
    def _on_sigterm(signum, frame):  # noqa: ARG001 - signal API
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    announce(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0
