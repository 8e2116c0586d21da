"""The query service's client: one kept-alive connection per calling thread.

:class:`ServeClient` is the single HTTP surface shared by the CLI, the
concurrency tests and the load benchmark.  Every method mirrors one session
call (`query`, ``query_batch``, ``staleness``...) and decodes the JSON body
back into the session's typed results via :mod:`repro.serve.wire`, so calling
code can compare a served answer with ``==`` against one computed locally.

Connection lifecycle: the client owns a
:class:`~repro.serve.transport.ConnectionPool` for its base URL.  The first
request dials (Nagle off, TLS for ``https``, the transport's own framing, not
:mod:`http.client`'s), later requests reuse the open HTTP/1.1 connection, and
threads sharing one client each get their own.  The daemon closes a
connection that sat idle past :data:`~repro.serve.server.IDLE_TIMEOUT_SECONDS`;
the next request then re-dials transparently, which is not a retry.  :meth:`ServeClient.close` (or
leaving the ``with`` block) closes the sockets — a client that makes one call
and exits should be used as a context manager.

Server-side failures (bad payloads, library errors) surface as
:class:`~repro.exceptions.ServeError` carrying the server's message and the
original exception type name.  Supervisor responses map to the typed
subclasses: HTTP 503 raises :class:`~repro.exceptions.ServeOverloadError`
(with the server's ``Retry-After``), 504 raises
:class:`~repro.exceptions.ServeDeadlineError`, 502 raises
:class:`~repro.exceptions.WorkerCrashError`.

Transport-level failures — connection refused while a server restarts, a
connection reset, dropped or cut short when a worker dies under the request —
are retried with capped, jittered exponential backoff (``max_retries``
attempts, seeded for reproducibility).  Retries are safe because served
answers are deterministic: the retried request returns the identical bytes or
fails typed.  ``/shutdown`` is never retried (a reset there usually means the
shutdown *worked*).  Retries performed are counted on
``client.retries_total`` and, when a registry is attached, as
``repro_client_retries_total``.  Anything else that keeps the client from an
answer (timeout, unresolvable host, a malformed response) raises
:class:`~repro.exceptions.ServeError` at once.

A client built with a :class:`~repro.obs.trace.Tracer` opens a span around
every request and ships its trace context in ``X-Repro-Trace-Id`` /
``X-Repro-Parent-Id`` headers; the server adopts that context, so the
client-side span and the server-side request span (and everything the
session does underneath) form one connected trace.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

from repro.core.routing import RoutingPolicy
from repro.core.session import QueryAnswer
from repro.core.staleness import StalenessSnapshot
from repro.database.query import SelectionQuery
from repro.exceptions import (
    ServeDeadlineError,
    ServeError,
    ServeOverloadError,
    WorkerCrashError,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import wire
from repro.serve.transport import ConnectionPool, Headers

DEFAULT_TIMEOUT = 30.0

#: Paths whose requests must never be re-sent: a connection reset during
#: ``/shutdown`` usually means the shutdown *succeeded*.
NO_RETRY_PATHS = frozenset({"/shutdown"})


class ServeClient:
    """Talk to one :class:`~repro.serve.server.SummaryQueryServer`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT,
        tracer: Optional[Tracer] = None,
        max_retries: int = 2,
        retry_backoff_base: float = 0.05,
        retry_backoff_cap: float = 1.0,
        retry_seed: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        tls = parts.scheme == "https"
        try:
            host, port = parts.hostname, parts.port or (443 if tls else 80)
        except ValueError:  # a port that is not a number
            host = None
        if parts.scheme not in ("http", "https") or not host:
            raise ServeError(f"not an http(s) service URL: {base_url!r}")
        self._pool = ConnectionPool(host, port, tls=tls)
        self._path_prefix = parts.path
        self.timeout = timeout
        if tracer is not None and tracer.origin == "main":
            tracer.origin = "client"
        self.tracer = tracer
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        self.registry = registry
        self.retries_total = 0
        self._rng = random.Random(retry_seed)

    # -- transport ---------------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        if self.tracer is None:
            return self._request_inner(method, path, payload, {})
        with self.tracer.span(f"client {path}", {"method": method}) as span:
            headers = {
                "X-Repro-Trace-Id": span.trace_id,
                "X-Repro-Parent-Id": span.span_id,
            }
            return self._request_inner(method, path, payload, headers)

    def _request_inner(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]],
        extra_headers: Dict[str, str],
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json", **extra_headers}
        if method == "POST":
            data = json.dumps(payload or {}).encode("utf-8")
            headers["Content-Type"] = "application/json"
        body = self._transport(method, path, data, headers)
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"query service returned invalid JSON: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ServeError("query service returned a non-object JSON body")
        return decoded

    def _transport(
        self, method: str, path: str, data: Optional[bytes], headers: Dict[str, str]
    ) -> bytes:
        """One HTTP exchange with bounded, jittered retry on connection loss."""
        retriable = path not in NO_RETRY_PATHS
        attempt = 0
        while True:
            try:
                status, response_headers, body = self._pool.request(
                    method, self._path_prefix + path, data, headers, self.timeout
                )
            except (OSError, http.client.HTTPException) as exc:
                lost = isinstance(exc, (ConnectionError, http.client.IncompleteRead))
                if not (retriable and lost) or attempt >= self.max_retries:
                    raise ServeError(
                        f"cannot reach query service at {self.base_url}{path}: {exc}"
                    ) from exc
                delay = min(
                    self.retry_backoff_cap,
                    self.retry_backoff_base * (2.0 ** attempt),
                )
                # Full jitter: uniform in (0, delay] keeps synchronized
                # clients from re-stampeding a restarting server in lockstep.
                time.sleep(delay * (0.5 + 0.5 * self._rng.random()))
                attempt += 1
                self.retries_total += 1
                if self.registry is not None:
                    self.registry.inc("repro_client_retries_total", path=path)
                continue
            if status >= 400:
                raise self._server_error(status, response_headers, body)
            return body

    @staticmethod
    def _server_error(
        status: int, headers: Headers, body: bytes
    ) -> ServeError:
        message = f"query service returned HTTP {status}"
        detail: Optional[Dict[str, Any]] = None
        try:
            parsed = json.loads(body.decode("utf-8"))
            if isinstance(parsed, dict):
                detail = parsed
        except ValueError:  # error bodies are best-effort
            detail = None
        kind = detail.get("type") if detail else None
        if detail and "error" in detail:
            suffix = f" [{kind}]" if kind else ""
            message = f"{message}: {detail['error']}{suffix}"
        if status == 503 or kind == "ServeOverloadError":
            retry_after = 1.0
            for candidate in ((detail or {}).get("retry_after"), headers.get("Retry-After")):
                try:
                    retry_after = float(candidate)  # type: ignore[arg-type]
                    break
                except (TypeError, ValueError):
                    continue
            return ServeOverloadError(message, retry_after=retry_after)
        if status == 504 or kind == "ServeDeadlineError":
            return ServeDeadlineError(message)
        if status == 502 or kind == "WorkerCrashError":
            return WorkerCrashError(message)
        return ServeError(message)

    def close(self) -> None:
        """Close this client's connections.

        A closed client still answers, but dials per request from then on.
        """
        self._pool.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request helpers ---------------------------------------------------------------

    @staticmethod
    def _query_options(
        policy: Optional[RoutingPolicy],
        required_results: Optional[int],
        max_domains: Optional[int],
        include_staleness: Optional[bool],
        include_answer: Optional[bool],
    ) -> Dict[str, Any]:
        options: Dict[str, Any] = {}
        if policy is not None:
            options["policy"] = policy.value
        if required_results is not None:
            options["required_results"] = required_results
        if max_domains is not None:
            options["max_domains"] = max_domains
        if include_staleness is not None:
            options["include_staleness"] = include_staleness
        if include_answer is not None:
            options["include_answer"] = include_answer
        return options

    # -- service surface ---------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        """Server stats; ``lazy`` holds hierarchy-cache hit/fetch/evict counts."""
        payload = self._request("GET", "/stats")
        lazy = payload.get("lazy")
        if isinstance(lazy, dict):
            # Decode to ints defensively: the wire carries JSON numbers.
            payload["lazy"] = {key: int(value) for key, value in lazy.items()}
        return payload

    def metrics(self) -> str:
        """The server's ``/metrics`` page, raw Prometheus text exposition."""
        return self._transport("GET", "/metrics", None, {}).decode("utf-8")

    def trace(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Tail of the server's trace ring: ``{"spans": [...], "emitted": N}``."""
        path = "/trace" if limit is None else f"/trace?limit={int(limit)}"
        return self._request("GET", path)

    def query(
        self,
        originator: Optional[str] = None,
        query: Optional[SelectionQuery] = None,
        query_id: Optional[int] = None,
        *,
        policy: Optional[RoutingPolicy] = None,
        required_results: Optional[int] = None,
        max_domains: Optional[int] = None,
        include_staleness: Optional[bool] = None,
        include_answer: Optional[bool] = None,
    ) -> QueryAnswer:
        payload = self._query_options(
            policy, required_results, max_domains, include_staleness, include_answer
        )
        if originator is not None:
            payload["originator"] = originator
        if query is not None:
            payload["query"] = wire.encode_query(query)
        if query_id is not None:
            payload["query_id"] = query_id
        body = self._request("POST", "/query", payload)
        return wire.decode_answer(body["answer"])

    def query_batch(
        self,
        count: Optional[int] = None,
        queries: Optional[Sequence[SelectionQuery]] = None,
        originators: Optional[Sequence[str]] = None,
        *,
        policy: Optional[RoutingPolicy] = None,
        required_results: Optional[int] = None,
        max_domains: Optional[int] = None,
        include_staleness: Optional[bool] = None,
        include_answer: Optional[bool] = None,
    ) -> List[QueryAnswer]:
        payload = self._query_options(
            policy, required_results, max_domains, include_staleness, include_answer
        )
        if count is not None:
            payload["count"] = count
        if queries is not None:
            payload["queries"] = [wire.encode_query(q) for q in queries]
        if originators is not None:
            payload["originators"] = list(originators)
        body = self._request("POST", "/query_batch", payload)
        return wire.decode_answers(body["answers"])

    def staleness(self, query_id: Optional[int] = None) -> StalenessSnapshot:
        payload: Dict[str, Any] = {}
        if query_id is not None:
            payload["query_id"] = query_id
        body = self._request("POST", "/staleness", payload)
        return wire.decode_staleness(body["staleness"])

    def staleness_batch(self, count: int) -> List[StalenessSnapshot]:
        body = self._request("POST", "/staleness", {"count": count})
        return [wire.decode_staleness(s) for s in body["snapshots"]]

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")
