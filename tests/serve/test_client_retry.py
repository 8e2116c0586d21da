"""ServeClient transport resilience: bounded jittered retry, typed errors.

A worker dying under a request shows up client-side as a connection reset,
a hang-up before any response, or a response cut short; a restarting server
as connection refused.  All are retried (safe — served answers are
deterministic) a bounded number of times with jittered backoff, *except* for
``/shutdown`` where a reset usually means success.  Supervisor failure
responses map to the typed exceptions callers branch on.
"""

import json
import socket
import struct
import threading

import pytest

from repro.exceptions import (
    ServeDeadlineError,
    ServeError,
    ServeOverloadError,
    WorkerCrashError,
)
from repro.obs.registry import MetricsRegistry
from repro.serve.client import ServeClient


class StubServer(threading.Thread):
    """Fails the first ``failures`` connections, then serves ``response``.

    ``failure`` picks how a connection is lost: ``"reset"`` (a hard RST on
    accept — ``ConnectionResetError``), ``"hangup"`` (the request is read,
    then the socket closed without a byte — ``RemoteDisconnected``) or
    ``"truncate"`` (headers promise more body than arrives —
    ``IncompleteRead``).
    """

    def __init__(
        self,
        failures=0,
        status=200,
        headers=(),
        body=b'{"status": "ok"}',
        failure="reset",
    ):
        super().__init__(daemon=True)
        self.failures = failures
        self.failure = failure
        self.status = status
        self.extra_headers = headers
        self.body = body
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._stop = threading.Event()

    @property
    def url(self):
        return f"http://127.0.0.1:{self._sock.getsockname()[1]}"

    def run(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.failures:
                if self.failure == "reset":
                    # SO_LINGER with zero timeout turns close() into a hard
                    # RST — exactly what a SIGKILLed worker's kernel sends.
                    conn.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                else:
                    conn.recv(65536)
                    if self.failure == "truncate":
                        conn.sendall(
                            b"HTTP/1.0 200 X\r\nContent-Length: 64\r\n\r\n{"
                        )
                conn.close()
                continue
            conn.recv(65536)
            headers = [
                f"HTTP/1.0 {self.status} X",
                "Content-Type: application/json",
                f"Content-Length: {len(self.body)}",
                *[f"{name}: {value}" for name, value in self.extra_headers],
            ]
            conn.sendall(
                ("\r\n".join(headers) + "\r\n\r\n").encode() + self.body
            )
            conn.close()

    def stop(self):
        self._stop.set()
        # close() alone leaves accept() blocked and the thread alive for the
        # rest of the run (a later fleet would then fork a threaded process);
        # shutdown() wakes it, and run() returns.
        self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


@pytest.fixture
def stub(request):
    servers = []

    def make(**kwargs):
        server = StubServer(**kwargs)
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.stop()


def fast_client(url, **kwargs):
    kwargs.setdefault("max_retries", 3)
    kwargs.setdefault("retry_backoff_base", 0.01)
    kwargs.setdefault("retry_seed", 0)
    return ServeClient(url, timeout=5.0, **kwargs)


class TestConnectionRetry:
    @pytest.mark.parametrize("failure", ["reset", "hangup", "truncate"])
    def test_lost_connections_are_retried_to_success(self, stub, failure):
        server = stub(failures=2, failure=failure)
        registry = MetricsRegistry()
        client = fast_client(server.url, registry=registry)
        assert client.health() == {"status": "ok"}
        assert client.retries_total == 2
        snapshot = registry.snapshot()
        counted = sum(
            value
            for _, value in snapshot["counters"]["repro_client_retries_total"]
        )
        assert counted == 2

    def test_connection_refused_is_retried_then_typed(self):
        # Grab a port with no listener: every attempt is refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = fast_client(f"http://127.0.0.1:{port}", max_retries=2)
        with pytest.raises(ServeError, match="cannot reach query service"):
            client.health()
        assert client.retries_total == 2  # bounded: initial + 2 retries

    def test_retry_budget_is_bounded(self, stub):
        server = stub(failures=100)
        client = fast_client(server.url, max_retries=2)
        with pytest.raises(ServeError, match="cannot reach query service"):
            client.health()
        assert client.retries_total == 2
        assert server.connections == 3

    def test_shutdown_is_never_retried(self, stub):
        server = stub(failures=100)
        client = fast_client(server.url)
        with pytest.raises(ServeError, match="cannot reach query service"):
            client.shutdown()
        assert client.retries_total == 0
        assert server.connections == 1


class TestTypedServerErrors:
    def test_503_maps_to_overload_with_retry_after(self, stub):
        body = json.dumps(
            {"error": "shed", "type": "ServeOverloadError", "retry_after": 2.5}
        ).encode()
        server = stub(status=503, headers=[("Retry-After", "9")], body=body)
        client = fast_client(server.url)
        with pytest.raises(ServeOverloadError, match="shed") as excinfo:
            client.health()
        assert excinfo.value.retry_after == 2.5  # body wins over header

    def test_503_retry_after_header_fallback(self, stub):
        server = stub(status=503, headers=[("Retry-After", "4")], body=b"{}")
        client = fast_client(server.url)
        with pytest.raises(ServeOverloadError) as excinfo:
            client.health()
        assert excinfo.value.retry_after == 4.0

    def test_504_maps_to_deadline_error(self, stub):
        body = json.dumps(
            {"error": "over budget", "type": "ServeDeadlineError"}
        ).encode()
        server = stub(status=504, body=body)
        client = fast_client(server.url)
        with pytest.raises(ServeDeadlineError, match="over budget"):
            client.health()

    def test_502_maps_to_worker_crash_error(self, stub):
        body = json.dumps(
            {"error": "no worker survived", "type": "WorkerCrashError"}
        ).encode()
        server = stub(status=502, body=body)
        client = fast_client(server.url)
        with pytest.raises(WorkerCrashError, match="no worker survived"):
            client.health()

    def test_400_stays_a_plain_serve_error(self, stub):
        body = json.dumps({"error": "bad payload", "type": "ServeError"}).encode()
        server = stub(status=400, body=body)
        client = fast_client(server.url)
        with pytest.raises(ServeError, match="bad payload") as excinfo:
            client.health()
        assert type(excinfo.value) is ServeError


@pytest.mark.parametrize("url", ["ftp://127.0.0.1:1", "127.0.0.1:8123", "http://h:port"])
def test_a_url_the_client_cannot_dial_is_a_typed_error(url):
    with pytest.raises(ServeError, match="not an http"):
        ServeClient(url)
