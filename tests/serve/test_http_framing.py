"""Hostile bytes against the serve path's own HTTP/1.1 framing.

The daemon parses request heads and the client parses responses with
:mod:`repro.serve.transport`, not with the stdlib's parsers, so these
properties pin what that framing must do with input nobody well-behaved
sends: a broken request head is refused with a 4xx (or a 505, or a closed
connection) — never a 500, never a hang — and leaves the daemon serving; a
broken response reaches the caller as ``OSError`` or
:class:`~http.client.HTTPException` from the reader, and as
:class:`~repro.exceptions.ServeError` from :class:`ServeClient`.  A daemon
behind TLS is served through the same framing.
"""

import http.client
import io
import shutil
import socket
import ssl
import subprocess
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ServeError
from repro.serve import ServeClient, start_server
from repro.serve import server as server_module
from repro.serve.server import SummaryQueryServer
from repro.serve.transport import MAX_HEADERS, MAX_LINE, read_body, read_response
from repro.store.checkpoint import open_readonly_session

#: The daemon's idle timeout in this module: a request it waits on forever
#: would be cut after this, so an answer later than that is a hang.
IDLE_S = 1.0

FRAMING = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def daemon(planned_store):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module.KeepAliveHandler, "timeout", IDLE_S)
        session = open_readonly_session(planned_store)
        server = start_server(session, close_session_on_stop=True)
        yield server
        server.stop()


def address(url):
    host, port = url.rsplit("/", 1)[1].split(":")
    return host, int(port)


def exchange(url, data, half_close):
    """Send ``data``; everything the daemon wrote back, and the seconds until
    it closed the connection."""
    started = time.monotonic()
    with socket.create_connection(address(url), timeout=IDLE_S + 5.0) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the daemon hung up before reading it all
        received = b""
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return received, time.monotonic() - started


# -- hostile request heads ----------------------------------------------------------

TOKEN = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(
    lambda name: name != "expect"  # a 100 Continue would precede the refusal
)
VALUE = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=20)

#: Each defect alone makes a request head the daemon must refuse.
DEFECTS = {
    "long-line": lambda: [("X-Pad", "a" * (MAX_LINE + 1))],
    "many-headers": lambda: [(f"X-H{i}", "1") for i in range(MAX_HEADERS + 1)],
    "no-colon": lambda: [("no colon here", None)],
    "space-before-colon": lambda: [("Content-Length ", "2")],
    "folded": lambda: [("X-A", "1"), (" folded", None)],
    "two-lengths": lambda: [("Content-Length", "2"), ("content-length", "3")],
    "bad-length": lambda: [("Content-Length", "-2")],
    "chunked": lambda: [("Transfer-Encoding", "chunked")],
    "short-body": lambda: [("Content-Length", "4096")],
}
VERSIONS = ["HTTP/1.1", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/1.x", "HTTX/1.1", "HTTP/1.1.1", "HTTP/12345678901.1"]
BAD_VERSIONS = {"HTTP/2.0", "HTTP/1.x", "HTTX/1.1", "HTTP/1.1.1", "HTTP/12345678901.1"}


@st.composite
def hostile_heads(draw):
    method = draw(st.sampled_from(["GET", "POST"]))
    path = draw(st.sampled_from(["/health", "/query", "/nope", "//health"]))
    version = draw(st.sampled_from(VERSIONS))
    defects = draw(st.sets(st.sampled_from(sorted(DEFECTS)), max_size=2))
    if version not in BAD_VERSIONS and not defects:
        defects = {draw(st.sampled_from(sorted(DEFECTS)))}
    fields = draw(st.lists(st.tuples(TOKEN, VALUE), max_size=4))
    for defect in sorted(defects):
        fields += DEFECTS[defect]()
    end = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [f"{method} {path} {version}"]
    lines += [name if value is None else f"{name}: {value}" for name, value in fields]
    head = end.join(lines) + end + end
    body = draw(st.binary(max_size=64))
    return head.encode("latin-1") + body, draw(st.booleans())


@given(hostile_heads())
@example((b"GET /health HTTP/1.1\r\nContent-Length: 4096\r\n\r\nab", True))
@example((b"GET /health HTTP/1.1\nContent-Length: 2\nContent-Length: 2\n\n{}", True))
@FRAMING
def test_a_hostile_request_head_is_refused_never_a_500_or_a_hang(daemon, case):
    data, half_close = case
    received, seconds = exchange(daemon.url, data, half_close)
    assert seconds < IDLE_S + 2.0
    if received:
        status_line = received.split(b"\r\n", 1)[0]
        assert status_line.startswith(b"HTTP/1.1 "), received[:200]
        status = int(status_line.split()[1])
        assert 400 <= status < 500 or status == 505, received[:200]
    # Whatever happened on that connection, a fresh one is served.
    reply, _ = exchange(daemon.url, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n", True)
    assert reply.startswith(b"HTTP/1.1 200 ")


@pytest.mark.parametrize(
    "line, status",
    [("GET / HTTP/2.0", 505), ("GET / HTTP/1.x", 400), ("GET / a HTTP/1.1", 400),
     ("POST /query", 400)],
    ids=["http-2", "bad-version", "four-words", "http-0.9-post"],
)
def test_a_bad_request_line_is_answered_with_a_status_line(daemon, line, status):
    received, _ = exchange(daemon.url, f"{line}\r\n\r\n".encode(), True)
    assert received.startswith(f"HTTP/1.1 {status} ".encode())


def test_an_http_0_9_get_is_answered_with_the_bare_body(daemon):
    received, _ = exchange(daemon.url, b"GET /health\r\n\r\n", True)
    assert received.startswith(b'{"status": "ok"')


# -- hostile responses ---------------------------------------------------------------

RESPONSE_LINES = st.sampled_from(
    [
        b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 100 Continue",
        b"HTTP/1.1 503 Busy", b"HTTP/1.1 99 Low", b"HTTP/1.1 2000 High",
        b"HTTP/1.1 \xb2\xb2\xb2 Digits", b"ICY 200 OK", b"", b"HTTP/1.1",
        b"Content-Length: 2", b"Content-Length: 99", b"Content-Length: -1",
        b"Content-Length: 2, 2", b"Content-Length: " + b"9" * 5000,
        b"Content-Length: \xb9", b"Transfer-Encoding: chunked", b"Connection: close",
        b"Retry-After: soon", b"Retry-After: nan", b"no colon", b"X-A : b",
        b" folded", b"X-Long: " + b"a" * MAX_LINE,
    ]
)


@st.composite
def hostile_responses(draw):
    lines = draw(st.lists(st.one_of(RESPONSE_LINES, st.binary(max_size=30)), max_size=8))
    end = draw(st.sampled_from([b"\r\n", b"\n"]))
    body = draw(st.sampled_from([b"{}", b"[]", b'{"error": "x", "type": "Y"}', b"\xff", b""]))
    return end.join(lines) + draw(st.sampled_from([end + end, end, b""])) + body


@given(hostile_responses())
@FRAMING
def test_the_response_reader_raises_only_transport_errors(data):
    rfile = io.BytesIO(data)
    try:
        _status, headers, _version = read_response(rfile)
        read_body(rfile, headers)
    except (OSError, http.client.HTTPException):
        pass


class OneShotServer:
    """Answers every connection with ``self.reply``, then hangs up."""

    def __init__(self):
        self.reply = b""
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return  # closed
            with connection:
                connection.settimeout(5.0)
                try:
                    received = b""
                    while b"\r\n\r\n" not in received:
                        chunk = connection.recv(4096)
                        if not chunk:
                            break
                        received += chunk
                    connection.sendall(self.reply)
                except OSError:
                    pass

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.listener.close()
        self.thread.join(5.0)
        assert not self.thread.is_alive()


@pytest.fixture(scope="module")
def one_shot():
    server = OneShotServer()
    yield server
    server.close()


@given(hostile_responses())
@FRAMING
def test_a_hostile_response_reaches_the_caller_as_a_serve_error(one_shot, data):
    one_shot.reply = data
    with ServeClient(one_shot.url, timeout=5.0, max_retries=0) as client:
        try:
            assert isinstance(client.health(), dict)
        except ServeError:
            pass


# -- TLS -----------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl CLI")
def test_an_https_client_is_served_through_a_tls_wrapped_daemon(
    planned_store, tmp_path, monkeypatch
):
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-keyout", str(key), "-out", str(cert), "-subj", "/CN=localhost",
         "-addext", "subjectAltName=IP:127.0.0.1,DNS:localhost"],
        check=True, capture_output=True, timeout=60,
    )
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # trust it, and only it
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    session = open_readonly_session(planned_store)
    server = SummaryQueryServer(("127.0.0.1", 0), session, close_session_on_stop=True)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    server.start_background()
    port = server.server_address[1]
    try:
        with ServeClient(f"https://127.0.0.1:{port}") as client:
            assert client.health()["status"] == "ok"
            assert client.query(query_id=3) == session.query(query_id=3)
        # Plain HTTP against the TLS port is refused, typed.
        with ServeClient(f"http://127.0.0.1:{port}", timeout=5.0, max_retries=0) as plain:
            with pytest.raises(ServeError):
                plain.health()
    finally:
        server.stop()
