"""HTTP/1.1 framing and kept-alive connections, shared by every hop.

Every hop reads heads with :func:`read_head`, never with the stdlib's
``email``-based parser.  Both outgoing hops —
:class:`~repro.serve.client.ServeClient` to a daemon, and the supervisor to
each of its workers — go through a :class:`ConnectionPool`.  A pool dials a
socket with Nagle off (TLS for ``https``) on first use, sends each request
in one ``sendall``, keeps the connection open after the response, and hands
it to the next request, so a served query pays for a TCP connect once per
caller rather than once per request.  Concurrent callers each get a connection of
their own; a pool never holds more connections than it had simultaneous
requests.

Lifecycle of one connection:

* **opened** by the first request that finds no idle connection;
* **kept** after a response unless the peer announced ``Connection: close``
  (or spoke HTTP/1.0, or sent no ``Content-Length``), the exchange failed,
  or the pool was closed;
* **re-dialled once, silently,** when a *reused* connection turns out to be
  dead before any response byte arrived: the peer closed it while it sat idle
  (idle timeout, clean restart), nothing was answered, so this is not a
  failure of the request.  A connection that dies on a fresh dial, or after
  the response started, raises — that is a lost request, and the caller's
  retry / crash-recovery policy decides what happens next;
* **closed** by :meth:`ConnectionPool.close`, which also makes connections
  still out on a request close when they come back.
"""

from __future__ import annotations

import http.client
import socket
import ssl
import threading
from typing import BinaryIO, Dict, List, Optional, Tuple

#: Longest line and most lines in a head: the stdlib's limits.
MAX_LINE = 65536
MAX_HEADERS = 100


class MalformedHeader(http.client.HTTPException):
    """A header line that is not ``name: value``."""


class Headers(dict):
    """Header fields by lower-cased name, looked up in any case; repeats joined."""

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name: str) -> bool:  # type: ignore[override]
        return dict.__contains__(self, name.lower())

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return dict.get(self, name.lower(), default)


def read_head(rfile: BinaryIO) -> Headers:
    """The header lines up to the blank line (or EOF) that ends a head."""
    headers = Headers()
    for _ in range(MAX_HEADERS):  # the blank line counts, as in the stdlib
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        # No obs-fold or space before the colon (RFC 9112 §5.1): no smuggling.
        if not colon or not name or name != name.strip():
            raise MalformedHeader(f"malformed header line {line[:80]!r}")
        key, value = name.lower(), value.strip()
        headers[key] = f"{headers[key]}, {value}" if key in headers else value
    raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")


def read_response(rfile: BinaryIO) -> Tuple[int, Headers, bool]:
    """A response's ``(status, headers, will_close)``, skipping ``100``s."""
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("status line")
        if not line:
            raise http.client.RemoteDisconnected("closed before a response")
        version, code = (line.decode("iso-8859-1").split(None, 2) + ["", ""])[:2]
        if not (version.startswith("HTTP/") and code.isascii() and code.isdigit()
                and len(code) == 3 and code >= "100"):
            raise http.client.BadStatusLine(repr(line[:80]))
        headers = read_head(rfile)
        if code != "100":
            close = "close" in headers.get("Connection", "").lower()
            close |= version != "HTTP/1.1" or "Content-Length" not in headers
            return int(code), headers, close


def read_body(rfile: BinaryIO, headers: Headers) -> bytes:
    """The body ``headers`` frame: ``Content-Length`` bytes, else up to EOF."""
    if "Transfer-Encoding" in headers:
        raise http.client.HTTPException("chunked responses are not supported")
    declared = headers.get("Content-Length")
    if declared is None:
        return rfile.read()
    if not (declared.isascii() and declared.isdigit() and len(declared) <= 15):
        raise http.client.HTTPException(f"malformed Content-Length {declared!r}")
    # Read in bounded pieces: a peer's claim alone allocates nothing.
    chunks, missing = [], int(declared)
    while missing:
        chunk = rfile.read(min(missing, 1 << 20))
        if not chunk:
            raise http.client.IncompleteRead(b"".join(chunks), missing)
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks)


class _Connection:
    """One socket to the peer, Nagle off, and the buffered reader over it."""

    def __init__(self, pool: "ConnectionPool", timeout: float) -> None:
        sock = socket.create_connection((pool.host, pool.port), timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if pool._tls is not None:  # a failed handshake closes the socket
            sock = pool._tls.wrap_socket(sock, server_hostname=pool.host)
        self.sock, self.rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class ConnectionPool:
    """Idle kept-alive connections to one ``host:port``."""

    def __init__(self, host: str, port: int, tls: bool = False) -> None:
        self.host = host
        self.port = port
        self._tls = ssl.create_default_context() if tls else None
        self._authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        self._lock = threading.Lock()
        self._idle: List[_Connection] = []
        self._closed = False

    def request(
        self,
        method: str,
        target: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> Tuple[int, Headers, bytes]:
        """One exchange: ``(status, response headers, response body)``.

        ``timeout`` bounds every socket operation of this exchange (connect,
        send, each read).  Failures surface as ``TimeoutError``,
        ``ConnectionError`` (refused, reset, ``RemoteDisconnected``), other
        ``OSError``, or :class:`~http.client.HTTPException`
        (``IncompleteRead``, ``BadStatusLine``...).
        """
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._authority}\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        message = (head + "\r\n").encode("iso-8859-1") + (body or b"")
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        try:
            while True:
                if connection is None:
                    connection = _Connection(self, timeout)
                else:
                    connection.sock.settimeout(timeout)
                try:
                    connection.sock.sendall(message)
                    status, response_headers, will_close = read_response(connection.rfile)
                except ConnectionError:
                    if not reused:
                        raise
                    connection.close()
                    connection, reused = None, False
                    continue
                payload = read_body(connection.rfile, response_headers)
                break
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        with self._lock:
            keep = not (self._closed or will_close)
            if keep:
                self._idle.append(connection)
        if not keep:
            connection.close()
        return status, response_headers, payload

    def close(self) -> None:
        """Close every idle connection; ones in use close on their return."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


__all__ = ["ConnectionPool", "Headers", "MalformedHeader", "read_head"]
