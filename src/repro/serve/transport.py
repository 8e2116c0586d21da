"""Kept-alive HTTP/1.1 connections to one peer, shared by every hop.

Both outgoing hops of the serve path — :class:`~repro.serve.client.ServeClient`
to a daemon, and the supervisor to each of its workers — go through a
:class:`ConnectionPool`.  A pool dials ``host:port`` on first use
(:meth:`http.client.HTTPConnection.connect` turns Nagle off), keeps the
connection open after the response, and hands it to the next request, so a
served query pays for a TCP connect once per caller rather than once per
request.  Concurrent callers each get a connection of their own; a pool
never holds more connections than it had simultaneous requests.

Lifecycle of one connection:

* **opened** by the first request that finds no idle connection;
* **kept** after a response unless the peer announced ``Connection: close``
  (or spoke HTTP/1.0), the exchange failed, or the pool was closed;
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
import threading
from typing import Dict, List, Optional, Tuple


class ConnectionPool:
    """Idle kept-alive connections to one ``host:port``."""

    def __init__(self, host: str, port: int, tls: bool = False) -> None:
        self.host = host
        self.port = port
        self._factory = (
            http.client.HTTPSConnection if tls else http.client.HTTPConnection
        )
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        self._closed = False

    def request(
        self,
        method: str,
        target: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One exchange: ``(status, response headers, response body)``.

        ``timeout`` bounds every socket operation of this exchange (connect,
        send, each read).  Failures surface as :mod:`http.client` raises
        them: ``TimeoutError``, ``ConnectionError`` (refused, reset,
        :class:`~http.client.RemoteDisconnected`), other ``OSError``, or
        :class:`~http.client.HTTPException` (``IncompleteRead``...).
        """
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        try:
            while True:
                if connection is None:
                    connection = self._factory(self.host, self.port, timeout=timeout)
                    connection.connect()
                else:
                    connection.sock.settimeout(timeout)
                try:
                    connection.request(method, target, body=body, headers=headers)
                    response = connection.getresponse()
                except ConnectionError:
                    if not reused:
                        raise
                    connection.close()
                    connection, reused = None, False
                    continue
                payload = response.read()
                break
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        with self._lock:
            keep = not (self._closed or response.will_close)
            if keep:
                self._idle.append(connection)
        if not keep:
            connection.close()
        return response.status, response.headers, payload

    def close(self) -> None:
        """Close every idle connection; ones in use close on their return."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


__all__ = ["ConnectionPool"]
