"""The single serve daemon's entry point, and the child side of a fleet.

``python -m repro.serve.worker --store S --name N`` runs
:func:`~repro.serve.server.serve_checkpoint`: it restores the checkpoint
read-only (store opened with ``exclusive=False``, so any number of readers
coexist with at most one writer), starts a
:class:`~repro.serve.server.SummaryQueryServer` on an ephemeral port, and
prints exactly one handshake line on stdout::

    READY port=<port> pid=<pid>

A supervised fleet (:class:`~repro.serve.supervisor.Supervisor`) starts no
interpreter: its processes are forks, and their bootstrap lives here.

* :func:`run_zygote` runs in the one child the supervisor forks before it
  starts a thread.  It opens the checkpoint read-only once, freezes the
  restored heap (``gc.freeze``: no collection walks it again, so forked
  workers keep sharing its pages), and then forks one worker per request
  read from its control socket, and reaps them.  It never reads the store
  after it starts forking.
* Each worker serves the inherited session through
  :func:`~repro.serve.server.serve_session` and reports the same ``READY``
  line over a pipe the supervisor passed along with the request.  Lazy
  fetches then happen in the worker, over its own store connection.

Either way a serving process then serves until one of:

* a ``POST /shutdown`` request (the supervisor's graceful path),
* ``SIGTERM`` (the supervisor's firm path — stops accepting, lets the
  handler threads finish the requests they hold, ends their kept-alive
  connections, then exits cleanly), or
* ``SIGKILL`` (a crash, the chaos harness's weapon of choice — the supervisor
  notices the exit and has the zygote fork a fresh worker; the read-only
  discipline guarantees the replacement answers byte-identically).

Because every worker is a *process*, a fleet of them executes protocol work
truly in parallel, past the one-request-at-a-time ceiling of a single
process.
"""

from __future__ import annotations

import argparse
import gc
import os
import select
import signal
import socket
import sys
from typing import Callable, NoReturn, Optional, Sequence, Set

#: The handshake prefix the supervisor and the benchmark look for.
READY_PREFIX = "READY"

#: Control-socket requests to the zygote: fork a worker (the byte carries the
#: write end of the worker's handshake pipe), or quit.
FORK, QUIT = b"F", b"Q"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="One serve daemon: restore a checkpoint read-only and "
        "answer queries until stopped.",
    )
    parser.add_argument("--store", required=True, help="store path (dir or .sqlite)")
    parser.add_argument("--name", default="session", help="checkpoint name")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (default 0: ephemeral)"
    )
    parser.add_argument(
        "--background",
        default=None,
        help="named background knowledge for real-content checkpoints "
        "(e.g. 'medical'); planned checkpoints need none",
    )
    parser.add_argument(
        "--no-obs", action="store_true", help="serve uninstrumented"
    )
    return parser


def ready_line(port: int) -> str:
    return f"{READY_PREFIX} port={port} pid={os.getpid()}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.serve.server import background_from_name, serve_checkpoint

    args = build_parser().parse_args(argv)
    return serve_checkpoint(
        args.store,
        args.name,
        args.host,
        args.port,
        lambda server: ready_line(server.server_address[1]),
        background=background_from_name(args.background),
        observe=not args.no_obs,
    )


def run_child(body: Callable[[], int]) -> NoReturn:
    """Run a forked child's ``body`` and end the process with its exit code.

    The child never returns into the stack it was forked from (the
    supervisor's caller, a test runner, ...), and exits without running the
    parent's ``atexit`` hooks or flushing the parent's buffers.
    """
    code = 1
    try:
        code = body()
    except BaseException:  # noqa: BLE001 - the child reports, then exits
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def run_zygote(
    control: socket.socket,
    store: str,
    name: str,
    background: Optional[str],
    quiet: bool,
) -> int:
    """Restore once, then fork a worker per request until told to stop.

    ``control`` is the zygote's end of a socket pair with the supervisor.
    Each :data:`FORK` byte on it carries one file descriptor, the write end
    of a pipe the new worker writes its ``READY`` line to; :data:`QUIT` or
    end-of-file ends the loop, and the zygote then stops and reaps whatever
    workers are left.  Single-threaded throughout: a worker forked from it
    inherits no lock another thread held.
    """
    from repro.serve.server import background_from_name
    from repro.store.checkpoint import open_readonly_session

    # Ctrl-C reaches the whole process group: the supervisor stops the fleet,
    # and each worker reacts as the supervisor does.
    interrupt = signal.signal(signal.SIGINT, signal.SIG_IGN)
    if quiet:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 2)
        os.close(devnull)
    session = open_readonly_session(
        store, name=name, background=background_from_name(background)
    )
    gc.freeze()
    children: Set[int] = set()
    poller = select.poll()
    poller.register(control, select.POLLIN)
    while True:
        _reap(children)
        if not poller.poll(1000):
            continue
        request, fds, _flags, _address = socket.recv_fds(control, 1, 1)
        if request != FORK or len(fds) != 1:
            for fd in fds:
                os.close(fd)
            break
        (ready,) = fds
        pid = os.fork()
        if pid == 0:
            control.close()
            signal.signal(signal.SIGINT, interrupt)
            run_child(lambda: _serve_forked(session, name, ready, quiet))
        children.add(pid)
        os.close(ready)
    for pid in children:
        try:
            os.kill(pid, signal.SIGTERM)  # unreaped, so never a recycled pid
        except ProcessLookupError:
            pass
    for pid in children:
        os.waitpid(pid, 0)
    return 0


def _reap(children: Set[int]) -> None:
    """Collect every worker that has ended (their usage then counts as ours)."""
    while children:
        pid, _status = os.waitpid(-1, os.WNOHANG)
        if pid == 0:
            return
        children.discard(pid)


def _serve_forked(session, name: str, ready: int, quiet: bool) -> int:
    """A worker's life: serve the zygote's session, report ``READY`` on ``ready``."""
    from repro.serve.server import serve_session

    def announce(server) -> None:
        os.write(ready, (ready_line(server.server_address[1]) + "\n").encode("ascii"))
        os.close(ready)

    return serve_session(session, name, "127.0.0.1", 0, announce, quiet=quiet)


if __name__ == "__main__":
    sys.exit(main())
