"""The worker half of supervised serving: one process, one read-only restore.

``python -m repro.serve.worker --store S --name N`` runs
:func:`~repro.serve.server.serve_checkpoint`: it restores the checkpoint
read-only (store opened with ``exclusive=False``, so any number of workers
coexist with at most one writer), starts a
:class:`~repro.serve.server.SummaryQueryServer` on an ephemeral port, and
prints exactly one handshake line on stdout::

    READY port=<port> pid=<pid>

The supervisor parses that line to learn where the worker listens; everything
after it goes through HTTP.  The worker then serves until one of:

* a ``POST /shutdown`` request (the supervisor's graceful path),
* ``SIGTERM`` (the supervisor's firm path — stops accepting, lets the
  handler threads finish the requests they hold, ends their kept-alive
  connections, then exits cleanly), or
* ``SIGKILL`` (a crash, the chaos harness's weapon of choice — the supervisor
  notices the exit and restarts a fresh worker; the read-only discipline
  guarantees the replacement answers byte-identically).

Because every worker is a *process*, a fleet of them executes protocol work
truly in parallel, past the one-request-at-a-time ceiling of a single
process.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

#: The stdout handshake prefix the supervisor greps for.
READY_PREFIX = "READY"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="One supervised serve worker: restore a checkpoint "
        "read-only and answer queries until stopped.",
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.serve.server import background_from_name, serve_checkpoint

    args = build_parser().parse_args(argv)
    return serve_checkpoint(
        args.store,
        args.name,
        args.host,
        args.port,
        lambda server: (
            f"{READY_PREFIX} port={server.server_address[1]} pid={os.getpid()}"
        ),
        background=background_from_name(args.background),
        observe=not args.no_obs,
    )


if __name__ == "__main__":
    sys.exit(main())
