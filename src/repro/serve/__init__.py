"""``repro.serve``: an always-on query service over store-backed sessions.

The store can checkpoint and restore a whole session; this package serves
queries straight from such a checkpoint instead of rebuilding a network per
process.  Three layers:

* :mod:`repro.serve.wire` — the thin JSON wire schema: requests and typed
  answers (:class:`~repro.core.session.QueryAnswer`, staleness snapshots,
  degradation reports, approximate answers) encode to JSON and decode back to
  the same dataclasses, so a client-side ``==`` against a locally computed
  answer holds.
* :mod:`repro.serve.server` — a stdlib :class:`http.server.ThreadingHTTPServer`
  daemon over one shared
  :class:`~repro.core.session.ReadOnlyNetworkSession` (lazy hierarchy
  loading, requests that never write it), answering ``/query``,
  ``/query_batch``, ``/staleness``, ``/health``, ``/stats`` and
  ``/shutdown``.
* :mod:`repro.serve.client` — the client reused by the CLI, the tests and
  the load benchmark: one kept-alive connection per calling thread
  (:mod:`repro.serve.transport`), bounded jittered retry on connection loss
  and typed overload/deadline/crash errors.
* :mod:`repro.serve.supervisor` / :mod:`repro.serve.worker` — crash-safe
  multi-process serving: a supervisor forks N worker processes (each its own
  read-only restore), fronts them on one port with deadlines, load shedding
  and an exact response cache, health-checks them and restarts crashes with
  capped exponential backoff.
* :mod:`repro.serve.chaos` — a seeded crash-fault harness that SIGKILLs
  workers mid-request so tests can prove the zero-wrong-answer contract.

Start one from the command line::

    repro serve --store run.sqlite --name session --port 8123 --workers 4

or in-process (tests, benchmarks)::

    from repro.serve import start_server, ServeClient
    server = start_server(session)                 # ephemeral port
    with ServeClient(server.url) as client:        # one connection, reused
        answers = client.query_batch(count=8)
        client.shutdown()
    server.join()
"""

from repro.serve.cache import ResponseCache, checkpoint_digest
from repro.serve.chaos import ChaosMonkey
from repro.serve.client import ServeClient
from repro.serve.server import SummaryQueryServer, start_server
from repro.serve.supervisor import Supervisor, start_supervisor
from repro.serve.wire import (
    decode_answer,
    decode_staleness,
    encode_answer,
    encode_staleness,
)

__all__ = [
    "ServeClient",
    "SummaryQueryServer",
    "start_server",
    "Supervisor",
    "start_supervisor",
    "ChaosMonkey",
    "ResponseCache",
    "checkpoint_digest",
    "encode_answer",
    "decode_answer",
    "encode_staleness",
    "decode_staleness",
]
