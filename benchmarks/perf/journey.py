"""The journey every workload runs, one round at a time.

build -> run half the horizon -> full checkpoint -> run the rest -> delta
checkpoint -> restore -> cold read-only open + first answer -> local queries
-> a burst of served queries.  A round runs every phase once, so slow machine
drift hits every phase alike; round 0 also sets the serving daemon up (timed,
several times over: ``setup_s``), and the daemon then lives for the whole run,
every round sending it the next stretch of its clients' request streams.

This host's cores slow down and speed up by half, for seconds and for minutes
at a time, so a **yardstick** — a fixed chore of the benchmark's own — is
timed before and after every phase, and each end-to-end timing is scaled by
how slow the yardstick found the machine just then (``Journey.calibrated``);
the run's figure is the median across rounds.  The raw seconds are kept too
(``Journey.samples``) and are what the per-layer metrics are made of.

Correctness rides along: the restored session must equal the original, a
fresh restore's first answer and every served response must equal the answer
an in-process read-only open of the same checkpoint gives, and (W4) the
concurrent run must equal the simulator's.  Each check is one attempted
operation; a mismatch is a failed one.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.session import NetworkSession
from repro.exceptions import ReproError
from repro.serve import ServeClient, checkpoint_digest
from repro.store import (
    CHECKPOINT_KIND,
    SqliteBackend,
    open_readonly_session,
    restore_session,
)

from benchmarks.perf.daemons import (
    REQUEST_TIMEOUT_S,
    Daemon,
    Sandbox,
    cpu_seconds,
    http_json,
    http_text,
)
from benchmarks.perf.tracing import Recorder, Span
from benchmarks.perf.workloads import (
    Inputs,
    Request,
    Workload,
    declare,
    make_inputs,
    make_request_pool,
    served_stream,
)

#: Both sessions are advanced this far past the horizon and must still agree.
ADVANCE_SECONDS = 600.0
#: What the yardstick takes on this box when its neighbours are quiet: a
#: calibrated timing reads as seconds on a machine of that speed.
YARDSTICK_REFERENCE_S = 0.012
#: A yardstick reading this fresh also stands for the start of the next phase.
_FRESH_S = 0.002


class _Node:
    __slots__ = ("key", "weight", "children")

    def __init__(self, key: str, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.children: List["_Node"] = []

    def total(self) -> float:
        return self.weight + sum(child.total() for child in self.children)


def yardstick() -> int:
    """A fixed chore with the program's kind of work, to time the machine by.

    Dict and list churn, tuples, a keyed sort, small objects and recursion,
    JSON both ways, set algebra: a plain arithmetic loop slows down and speeds
    up with the machine by another factor than the program does, this mix
    follows it closely.  It must never change: every calibrated figure of
    every later run is measured against it.
    """
    rng = random.Random(12345)
    table: Dict[str, List[Tuple[float, int]]] = {}
    for index in range(6000):
        table.setdefault(f"peer-{rng.randrange(500)}", []).append((rng.random(), index))
    ordered = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
    nodes = [_Node(key, sum(weight for weight, _ in values)) for key, values in ordered]
    for index, node in enumerate(nodes[1:]):
        nodes[index // 4].children.append(node)
    text = json.dumps({key: [round(w, 6) for w, _ in values] for key, values in ordered})
    common = set(json.loads(text)) & {f"peer-{index}" for index in range(0, 500, 3)}
    return len(text) + len(common) + int(nodes[0].total())


def fingerprint(session: NetworkSession) -> Tuple[Any, ...]:
    """What a restore (or another runtime) must reproduce exactly."""
    return (
        session.now,
        [(e.time, e.sequence, e.label) for e in session.simulator.pending()],
        session.system.counter.state_payload(),
    )


def agree_when_advanced(first: Any, second: Any) -> bool:
    """Equal answers, up to the last digits of an approximate answer's counts.

    Sessions run on past a restore merge their hierarchies' cells in another
    order than the never-persisted original, so a class's float
    ``tuple_count`` can differ in the last place (seen on real content, e.g.
    96.65 vs 96.64999999999999).  Routing, staleness, degradation and the
    classes themselves must still be identical.
    """
    if replace(first, answer=None) != replace(second, answer=None):
        return False
    if first.answer is None or second.answer is None:
        return first.answer is second.answer
    one, two = first.answer, second.answer
    return (
        one.select == two.select
        and len(one.classes) == len(two.classes)
        and all(
            replace(a, tuple_count=0.0) == replace(b, tuple_count=0.0)
            and math.isclose(a.tuple_count, b.tuple_count, rel_tol=1e-9)
            for a, b in zip(one.classes, two.classes)
        )
    )


class Phase:
    """One timed phase: its span, and how slow the machine was meanwhile.

    ``slowdown`` is the yardstick's time just before and just after the phase
    over its reference time: how many times slower than the reference machine
    this one ran.  Both are final once the phase has been left.
    """

    def __init__(self, span: Span) -> None:
        self.span = span
        self.slowdown = 1.0

    @property
    def seconds(self) -> float:
        return self.span.seconds


class ServedPhase:
    """What one closed-loop burst of served requests produced."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.answers: List[Tuple[int, Any]] = []
        self.errors: List[str] = []
        self.client_retries = 0
        self.wall_s = 0.0
        self.slowdown = 1.0


def drive_clients(
    url: str,
    pool: List[Request],
    streams: List[List[int]],
    rec: Recorder,
    label: str,
) -> ServedPhase:
    """One thread per client; each sends its next request after the last reply."""
    phase = ServedPhase()
    lock = threading.Lock()

    def client_loop(number: int, stream: List[int], parent: Span) -> None:
        client = ServeClient(url, timeout=REQUEST_TIMEOUT_S, retry_seed=number)
        latencies, answers, errors = [], [], []
        for position, index in enumerate(stream):
            request = f"{label}/c{number}/r{position}"
            with rec.span("served.request", request=request, parent=parent) as span:
                try:
                    answers.append((index, client.query(**pool[index])))
                except (ReproError, OSError) as exc:
                    errors.append(f"{request}: {type(exc).__name__}: {exc}")
                    continue
            latencies.append(span.seconds * 1000.0)
        with lock:
            phase.latencies_ms += latencies
            phase.answers += answers
            phase.errors += errors
            phase.client_retries += client.retries_total

    with rec.span("served") as served:
        threads = [
            threading.Thread(target=client_loop, args=(number, stream, served))
            for number, stream in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.wall_s = served.seconds
    return phase


class Journey:
    """Runs rounds of one workload and accumulates samples and verdicts."""

    def __init__(
        self, workload: Workload, seed: int, sandbox: Sandbox, rec: Recorder
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.sandbox = sandbox
        self.rec = rec
        #: key -> one raw value per round (per set-up, for the set-up keys).
        self.samples: Dict[str, List[float]] = {}
        #: end-to-end timing -> the same values at the reference machine speed.
        self.calibrated: Dict[str, List[float]] = {}
        self.served_ms: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.rounds = 0
        # Fixed by round 0 (same seed => same checkpoint => same answers).
        self.pool: List[Request] = []
        self.digest: Optional[str] = None
        self.daemon: Optional[Daemon] = None
        self._streams: List[Iterator[int]] = []
        #: Round 0's checkpoint, opened read-only in-process: what it answers
        #: is what every other way of asking must answer (see ``expect``).
        self._oracle: Optional[NetworkSession] = None
        self._expected: Dict[int, Any] = {}
        self._yard = (0.0, 0.0)  # when the last yardstick ended, what it took
        #: Set by the traced run: called in the traced round with its live objects.
        self.probe: Any = None

    # -- bookkeeping ------------------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def add_timing(self, key: str, value: float, slowdown: float) -> None:
        """A raw end-to-end timing, and what it is at the reference speed."""
        self.add(key, value)
        self.calibrated.setdefault(key, []).append(value / slowdown)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def first(self, key: str) -> float:
        return self.samples[key][0]

    def _yardstick(self) -> float:
        """Seconds the yardstick takes right now (reused while still fresh)."""
        if time.perf_counter() - self._yard[0] > _FRESH_S:
            with self.rec.span("bench.yardstick") as span:
                yardstick()
            self.add("bench.yardstick_ms", span.seconds * 1000.0)
            self._yard = (span.end, span.seconds)
        return self._yard[1]

    @contextmanager
    def phase(self, name: str) -> Iterator[Phase]:
        """A timed phase of the journey, with the yardstick on either side.

        The harness keeps several whole sessions and hundreds of answers
        alive, and a full collection triggered inside a phase would walk all
        of them: freezing them first leaves the phase paying only for the
        garbage it makes itself, as it would in a process of its own.
        """
        gc.freeze()
        before = self._yardstick()
        with self.rec.span(name) as span:
            phase = Phase(span)
            yield phase
        phase.slowdown = (before + self._yardstick()) / 2.0 / YARDSTICK_REFERENCE_S

    # -- one round --------------------------------------------------------------------

    def round(self) -> None:
        index = self.rounds
        self.rounds += 1
        with self.rec.span("round", request=f"round-{index}"):
            self._round(index)
        gc.unfreeze()
        gc.collect()

    def _round(self, index: int) -> None:
        w, rec, seed = self.workload, self.rec, self.seed
        inputs = make_inputs(w, seed, rec)
        self.add("network.topology.generate_s", inputs.topology_s)
        self.add("workloads.build_peer_databases_s", inputs.databases_s)
        # Daemons that were only asked to stop: collect their exits here, so
        # that no dying process competes with a timed phase.
        self.sandbox.reap()
        with self.phase("build") as build:
            session = declare(w, seed, inputs).build()
        self.add_timing("build_s", build.seconds, build.slowdown)

        horizon = session.horizon
        store_path = self.sandbox.new_store_path()
        with SqliteBackend(store_path) as store:
            with self.phase("maintain.first_half") as first_half:
                events = session.run_until(horizon / 2)
            with self.phase("checkpoint.full") as full:
                session.checkpoint(store, name="base")
            self.add_timing("checkpoint_full_s", full.seconds, full.slowdown)
            with self.phase("maintain.second_half") as second_half:
                events += session.run_until(horizon)
            self.add("maintain_s", first_half.seconds + second_half.seconds)
            # W4's maintenance waits on modelled I/O instead of computing, so
            # a slower core does not stretch it: it stands as it was timed.
            waits = w.runtime != "simulator"
            self.calibrated.setdefault("maintain_s", []).append(
                sum(
                    half.seconds / (1.0 if waits else half.slowdown)
                    for half in (first_half, second_half)
                )
            )
            self.add("core.maintenance.events", events)
            self.add(
                "runtime.concurrent.overlapped_events",
                getattr(session.runtime, "overlapped_events", 0),
            )
            with self.phase("checkpoint.delta") as delta:
                session.checkpoint(store, name="tip", base="base")
            self.add_timing("checkpoint_delta_s", delta.seconds, delta.slowdown)
            self.add("checkpoint_full_bytes", store.size_bytes(CHECKPOINT_KIND, "base"))
            self.add("store.deltas.bytes", store.size_bytes(CHECKPOINT_KIND, "tip"))
            digest = checkpoint_digest(store, "tip")
            with self.phase("restore") as restore:
                restored = restore_session(
                    store, name="tip", background=inputs.background, runtime=w.runtime
                )
            self.add_timing("restore_s", restore.seconds, restore.slowdown)

        if index == 0:
            self.digest = digest
            self.pool = make_request_pool(w, seed, session)
            self._streams = [
                served_stream(w, seed, client) for client in range(w.clients)
            ]
            self._oracle = open_readonly_session(
                store_path, name="tip", background=inputs.background
            )
        # Round 0's checkpoint stands for every round's only if every round
        # produced the very same one.
        self.check(digest == self.digest, f"round {index}: checkpoint digest differs")
        self.check(
            fingerprint(restored) == fingerprint(session),
            f"round {index}: restored session differs from the original",
        )

        with self.phase("cold_first_answer") as cold:
            readonly = open_readonly_session(
                store_path, name="tip", background=inputs.background
            )
            cold_answer = readonly.query(**self.pool[0])
        self.add_timing("cold_first_answer_s", cold.seconds, cold.slowdown)
        try:
            self.check(
                cold_answer == self.expect(0),
                f"round {index}: cold first answer differs from a warm one",
            )
            if self.probe is not None and rec.enabled:
                self.probe(
                    inputs=inputs, session=session, readonly=readonly,
                    store_path=store_path,
                )
        finally:
            readonly.close()

        self._local_queries(index, restored)
        if index == 0:
            self._set_up_serving(store_path)
        else:
            os.remove(store_path)  # round 0's is the one being served
        self._served(index)
        if index == 0:
            self._agreement_checks(session, store_path, inputs)

    # -- phases -----------------------------------------------------------------------

    def expect(self, index: int) -> Any:
        """What request ``index`` of the pool must be answered with.

        A read-only session answers each request like the first request after
        a fresh restore, which is exactly what a daemon must reproduce.
        Answered on first need, always outside the timed windows.
        """
        if index not in self._expected:
            self._expected[index] = self._oracle.query(**self.pool[index])
        return self._expected[index]

    def _local_queries(self, index: int, restored: NetworkSession) -> None:
        latencies = []
        with self.phase("local_queries") as phase:
            for position in range(self.workload.local_queries):
                with self.rec.span("core.session.query") as span:
                    answer = restored.query(**self.pool[position])
                latencies.append(span.seconds * 1000.0)
                if position == 0:
                    first_answer = answer
        self.add_timing(
            "local_query_ms_p50", statistics.median(latencies), phase.slowdown
        )
        self.add("local_queries_s", phase.seconds)
        # ``restored`` was a fresh restore until this phase: its first answer
        # is the independent check on the read-only session's expected ones.
        self.check(
            first_answer == self.expect(0),
            f"round {index}: fresh restore answers differently from read-only",
        )

    def _set_up_serving(self, store_path: str) -> None:
        """Set the daemon up ``setup_repeats`` times; the last one serves the run."""
        w = self.workload
        for _attempt in range(w.setup_repeats):
            if self.daemon is not None:
                self.sandbox.discard(self.daemon)
            with self.phase("setup") as setup:
                make_inputs(w, self.seed, self.rec)
                with self.rec.span("setup.daemon_start") as start:
                    self.daemon = self.sandbox.start_daemon(
                        store_path, "tip", fleet=w.serve == "fleet",
                        background=w.background_name,
                    )
            self.add_timing("setup_s", setup.seconds, setup.slowdown)
            self.add("serve.daemon.start_s", start.seconds)
        if w.warmup_requests:
            # Let the fleet's response cache fill before anything is timed.
            self._burst(w.warmup_requests, "warm-up")

    def _burst(self, requests: int, label: str) -> ServedPhase:
        """Send the next ``requests`` of the clients' streams; check every answer."""
        per_client = requests // len(self._streams)
        streams = [[next(stream) for _ in range(per_client)] for stream in self._streams]
        with self.phase("served_queries") as phase:
            served = drive_clients(self.daemon.url, self.pool, streams, self.rec, label)
        served.slowdown = phase.slowdown
        for pool_index, answer in served.answers:
            self.check(
                answer == self.expect(pool_index),
                f"{label}: served answer {pool_index} is wrong",
            )
        for error in served.errors:
            self.check(False, f"{label}: {error}")
        return served

    def _served(self, index: int) -> None:
        pids = self.daemon.pids()
        cpu_before = cpu_seconds(pids)
        served = self._burst(self.workload.served_requests, f"round-{index}")
        # A failed request has no latency and is no completed request.
        completed = len(served.latencies_ms)
        self.add(
            "serve.daemon.cpu_ms_per_request",
            (cpu_seconds(pids) - cpu_before) * 1000.0 / max(1, completed),
        )
        self.add("serve.client.retries_total", served.client_retries)
        self.served_ms += served.latencies_ms
        self.add_timing(
            "served_query_ms_p50", statistics.median(served.latencies_ms), served.slowdown
        )
        # Requests per second: a slower machine makes it smaller, not larger.
        self.add_timing("served_qps", completed / served.wall_s, 1.0 / served.slowdown)
        self.add("served_s", served.wall_s)

    def finish(self) -> None:
        """Read the daemon's own counters, stop it, and collect every exit."""
        if self.daemon is not None:
            self._scrape(self.daemon)
            self.sandbox.stop_daemon(self.daemon)
            self.daemon = None
        if self._oracle is not None:
            self._oracle.close()
            self._oracle = None
        self.sandbox.reap()  # every child's memory is counted once collected

    def _scrape(self, daemon: Daemon) -> None:
        """The counters the daemon already exposes, over the whole run."""
        metrics = http_text(daemon.url + "/metrics")
        for key, series in (
            ("serve.server.request_ms_mean", 'repro_serve_request_seconds{endpoint="/query"}'),
            ("serve.server.lock_wait_ms_mean", "repro_session_lock_wait_seconds"),
            ("serve.server.lock_hold_ms_mean", "repro_session_lock_hold_seconds"),
        ):
            self.add(key, histogram_mean(metrics, series) * 1000.0)
        if daemon.fleet:
            health = http_json(daemon.url + "/health")
            cache = health["cache"]
            lookups = cache["hits"] + cache["misses"]
            self.add("serve.cache.hit_ratio", cache["hits"] / lookups if lookups else 0.0)
            # Every miss is stored; what is no longer held was evicted.
            self.add("serve.cache.evictions", cache["misses"] - cache["size"])
            for name in ("shed_total", "retries_total", "restarts_total"):
                self.add(f"serve.supervisor.{name}", health[name])
        else:
            lazy = http_json(daemon.url + "/stats")["lazy"]
            for name in ("fetches", "hits", "evictions"):
                self.add(f"store.lazy.{name}", lazy[name])

    def _agreement_checks(
        self, session: NetworkSession, store_path: str, inputs: Inputs
    ) -> None:
        """Original, a second restore (and W4's simulator run) advanced together.

        Run last in round 0: it moves the original session past the horizon.
        """
        w = self.workload
        twins = {
            "a second restore": restore_session(
                store_path, name="tip", background=inputs.background,
                runtime=w.runtime,
            )
        }
        if w.runtime != "simulator":
            twins["the simulator's run"] = self._simulator_replay()
        until = session.now + ADVANCE_SECONDS
        session.run_until(until)
        reference = fingerprint(session)
        answer = session.query(**self.pool[0])
        for what, twin in twins.items():
            twin.run_until(until)
            self.check(
                fingerprint(twin) == reference
                and agree_when_advanced(twin.query(**self.pool[0]), answer),
                f"the original session and {what} diverge when advanced",
            )

    def _simulator_replay(self) -> NetworkSession:
        """W4: the same inputs and horizon on the serial simulator."""
        w = self.workload
        inputs = make_inputs(w, self.seed, Recorder())
        twin = declare(w, self.seed, inputs, runtime="simulator").build()
        with self.rec.span("runtime.simulator.replay") as span:
            events = twin.run_until(twin.horizon)
        self.add("runtime.simulator.events_per_s", events / span.seconds)
        return twin

    # -- results ----------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics: medians across rounds at the reference speed."""
        metrics = {
            name: statistics.median(values) for name, values in self.calibrated.items()
        }
        metrics["checkpoint_full_bytes"] = self.first("checkpoint_full_bytes")
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics["peak_rss_mb"] = usage / 1024.0
        return metrics


def histogram_mean(exposition: str, series: str) -> float:
    """``_sum / _count`` of one histogram series of a Prometheus text page."""
    name, _, labels = series.partition("{")
    labels = "{" + labels if labels else ""
    values = {}
    for suffix in ("_sum", "_count"):
        prefix = f"{name}{suffix}{labels} "
        for line in exposition.splitlines():
            if line.startswith(prefix):
                values[suffix] = float(line[len(prefix):])
    if not values.get("_count"):
        return 0.0
    return values["_sum"] / values["_count"]
