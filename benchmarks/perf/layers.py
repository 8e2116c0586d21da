"""Per-layer attribution, measured from outside (the traced run only).

A composite call cannot be split from outside, so its breakdown is obtained
by **replay**: the same work is pushed through the layers one public call at a
time (``build()`` as map_records -> incorporate_all -> merge_hierarchies; a
served request as encode_query -> read-only query -> encode_answer ->
json.dumps -> json.loads -> decode_answer) and whatever the parts do not
cover is reported as an explicit residual.  Everything else is a timing of
one layer's public functions or a counter the program already exposes.

A layer a workload bypasses does no work there, and reports 0 work and 0 busy
time — that 0 is the measurement (it proves the bypass), not a placeholder.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
from typing import Any, Callable, Dict, List

from repro.core.routing import QueryRequest
from repro.core.session import NetworkSession
from repro.obs import Observability
from repro.querying.aggregation import approximate_answer
from repro.querying.proposition import Proposition
from repro.saintetiq.clustering import SummaryBuilder
from repro.saintetiq.mapping import MappingService
from repro.saintetiq.merging import merge_hierarchies
from repro.saintetiq.serialization import (
    encoded_size_bytes,
    hierarchy_from_dict,
    hierarchy_to_dict,
)
from repro.serve import Supervisor, wire
from repro.store import (
    CHECKPOINT_KIND,
    SNAPSHOT_KIND,
    HierarchySource,
    InMemoryBackend,
    JsonDirectoryBackend,
    SnapshotStore,
    SqliteBackend,
    apply_patch,
    collect_garbage,
    compact_checkpoint,
    diff_documents,
    restore_session,
    snapshot_refcounts,
)
from repro.store.checkpoint import capture_session, resolve_checkpoint_payload

from benchmarks.perf.journey import Journey, drive_clients
from benchmarks.perf.tracing import percentile
from benchmarks.perf.workloads import IO_COST_SECONDS, Inputs

#: Requests replayed through the codec chain / the extra daemons of a probe.
REPLAY_REQUESTS = 100
BATCH_SIZE = 16
#: The parts of a served request's codec work, both ends summed.
CODEC_PARTS = ("encode", "decode", "json_dumps", "json_loads")
#: composite end-to-end metric -> (replayed parts, explicit residual): the
#: parts and the residual add up to the composite, in the composite's unit.
COMPOSITES = {
    "build_s": (
        (
            "saintetiq.mapping.map_s",
            "saintetiq.clustering.incorporate_s",
            "saintetiq.merging.merge_s",
        ),
        "core.construction.residual_s",
    ),
    "served_query_ms_p50": (
        ("core.session.readonly_query_ms",)
        + tuple(f"serve.wire.{part}_ms" for part in CODEC_PARTS),
        "serve.http.residual_ms",
    ),
}


def _median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1000.0


class LayerProbe:
    """Called once, in the traced round, with that round's live objects."""

    def __init__(self, journey: Journey) -> None:
        self.journey = journey
        self.rec = journey.rec
        self.values: Dict[str, float] = {}
        #: Patient records summarized (0 on planned content); set by _saintetiq.
        self.records = 0

    def timed(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` under a span named after the layer; keep its seconds."""
        with self.rec.span(name) as span:
            result = call()
        self.values[name] = self.values.get(name, 0.0) + span.seconds
        return result

    def __call__(
        self,
        inputs: Inputs,
        session: NetworkSession,
        readonly: NetworkSession,
        store_path: str,
    ) -> None:
        self._construction(session)
        self._saintetiq(inputs, session)
        self._session(readonly, store_path, inputs)
        self._wire(readonly)
        self._store(inputs, session, store_path)
        self._fleet(store_path)

    # -- core -------------------------------------------------------------------------

    def _construction(self, session: NetworkSession) -> None:
        values = self.values
        report = session.construction_report
        values["core.construction.messages"] = report.messages.total
        values["core.construction.domains"] = report.domain_count
        maintenance = session.maintenance_report()
        values["core.protocol.push_messages"] = maintenance.push_messages
        values["core.protocol.reconciliations"] = maintenance.reconciliations
        values["core.protocol.reconciliation_messages"] = (
            maintenance.reconciliation_messages
        )
        journey = self.journey
        answers = [
            journey.expect(index)
            for index in range(min(REPLAY_REQUESTS, len(journey.pool)))
        ]
        for name, figure in (
            ("query_messages_per_query", lambda a: a.query_messages),
            ("domains_visited_per_query", lambda a: a.domains_visited),
            ("false_negative_rate", lambda a: a.false_negative_rate),
            ("false_positive_rate", lambda a: a.false_positive_rate),
            # The paper's Fig. 4 quantity; only planned content accounts it.
            (
                "stale_answer_fraction",
                lambda a: a.staleness.worst_stale_fraction if a.staleness else 0.0,
            ),
        ):
            values[f"core.routing.{name}"] = statistics.fmean(map(figure, answers))

    def _session(
        self, readonly: NetworkSession, store_path: str, inputs: Inputs
    ) -> None:
        """Each request on a mutable restore, read-only, and read-only observed.

        Taken turn by turn on the same request, so machine drift hits the
        three alike: their differences are the lock + volatile capture/
        rollback of a read-only session, and full instrumentation on top.
        """
        journey = self.journey
        pool = journey.pool
        mutable = restore_session(
            store_path, name="tip", background=inputs.background,
            runtime=journey.workload.runtime,
        )
        observability = Observability.with_ring(detail=True)
        requests = pool[:REPLAY_REQUESTS]
        for request in requests:  # first touches (selection caches) untimed
            mutable.query(**request)
            readonly.query(**request)
        plain, frozen, observed = [], [], []
        for request in requests:
            with self.rec.span("core.session.query") as span:
                mutable.query(**request)
            plain.append(span.seconds)
            with self.rec.span("core.session.readonly_query") as span:
                readonly.query(**request)
            frozen.append(span.seconds)
            readonly.install_observability(observability)
            try:
                with self.rec.span("obs.readonly_query_observed") as span:
                    readonly.query(**request)
            finally:
                readonly.install_observability(None)
            observed.append(span.seconds)
        values = self.values
        values["core.session.query_ms"] = _median_ms(plain)
        values["core.session.readonly_query_ms"] = _median_ms(frozen)
        values["core.session.readonly_overhead_ms"] = (
            values["core.session.readonly_query_ms"] - values["core.session.query_ms"]
        )
        values["obs.overhead_ratio"] = statistics.median(observed) / statistics.median(frozen)

        per_query = []
        for start in range(0, min(len(pool), 8 * BATCH_SIZE), BATCH_SIZE):
            batch = [QueryRequest(**r) for r in pool[start : start + BATCH_SIZE]]
            with self.rec.span("core.session.query_batch") as span:
                readonly.query_batch(requests=batch)
            per_query.append(span.seconds / len(batch))
        values["core.session.query_batch_ms_per_query"] = _median_ms(per_query)

    # -- saintetiq / querying ---------------------------------------------------------

    def _saintetiq(self, inputs: Inputs, session: NetworkSession) -> None:
        values = self.values
        local = session.system.local_summaries() if inputs.databases else {}
        globals_ = [
            d.global_summary for d in session.domains.values() if d.has_global_summary()
        ] if inputs.databases else []
        records_by_peer = {
            peer_id: [
                record.as_dict()
                for name in database.relation_names
                for record in database.relation(name)
            ]
            for peer_id, database in (inputs.databases or {}).items()
        }
        self.records = sum(len(records) for records in records_by_peer.values())

        mapping = MappingService(inputs.background) if inputs.databases else None
        cells_by_peer = self.timed(
            "saintetiq.mapping.map_s",
            lambda: {
                peer_id: mapping.map_records(records, peer=peer_id)
                for peer_id, records in records_by_peer.items()
            },
        )
        cells = sum(len(cells) for cells in cells_by_peer.values())
        self.timed(
            "saintetiq.clustering.incorporate_s",
            lambda: [
                SummaryBuilder().incorporate_all(cells.values())
                for cells in cells_by_peer.values()
            ],
        )

        def merge_all() -> None:
            for domain in session.domains.values():
                members = list(domain.partner_ids) + [domain.summary_peer_id]
                contributions = [
                    local[p] for p in members if p in local and not local[p].is_empty()
                ]
                if contributions:
                    merge_hierarchies(contributions, owner=domain.summary_peer_id)

        self.timed("saintetiq.merging.merge_s", merge_all)
        map_s = values["saintetiq.mapping.map_s"]
        incorporate_s = values["saintetiq.clustering.incorporate_s"]
        values["saintetiq.mapping.records_per_s"] = (
            self.records / map_s if self.records else 0.0
        )
        values["saintetiq.clustering.cells_per_s"] = (
            cells / incorporate_s if cells else 0.0
        )

        hierarchies = list(local.values()) + globals_
        values["saintetiq.hierarchy.nodes"] = sum(h.node_count() for h in hierarchies)
        values["saintetiq.hierarchy.depth_max"] = max(
            (h.depth() for h in hierarchies), default=0
        )
        payloads = self.timed(
            "saintetiq.serialization.encode_s",
            lambda: [hierarchy_to_dict(h) for h in hierarchies],
        )
        decoded = self.timed(
            "saintetiq.serialization.decode_s",
            lambda: [hierarchy_from_dict(p, inputs.background) for p in payloads],
        )
        values["saintetiq.serialization.bytes"] = sum(
            encoded_size_bytes(h) for h in hierarchies
        )
        # The decoded global summaries have never been queried: cold caches.
        self._querying(decoded[len(local):])

    def _querying(self, cold_globals: List[Any]) -> None:
        cold, warm, answer = [], [], []
        queries = [r["query"] for r in self.journey.pool[:REPLAY_REQUESTS] if "query" in r]
        with self.rec.span("querying") as whole:
            for query in queries:
                proposition = Proposition.from_query(query)
                for summary in cold_globals:
                    with self.rec.span("querying.select_cold") as span:
                        selection = summary.select(proposition)
                    cold.append(span.seconds)
                    with self.rec.span("querying.select_warm") as span:
                        summary.select(proposition)
                    warm.append(span.seconds)
                    with self.rec.span("querying.answer") as span:
                        approximate_answer(selection, proposition, query.select)
                    answer.append(span.seconds)
        # Planned content has no hierarchy to select on: each figure is then
        # the whole (empty) probe's time, i.e. next to nothing.
        for name, samples in (("select_cold", cold), ("select_warm", warm), ("answer", answer)):
            self.values[f"querying.{name}_ms"] = _median_ms(samples or [whole.seconds])

    # -- serve.wire: one request through the codec chain ------------------------------

    def _wire(self, readonly: NetworkSession) -> None:
        parts: Dict[str, List[float]] = {part: [] for part in CODEC_PARTS}
        sizes = []
        for position, request in enumerate(self.journey.pool[:REPLAY_REQUESTS]):
            spent = dict.fromkeys(parts, 0.0)

            def step(part: str, name: str, call: Callable[[], Any]) -> Any:
                with self.rec.span(name) as span:
                    result = call()
                spent[part] += span.seconds
                return result

            def answer_request() -> Any:
                with self.rec.span("core.session.readonly_query"):
                    return readonly.query(**request)

            with self.rec.span("replay.request", request=f"replay/r{position}"):
                payload = dict(request)
                if "query" in request:
                    payload["query"] = step(
                        "encode", "serve.wire.encode_query",
                        lambda: wire.encode_query(request["query"]),
                    )
                body = step("json_dumps", "json.dumps", lambda: json.dumps(payload))
                received = step("json_loads", "json.loads", lambda: json.loads(body))
                if "query" in received:
                    step(
                        "decode", "serve.wire.decode_query",
                        lambda: wire.decode_query(received["query"]),
                    )
                answer = answer_request()
                encoded = step(
                    "encode", "serve.wire.encode_answer",
                    lambda: wire.encode_answer(answer),
                )
                text = step(
                    "json_dumps", "json.dumps", lambda: json.dumps({"answer": encoded})
                )
                parsed = step("json_loads", "json.loads", lambda: json.loads(text))
                decoded = step(
                    "decode", "serve.wire.decode_answer",
                    lambda: wire.decode_answer(parsed["answer"]),
                )
            self.journey.check(
                decoded == self.journey.expect(position),
                f"replayed answer {position} differs after the codec round trip",
            )
            sizes.append(len(text.encode("utf-8")))
            for part, seconds in spent.items():
                parts[part].append(seconds)
        for part in CODEC_PARTS:
            self.values[f"serve.wire.{part}_ms"] = _median_ms(parts[part])
        self.values["serve.wire.answer_bytes"] = statistics.median(sizes)

    # -- store ------------------------------------------------------------------------

    def _store(self, inputs: Inputs, session: NetworkSession, store_path: str) -> None:
        values = self.values
        background = inputs.background
        self.timed("store.capture_s", lambda: capture_session(session))

        directory = os.path.dirname(store_path)
        for label, backend in (
            ("sqlite", SqliteBackend(os.path.join(directory, "probe.sqlite"))),
            ("json", JsonDirectoryBackend(os.path.join(directory, "probe-json"))),
            ("memory", InMemoryBackend()),
        ):
            with backend:
                self.timed(
                    f"store.backend.{label}.save_s",
                    lambda: session.checkpoint(backend, name="probe"),
                )
                self.timed(
                    f"store.backend.{label}.restore_s",
                    lambda: restore_session(backend, name="probe", background=background),
                )

        # Compaction and GC rewrite the store, and the round still needs it.
        copy_path = os.path.join(directory, "probe-gc.sqlite")
        shutil.copyfile(store_path, copy_path)
        with SqliteBackend(copy_path) as store:
            base = resolve_checkpoint_payload(store, "base")
            tip = resolve_checkpoint_payload(store, "tip")
            patch = self.timed("store.deltas.diff_s", lambda: diff_documents(base, tip))
            patched = self.timed("store.deltas.patch_s", lambda: apply_patch(base, patch))
            self.journey.check(patched == tip, "apply_patch(diff) does not give the tip")

            refcounts = snapshot_refcounts(store)
            puts = sum(refcounts.values())
            values["store.snapshots.puts"] = puts
            values["store.snapshots.stored"] = len(refcounts)
            values["store.snapshots.dedup_ratio"] = (
                1.0 - len(refcounts) / puts if puts else 0.0
            )
            fetches = []
            source = HierarchySource(SnapshotStore(store), background)
            with self.rec.span("store.lazy") as whole:
                for digest in store.keys(SNAPSHOT_KIND)[:32]:
                    with self.rec.span("store.lazy.fetch") as span:
                        source.get(digest)
                    fetches.append(span.seconds)
            values["store.lazy.fetch_ms"] = _median_ms(fetches or [whole.seconds])

            compact_checkpoint(store, "tip")
            store.delete(CHECKPOINT_KIND, "base")
            report = self.timed("store.gc.collect_s", lambda: collect_garbage(store))
            values["store.gc.reclaimed"] = report.deleted_count
        values["store.bytes_per_record"] = (
            os.path.getsize(store_path) / self.records if self.records else 0.0
        )

    # -- serve.supervisor / serve.cache: what the fleet adds --------------------------

    def _fleet(self, store_path: str) -> None:
        """One client, so nothing contends: the hop's own cost, miss and hit.

        The same distinct requests go to a single worker daemon and to a
        2-worker supervisor (each one a cache miss: proxied, then stored);
        one request repeated then reads the supervisor's response cache.
        """
        journey = self.journey
        background = journey.workload.background_name
        distinct = [list(range(min(REPLAY_REQUESTS, len(journey.pool))))]
        repeated = [[0] * REPLAY_REQUESTS]

        def p50(url: str, streams: List[List[int]], label: str) -> float:
            phase = drive_clients(url, journey.pool, streams, self.rec, label)
            for index, answer in phase.answers:
                journey.check(
                    answer == journey.expect(index),
                    f"{label}: answer {index} is wrong",
                )
            for error in phase.errors:
                journey.check(False, f"{label}: {error}")
            return statistics.median(phase.latencies_ms)

        daemon = journey.sandbox.start_daemon(
            store_path, "tip", fleet=False, background=background
        )
        try:
            single = p50(daemon.url, distinct, "probe-single")
        finally:
            journey.sandbox.stop_daemon(daemon)
        supervisor = Supervisor(
            store_path, name="tip", workers=2, background=background
        ).start()
        try:
            miss = p50(supervisor.url, distinct, "probe-miss")
            hit = p50(supervisor.url, repeated, "probe-hit")
        finally:
            supervisor.stop()
        self.values["serve.supervisor.miss_ms_p50"] = miss
        self.values["serve.supervisor.proxy_ms"] = miss - single
        self.values["serve.cache.hit_ms_p50"] = hit


#: Layer metrics the journey samples every round (median across rounds), and
#: the ones a probe or a workload may not produce: a bypassed layer reads 0.
_ROUND_MEDIANS = (
    "network.topology.generate_s", "workloads.build_peer_databases_s",
    "serve.daemon.start_s", "serve.daemon.cpu_ms_per_request",
    "serve.server.request_ms_mean", "serve.server.lock_wait_ms_mean",
    "serve.server.lock_hold_ms_mean", "bench.yardstick_ms",
)
_ROUND_COUNTS = (
    "core.maintenance.events", "runtime.concurrent.overlapped_events",
    "store.deltas.bytes",
    "store.lazy.fetches", "store.lazy.hits", "store.lazy.evictions",
    "serve.cache.hit_ratio", "serve.cache.evictions",
    "serve.supervisor.shed_total", "serve.supervisor.retries_total",
    "serve.supervisor.restarts_total", "serve.client.retries_total",
)


def per_layer(journey: Journey, probe: LayerProbe, trace_overhead: float) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, from the journey and probe."""
    values = dict(probe.values)
    for key in _ROUND_MEDIANS:
        values[key] = journey.median(key)
    for key in _ROUND_COUNTS:
        # Counts come from round 0: the traced round adds nothing to them.
        values[key] = journey.first(key) if key in journey.samples else 0.0

    maintain_s = journey.median("maintain_s")
    events = values["core.maintenance.events"]
    values["core.maintenance.events_per_s"] = events / maintain_s
    values["runtime.simulator.events_per_s"] = (
        journey.first("runtime.simulator.events_per_s")
        if "runtime.simulator.events_per_s" in journey.samples
        else events / maintain_s
    )
    # Modelled I/O seconds (events x the 2 ms each waits) per second of wall.
    values["runtime.concurrent.overlap_ratio"] = (
        values["runtime.concurrent.overlapped_events"] * IO_COST_SECONDS / maintain_s
    )
    lookups = values["store.lazy.fetches"] + values["store.lazy.hits"]
    values["store.lazy.hit_ratio"] = values["store.lazy.hits"] / lookups if lookups else 0.0

    for composite, (parts, residual) in COMPOSITES.items():
        values[residual] = journey.median(composite) - sum(values[p] for p in parts)
    # Pooled over both rounds; too few samples lie beyond it, and too much of
    # it is the machine, for it to be a gated end-to-end metric (see README).
    values["serve.client.query_ms_p99"] = percentile(journey.served_ms, 0.99)
    values["bench.trace_overhead_ratio"] = trace_overhead
    values["bench.failed_share"] = len(journey.failures) / journey.attempted
    return values
