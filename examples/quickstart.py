"""Quickstart: summarize a relational table, then query a whole network.

Walks the paper's running example end to end:

1. the Patient relation of Table 1,
2. its fuzzy grid-cell mapping (Table 2),
3. the summary hierarchy built by the SaintEtiQ-style engine (Figure 3),
4. query reformulation (Section 5.1),
5. a full P2P network declared with ``SystemBuilder`` and queried through the
   ``NetworkSession`` façade: one ``session.query(...)`` call routes the query
   with the SQ algorithm and returns a typed ``QueryAnswer`` carrying the
   routing outcome, the message cost and the approximate answer —
   *"female anorexia patients with an underweight or normal BMI are young"* —
   computed without touching a raw record; a follow-up ``query_batch`` poses
   several queries through the indexed, memoized, shared-work query engine —
   byte-identical to posing them one by one,
6. persistence through ``repro.store``: the session is checkpointed into a
   single SQLite file and resumed with ``SystemBuilder.from_checkpoint`` —
   the resumed session answers the same query byte-identically, and the
   restore reads the stored summaries instead of rebuilding them,
7. serving: the checkpoint is opened *read-only* with lazy hierarchy loading
   and served over HTTP/JSON (``repro serve`` / ``start_server``); a client
   query comes back byte-identical to a local restore of the same checkpoint,
8. fault injection: a seeded ``FaultPlan`` partitions the network mid-run;
   queries keep working and come back *marked* — every answer carries a
   ``DegradationReport`` naming the domains that could not be reached, and
   after the scheduled heal answers are complete again,
9. observing a run: an opt-in ``Observability`` (metrics registry +
   structured tracing) is installed on the session; queries then record
   counters and span trees without changing any answer — the same registry
   the serve daemon exposes on ``/metrics`` and ``/trace``.

``SystemBuilder`` is the supported way to wire the system; constructing
``SummaryManagementSystem`` and calling ``attach_databases`` /
``build_domains`` by hand still works but is deprecated.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import (
    FaultPlan,
    PartitionEvent,
    PatientGenerator,
    SummaryHierarchy,
    SystemBuilder,
    medical_background_knowledge,
    open_store,
    reformulate,
)
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.mapping import MappingService
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query


def show_table_1(relation) -> None:
    print("Table 1 — raw Patient data")
    print(f"{'id':>4} {'age':>5} {'sex':>8} {'bmi':>6} {'disease':>10}")
    for record in relation:
        print(
            f"{record['id']:>4} {record['age']:>5} {record['sex']:>8} "
            f"{record['bmi']:>6} {record['disease']:>10}"
        )
    print()


def show_table_2(cells) -> None:
    print("Table 2 — grid-cell mapping (age x bmi)")
    print(f"{'cell':>5} {'age':>8} {'bmi':>13} {'tuple count':>12}")
    ordered = sorted(cells.values(), key=lambda cell: -cell.tuple_count)
    for index, cell in enumerate(ordered, start=1):
        description = cell.describe()
        print(
            f"{'c' + str(index):>5} {description['age']:>8} "
            f"{description['bmi']:>13} {cell.tuple_count:>12.2f}"
        )
    print()


def show_hierarchy(hierarchy: SummaryHierarchy) -> None:
    print("Summary hierarchy (Figure 3)")

    def render(node, indent=0):
        intent = "; ".join(
            f"{attribute}={{{', '.join(sorted(labels))}}}"
            for attribute, labels in sorted(node.intent.items())
        )
        print(f"{'  ' * indent}- count={node.tuple_count:.2f}  [{intent}]")
        for child in node.children:
            render(child, indent + 1)

    render(hierarchy.root)
    print()


def main() -> None:
    background = medical_background_knowledge()
    generator = PatientGenerator(seed=0, background=background)
    relation = generator.paper_example_relation()
    show_table_1(relation)

    # -- mapping service: records -> grid cells (Table 2) ----------------------
    numeric_background = medical_background_knowledge(include_categorical=False)
    mapping = MappingService(numeric_background, attributes=["age", "bmi"])
    cells = mapping.map_records([r.as_dict() for r in relation], peer="hospital-1")
    show_table_2(cells)

    # -- summarization service: cells -> hierarchy (Figure 3) ------------------
    hierarchy = SummaryHierarchy(
        numeric_background, attributes=["age", "bmi"], owner="hospital-1"
    )
    hierarchy.add_records(r.as_dict() for r in relation)
    show_hierarchy(hierarchy)

    # -- query reformulation (Section 5.1) --------------------------------------
    crisp = paper_example_query()
    flexible = reformulate(crisp, background)
    print("Query reformulation")
    print(f"  crisp   : {crisp}")
    print(f"  flexible: {flexible}")
    print()

    # -- a whole network in one declarative expression ---------------------------
    # 16 hospitals, each owning a small Patient database; local summaries,
    # domains and global summaries are built by .build().
    overlay = Overlay.generate(TopologyConfig(peer_count=16, average_degree=4, seed=5))
    workload = MedicalWorkload(records_per_peer=8, matching_fraction=0.25, seed=5)
    databases = build_peer_databases(overlay.peer_ids, workload)
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(superpeer_fraction=1 / 8, construction_ttl=3)
        .real_content(databases)
        .seed(5)
        .build()
    )
    print(f"network: {session.overlay.size} hospitals in "
          f"{len(session.domains)} summary domains")

    # -- one call: route the query and answer it approximately --------------------
    answer = session.query(query=crisp)
    print(f"query posed at {answer.originator}:")
    print(f"  peers contacted    : {len(answer.contacted_peers)} "
          f"(out of {session.overlay.size})")
    print(f"  matching responses : {answer.results}")
    print(f"  messages exchanged : {answer.total_messages}")
    if answer.answer is not None and not answer.answer.is_empty:
        merged = answer.answer.merged_output()
        print(f"  => patients with an underweight or normal BMI are "
              f"{sorted(merged.get('age', frozenset()))}")
    print()

    # -- heavy query traffic: the batched query engine ----------------------------
    # query_batch shares the per-query derivation work — domain visit orders,
    # the incrementally tracked online-peer set, each hierarchy's inverted
    # descriptor index and selection memo — across the whole batch, while
    # staying byte-identical to posing the queries one by one.  Repeated query
    # classes against unchanged summaries are answered from the caches.
    batch = session.query_batch(queries=[crisp] * 5)
    print(f"batched query engine: {len(batch)} repeated queries, "
          f"{sum(a.total_messages for a in batch)} messages total, "
          f"results per query {[a.results for a in batch]}")
    print()

    # -- checkpoint the whole session, resume it byte-identically -----------------
    # A store is a directory of JSON files or (here) one SQLite file; local and
    # global summaries are stored content-addressed, so identical hierarchies
    # are persisted exactly once however many checkpoints reference them.
    store_path = Path(tempfile.mkdtemp()) / "quickstart.sqlite"
    session.checkpoint(str(store_path), name="quickstart")
    started = time.perf_counter()
    resumed = SystemBuilder.from_checkpoint(
        str(store_path), name="quickstart", background=background
    )
    restore_ms = 1000 * (time.perf_counter() - started)
    resumed_answer = resumed.query(query=crisp)
    print(f"checkpoint/restore: resumed from {store_path.name} "
          f"in {restore_ms:.0f} ms (no summary reconstruction)")
    print(f"  resumed session answers identically: "
          f"{resumed_answer.routing == session.query(query=crisp).routing}")

    # -- delta checkpoints, GC and domain cold starts ------------------------------
    # A second checkpoint taken as a delta persists only what changed since
    # the base (the two queries above advanced counters and RNG state); the
    # chain restores transparently.  gc() reclaims snapshots nothing
    # references any more.
    with open_store(str(store_path)) as store:
        session.checkpoint(store, name="quickstart-later", base="quickstart")
        delta_bytes = store.size_bytes("checkpoint", "quickstart-later")
        full_bytes = store.size_bytes("checkpoint", "quickstart")
        print(f"delta checkpoint: {delta_bytes} B vs {full_bytes} B full "
              f"({delta_bytes / full_bytes:.0%})")
        report = store.gc()
        print(f"gc: {report.deleted_count} unreachable snapshots reclaimed, "
              f"{report.live} live")

        # Store-backed cold start: with a store attached, reconciliations
        # archive each domain's head; a restarted summary peer then installs
        # its global summary by hash lookup and pulls only the partners that
        # changed since, instead of re-merging every local summary.
        session.attach_store(store)
        system = session.system
        for sp_id, domain in system.domains.items():
            system.maintenance.reconcile(
                domain, local_summaries=system.local_summaries()
            )
        sp_id = max(session.domains, key=lambda d: len(session.domains[d].partner_ids))
        record = session.cold_start_domain(sp_id)
        print(f"cold start of {sp_id}: restored from snapshot "
              f"{str(record.restored_snapshot)[:12]}..., "
              f"{record.messages} ring messages instead of {record.full_messages}")
        # The session keeps using an attached store: detach before the
        # with-block closes the backend.
        session.detach_store()
    print()

    # -- serve a checkpoint over HTTP ----------------------------------------------
    # `repro serve` (or start_server, in-process) opens the checkpoint
    # *read-only*: one shared session answers query/staleness requests from
    # many concurrent clients, rolling its bookkeeping back after each request
    # so every answer is byte-identical to a fresh restore.  Hierarchies load
    # lazily — only the domains the queries touch are materialized.
    from repro import open_readonly_session
    from repro.serve import ServeClient, start_server

    readonly = open_readonly_session(
        str(store_path), name="quickstart", background=background
    )
    server = start_server(readonly, close_session_on_stop=True)
    client = ServeClient(server.url)
    served = client.query(query=crisp)
    fresh = SystemBuilder.from_checkpoint(
        str(store_path), name="quickstart", background=background
    )
    lazy_stats = client.stats()["lazy"]
    print(f"serve: daemon on {server.url} answering from the checkpoint")
    print(f"  served answer == local restore : {served == fresh.query(query=crisp)}")
    print(f"  hierarchies materialized       : {lazy_stats['fetches']} "
          f"(lazy; only what the query touched)")
    client.shutdown()   # responds, then stops the daemon cleanly
    client.close()      # the client kept one connection open for all of the above
    server.join(timeout=10.0)
    print()

    # -- fault injection: partitions, degraded-but-marked answers ------------------
    # A FaultPlan splits the overlay in half at t=60s and heals it at t=600s.
    # Mid-partition, queries still return — the DegradationReport names the
    # domains the originator could not reach, so a partial answer is never
    # mistaken for a complete one.  The empty plan is byte-identical to no
    # plan at all, so fault-free results are untouched.
    plan = FaultPlan(
        seed=9, partitions=[PartitionEvent(at=60.0, fraction=0.5, heal_at=600.0)]
    )
    stormy = (
        SystemBuilder()
        .topology(peer_count=32, average_degree=4)
        .planned_content(hit_rate=0.25)
        .faults(plan)
        .seed(9)
        .build()
    )
    stormy.run_until(120.0)
    # Pose the query from a peer the split actually cut off from some domain
    # (whether the *default* originator is cut off depends on where the seeded
    # split landed it).
    faults = stormy.system.faults
    cut_off = next(
        p
        for p in stormy.system.overlay.peer_ids
        if any(not faults.reachable(p, sp) for sp in stormy.system.domains)
    )
    mid = stormy.query(cut_off)
    report = mid.degradation
    print("fault injection: network split in two halves at t=60s")
    print(f"  mid-partition answer complete : {report.complete}")
    print(f"  unreachable domains           : {sorted(report.unreachable_domains)}")
    print(f"  probe messages charged        : {report.probe_messages}")
    stormy.run_until(700.0)
    healed = stormy.query()
    print(f"  after heal, answer complete   : {healed.degradation.complete}")
    print()

    # -- observing a run: metrics registry + structured tracing --------------------
    # Observability is opt-in and read-only over the protocol: installing it
    # changes no answer, no counter, no RNG draw (the identity suite pins this
    # byte-for-byte).  detail=True additionally records, on each query span,
    # what every domain it visited cost — listed by obs.ring.spans() as
    # route-domain and hierarchy-selection spans under the query; metrics are
    # always on once installed.
    from repro import Observability, span_tree

    obs = Observability.with_ring(detail=True)
    stormy.install_observability(obs)
    watched = stormy.query_batch(count=5)
    stormy.system.counter.to_metrics(obs.metrics)  # bridge message totals
    metrics = obs.metrics
    per_domain = metrics.histogram("repro_routing_messages_per_domain")
    roots = [s for s in obs.ring.spans() if s.name == "query"]
    children = span_tree(obs.ring.spans())
    print("observability: metrics + spans recorded, answers untouched")
    print(f"  queries recorded        : {metrics.value('repro_queries_total'):.0f}"
          f" (answered {sum(a.results for a in watched)} results)")
    print(f"  msgs/domain histogram   : n={per_domain.total_count}, "
          f"mean={per_domain.total_sum / per_domain.total_count:.1f}")
    print(f"  bridged message series  : "
          f"{len(metrics.counter_series('repro_messages_total'))} message types")
    print(f"  span tree of query #1   : "
          f"{len(children.get(roots[0].span_id, []))} routing spans under "
          f"'{roots[0].name}'")
    print(f"  /metrics exposition     : "
          f"{len(metrics.render_prometheus().splitlines())} lines of "
          f"Prometheus text format")
    print()

    # -- choosing a runtime: pluggable execution backends ---------------------------
    # Every session schedules through an ExecutionBackend.  The default
    # "simulator" drains events serially in one thread; "concurrent" overlaps
    # I/O-shaped waits (given an io_model pricing event labels in wall-clock
    # seconds) on asyncio mailboxes while draining the *virtual* events in the
    # same strict order — so answers, counters and RNG draws stay byte-equal.
    # A backend is an object passed to the builder's .runtime(...); without
    # an io_model there is no wait to overlap and both backends run alike.
    from repro.runtime import ConcurrentBackend, SimulatorBackend

    def io_model(label: str) -> float:
        # ~2ms of modelled network/disk wait per maintenance-shaped event.
        return 0.002 if label in ("modification", "departure", "rejoin") else 0.0

    def timed_run(runtime):
        session = (
            SystemBuilder()
            .topology(peer_count=32, average_degree=4)
            .planned_content(hit_rate=0.25)
            .modifications(1800.0, rate_per_peer_per_second=1.0 / 120.0)
            .runtime(runtime)
            .seed(3)
            .build()
        )
        started = time.perf_counter()
        session.run_until(1800.0)
        return time.perf_counter() - started, session.query_batch(count=3)

    serial_wall, serial_answers = timed_run(SimulatorBackend(io_model=io_model))
    overlap_wall, overlap_answers = timed_run(ConcurrentBackend(io_model=io_model))
    print("runtime: same run, two execution backends")
    print(f"  answers identical            : {serial_answers == overlap_answers}")
    print(f"  simulator (serial) wall      : {serial_wall:.3f}s")
    print(f"  concurrent (overlapped) wall : {overlap_wall:.3f}s")
    print()

    # -- supervised serving: a crash-safe multi-process fleet -----------------------
    # `repro serve --workers N` forks N worker *processes* (each its own
    # read-only restore of the checkpoint) behind one front port: the GIL no
    # longer caps throughput, and a worker crash costs nothing — the
    # supervisor retries the interrupted request on a live worker (safe:
    # answers are deterministic), restarts the dead one with capped backoff,
    # sheds load beyond --max-inflight with 503 + Retry-After, and fails
    # over-deadline requests typed instead of hanging.  An exact response
    # cache keyed by (canonical request, checkpoint digest) answers repeats
    # without touching a worker at all.
    from repro.serve import ChaosMonkey, Supervisor

    supervisor = Supervisor(
        str(store_path), name="quickstart", workers=2, background="medical"
    ).start()
    fleet = ServeClient(supervisor.url)
    fleet_answer = fleet.query(query=crisp)
    again = fleet.query(query=crisp)  # identical request: served from cache
    health = fleet.health()
    print(f"supervised serving: {health['workers_live']} worker processes "
          f"on {supervisor.url}")
    # `served` came from the single daemon and equalled a fresh local
    # restore; the fleet must answer identically again.
    print(f"  fleet answer == local restore : {fleet_answer == served}")
    print(f"  repeat hit the response cache : {health['cache']['hits'] >= 1} "
          f"(answers equal: {again == fleet_answer})")

    # Crash-safety, demonstrated: SIGKILL a worker mid-flight.  Completed
    # answers never change — the supervisor recovers the fleet underneath.
    killed = ChaosMonkey(supervisor, seed=1).kill_once()
    survived = fleet.query_batch(count=3)
    deadline = time.time() + 30.0
    while time.time() < deadline:
        health = fleet.health()
        if health["workers_live"] == 2 and health["restarts_total"] >= 1:
            break
        time.sleep(0.2)
    print(f"  SIGKILLed worker {killed} mid-run: answers kept flowing "
          f"({len(survived)} served), fleet back to "
          f"{health['workers_live']}/2 live after "
          f"{health['restarts_total']} restart(s)")
    fleet.shutdown()  # graceful drain: finish in-flight, then stop workers
    fleet.close()
    supervisor.join(timeout=30.0)


if __name__ == "__main__":
    main()
