"""Command-line interface for the experiment harness.

``python -m repro <command>`` regenerates the paper's tables and figures from
the terminal without going through pytest:

* ``tables``         — Tables 1/2 (running example) and Table 3 (parameters),
* ``fig4``           — stale answers vs. domain size,
* ``fig5``           — false negatives vs. domain size,
* ``fig6``           — update messages vs. domain size,
* ``fig7``           — query cost vs. number of peers,
* ``fault-sweep``    — answer quality and overhead vs. injected fault
  intensity (``--intensities 0,0.05,0.1,0.2``): per-link loss plus a growing
  partition window; the zero column is the fault-free baseline,
* ``all``            — everything above (fig4–fig6 read one maintenance sweep),
* ``list-scenarios`` — the named scenarios of the registry,
* ``run-scenario``   — build a named scenario through ``SystemBuilder``,
  simulate its churn horizon and pose a query batch
  (``python -m repro run-scenario smoke --queries 10``),
* ``save-session``   — build a named scenario and checkpoint it into a store,
  optionally mid-simulation (``--hours`` picks the checkpoint time inside the
  scenario's horizon): ``python -m repro save-session smoke --store
  runs.sqlite --hours 0.5``; with ``--base <name>`` only the changes since an
  earlier checkpoint are stored (a delta checkpoint),
* ``load-session``   — restore a checkpointed session (delta chains resolve
  transparently), run it to its horizon and pose a query batch
  (``python -m repro load-session --store runs.sqlite``),
* ``serve``          — open a checkpoint read-only and answer query/staleness
  requests over HTTP/JSON until stopped (``python -m repro serve --store
  runs.sqlite --name session --port 8123``); hierarchies load lazily, answers
  are byte-identical to a local restore of the same checkpoint,
* ``inspect-store``  — list the checkpoints (full or delta) and
  content-addressed snapshots of a store; ``--compact`` folds delta
  checkpoint chains into fresh full checkpoints; ``--gc`` reclaims snapshots
  no checkpoint, delta chain or domain head references (``--gc-dry-run``
  only reports them),
* ``metrics``        — fetch a running daemon's ``/metrics`` page
  (``python -m repro metrics --url http://127.0.0.1:8123``); Prometheus
  text, or parsed series with ``--json``,
* ``trace``          — tail a running daemon's trace ring
  (``python -m repro trace --url http://127.0.0.1:8123 --limit 50``).

Observability: ``serve`` is instrumented by default (disable with
``--no-obs``); ``run-scenario`` and ``fault-sweep`` accept ``--metrics-out
PATH`` (Prometheus text artifact) and ``--trace-out PATH`` (JSONL span
artifact) to record what a run did.

Query batches (``run-scenario``/``load-session`` ``--queries N``) run through
``NetworkSession.query_batch``: the same indexed, memoized query path as a
single ``query``, once per request.

``fig4`` / ``fig5`` / ``fig6`` take ``--sizes`` / ``--hours`` / ``--seed``
overrides, and ``fig4`` / ``fig6`` also ``--alphas`` (``fig5`` plots α = 0.3
and rejects it); ``fig7`` takes ``--sizes`` / ``--queries`` / ``--seed``;
``fault-sweep`` takes ``--intensities`` / ``--seed``; ``all`` passes each of
them on.  ``run-scenario`` and ``save-session`` take ``--hours`` / ``--seed``
/ ``--peers`` / ``--alpha`` / ``--hit-rate``.  Every command but ``serve``
takes ``--json`` to emit machine-readable output.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.session import NetworkSession

from repro.reporting import ExperimentTable


def _parse_list(raw: str, convert: Callable[[str], object], what: str) -> list:
    """An option's comma-separated value; argparse reports what this raises."""
    try:
        values = [convert(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"invalid {what} list {raw!r}")
    return values


def _parse_sizes(raw: str) -> List[int]:
    return _parse_list(raw, int, "size")


def _parse_alphas(raw: str) -> List[float]:
    return _parse_list(raw, float, "number")


def _parse_limit(raw: str) -> int:
    if not (raw.isascii() and raw.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid span count {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Summary Management in P2P Systems' (EDBT 2008).",
    )
    parser.add_argument(
        "command",
        choices=[
            "tables",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fault-sweep",
            "all",
            "list-scenarios",
            "run-scenario",
            "save-session",
            "load-session",
            "inspect-store",
            "serve",
            "metrics",
            "trace",
        ],
        help="which table/figure to regenerate, or a scenario/store command",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="scenario name for run-scenario/save-session (see list-scenarios)",
    )
    parser.add_argument(
        "--store",
        help="session store: a directory of JSON files, or a .sqlite path "
        "(save-session / load-session / inspect-store)",
    )
    parser.add_argument(
        "--name",
        default="session",
        help="checkpoint name inside the store (default: session)",
    )
    parser.add_argument(
        "--base",
        help="store a delta checkpoint against this earlier checkpoint "
        "(save-session): only the changes since BASE are persisted",
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help="fold every delta checkpoint's chain into a fresh full "
        "checkpoint (inspect-store); restores are unchanged, the chain's "
        "earlier links become GC-reclaimable",
    )
    parser.add_argument(
        "--gc",
        action="store_true",
        help="collect unreachable snapshots while inspecting the store "
        "(inspect-store); everything a checkpoint, delta chain or domain "
        "head references is kept",
    )
    parser.add_argument(
        "--gc-dry-run",
        action="store_true",
        help="like --gc but only report what a collection would reclaim",
    )
    parser.add_argument(
        "--peers",
        type=int,
        help="override the scenario's network size (run-scenario)",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        help="override the scenario's freshness threshold (run-scenario)",
    )
    parser.add_argument(
        "--hit-rate",
        type=float,
        help="override the scenario's query hit rate (run-scenario)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serve: supervise WORKERS worker processes behind one front "
        "port, forked from one read-only restore (default: 1 = serve "
        "in-process; >1 enables crash-safe multi-process serving with "
        "deadlines, load shedding and restart-on-crash)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=10_000.0,
        help="serve --workers: per-request deadline in milliseconds; a "
        "request over budget fails typed with HTTP 504 (default: 10000)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="serve --workers: bound on concurrently executing requests; "
        "beyond it requests are shed with HTTP 503 + Retry-After "
        "(default: 32)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="serve --workers: capacity of the exact response cache keyed "
        "by (canonical request, checkpoint digest); 0 disables "
        "(default: 256)",
    )
    parser.add_argument(
        "--intensities",
        type=_parse_alphas,
        default=[0.0, 0.05, 0.1, 0.2],
        help="comma-separated fault intensities for fault-sweep "
        "(default: 0,0.05,0.1,0.2)",
    )
    parser.add_argument(
        "--sizes",
        type=_parse_sizes,
        help="comma-separated domain/network sizes (defaults: the paper's, "
        "fig4-fig6 16,100,500,1000,2000,5000, fig7 "
        "16,100,500,1000,2000,3500,5000)",
    )
    parser.add_argument(
        "--alphas",
        type=_parse_alphas,
        help="comma-separated freshness thresholds for fig4 and fig6; all "
        "passes them to fig4 and fig6 (defaults: fig4 0.1,0.3,0.8, fig6 "
        "0.3,0.8; fig5 plots 0.3 and rejects this option)",
    )
    parser.add_argument(
        "--hours",
        type=float,
        help="simulated hours (figures default: 6; run-scenario defaults to "
        "the scenario's own horizon; for save-session this is the checkpoint "
        "time within the scenario's horizon)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=20,
        help="queries per network size for fig7, and the query batch of "
        "run-scenario / load-session (default: 20)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="simulation seed (figures default: 0; run-scenario defaults to "
        "the scenario's own seed)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for serve (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8123,
        help="bind port for serve (default: 8123; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--background",
        help="serve: named background knowledge a real-content checkpoint "
        "needs (e.g. 'medical'); planned checkpoints need none",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="serve without metrics/tracing (/metrics and /trace return errors)",
    )
    parser.add_argument(
        "--url",
        help="base URL of a running daemon for the metrics/trace commands "
        "(default: http://HOST:PORT from --host/--port)",
    )
    parser.add_argument(
        "--limit",
        type=_parse_limit,
        help="span count for trace: only the newest LIMIT (>= 0) spans are fetched",
    )
    parser.add_argument(
        "--metrics-out",
        help="write a Prometheus text-format metrics artifact after the run "
        "(run-scenario / fault-sweep)",
    )
    parser.add_argument(
        "--trace-out",
        help="record spans to a JSONL trace artifact during the run "
        "(run-scenario / fault-sweep)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text tables"
    )
    return parser


def _emit(tables: Sequence[ExperimentTable], as_json: bool) -> None:
    for table in tables:
        if as_json:
            print(table.to_json())
        else:
            print(table.to_text())
            print()


def _maintenance_figures(
    sizes: Optional[List[int]],
    alphas: Optional[List[float]],
    duration: float,
    seed: int,
) -> List[ExperimentTable]:
    """Figures 4, 5 and 6 read from one maintenance sweep (``all``)."""
    from repro.experiments.fig4_stale_answers import figure4_table
    from repro.experiments.fig5_false_negatives import FIGURE5_ALPHA, figure5_table
    from repro.experiments.fig6_update_cost import FIGURE6_ALPHAS, figure6_table
    from repro.experiments.runner import maintenance_sweep
    from repro.workloads.scenarios import DEFAULT_ALPHAS, DEFAULT_DOMAIN_SIZES

    sizes = sizes or DEFAULT_DOMAIN_SIZES
    fig4_alphas = alphas or DEFAULT_ALPHAS
    fig6_alphas = alphas or FIGURE6_ALPHAS
    swept = list(dict.fromkeys([*fig4_alphas, FIGURE5_ALPHA, *fig6_alphas]))
    runs = {
        (run.scenario.alpha, run.scenario.peer_count): run
        for run in maintenance_sweep(sizes, swept, duration, seed)
    }

    def pick(chosen: List[float]) -> list:
        return [runs[alpha, size] for alpha in chosen for size in sizes]

    return [
        figure4_table(pick(fig4_alphas), duration, seed),
        figure5_table(pick([FIGURE5_ALPHA]), FIGURE5_ALPHA, duration, seed),
        figure6_table(pick(fig6_alphas), duration, seed),
    ]


def _list_scenarios_table() -> ExperimentTable:
    from repro.workloads.registry import default_registry

    registry = default_registry()
    table = ExperimentTable(
        name="Registered scenarios",
        columns=["name", "description"],
        expectation="build any of these with: repro run-scenario <name>",
    )
    for name in registry.names():
        table.add_row(name=name, description=registry.describe(name))
    return table


def _scenario_from_args(args: argparse.Namespace, include_hours: bool = True):
    from repro.workloads.registry import default_registry

    registry = default_registry()
    # Only explicitly passed flags override the scenario's own declaration.
    overrides: Dict[str, object] = {}
    if include_hours and args.hours is not None:
        overrides["duration_seconds"] = args.hours * 3600.0
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.peers is not None:
        overrides["peer_count"] = args.peers
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.hit_rate is not None:
        overrides["matching_fraction"] = args.hit_rate
    return registry.scenario(args.scenario, **overrides)


def _session_report_table(
    session: "NetworkSession",
    name: str,
    query_count: int,
    expectation: str,
    parameters: Dict[str, object],
) -> ExperimentTable:
    """Run a session to its horizon, pose queries, and tabulate the outcome."""
    session.run_until()
    required = None
    if session.planned:
        fraction = session.content.matching_fraction  # type: ignore[union-attr]
        required = max(1, round(fraction * session.overlay.size))
    answers = session.query_batch(count=query_count, required_results=required)
    maintenance = session.maintenance_report()
    traffic = session.traffic()

    queries = len(answers)
    stale_fractions = [
        answer.staleness.worst_stale_fraction
        for answer in answers
        if answer.staleness is not None and answer.staleness.relevant_count
    ]
    horizon = session.horizon if session.horizon is not None else session.now
    table = ExperimentTable(
        name=name,
        columns=[
            "peers",
            "domains",
            "simulated_hours",
            "queries",
            "mean_results",
            "mean_query_messages",
            "mean_worst_stale_fraction",
            "push_messages",
            "reconciliations",
            "update_messages_per_node",
            "query_messages_total",
        ],
        expectation=expectation,
        parameters=parameters,
    )
    table.add_row(
        peers=session.overlay.size,
        domains=len(session.domains),
        simulated_hours=horizon / 3600.0,
        queries=queries,
        mean_results=(
            sum(a.results for a in answers) / queries if queries else 0.0
        ),
        mean_query_messages=(
            sum(a.query_messages for a in answers) / queries if queries else 0.0
        ),
        mean_worst_stale_fraction=(
            sum(stale_fractions) / len(stale_fractions) if stale_fractions else 0.0
        ),
        push_messages=maintenance.push_messages,
        reconciliations=maintenance.reconciliations,
        update_messages_per_node=maintenance.messages_per_node,
        query_messages_total=traffic.query.total_messages,
    )
    return table


def _observability_from_args(args: argparse.Namespace):
    """Build the run's instrumentation, or None when no artifact was asked for."""
    if not (args.metrics_out or args.trace_out):
        return None
    from repro.obs import Observability

    if args.trace_out:
        return Observability.with_jsonl(args.trace_out)
    return Observability.with_ring()


def _write_obs_artifacts(args: argparse.Namespace, obs) -> None:
    if obs is None:
        return
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.metrics.render_prometheus())
        print(f"wrote metrics artifact to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        print(f"wrote trace artifact to {args.trace_out}", file=sys.stderr)
    obs.close()


def _run_scenario_table(args: argparse.Namespace) -> ExperimentTable:
    from repro.workloads.registry import default_registry

    scenario = _scenario_from_args(args)
    session = scenario.apply_dynamics(scenario.builder()).build()
    obs = _observability_from_args(args)
    if obs is not None:
        session.install_observability(obs)
    table = _session_report_table(
        session,
        name=f"Scenario {args.scenario!r}",
        query_count=args.queries,
        expectation=default_registry().describe(args.scenario),
        parameters={
            "alpha": scenario.alpha,
            "hit_rate": scenario.matching_fraction,
            "seed": scenario.seed,
        },
    )
    if obs is not None:
        session.system.counter.to_metrics(obs.metrics)
        _write_obs_artifacts(args, obs)
    return table


def _save_session_table(args: argparse.Namespace) -> ExperimentTable:
    from repro.store import SnapshotStore, open_store
    from repro.store.checkpoint import CHECKPOINT_KIND

    # For save-session, --hours picks the *checkpoint time* inside the
    # scenario's own horizon (a mid-simulation snapshot), it does not shorten
    # the scenario: the remaining schedule is captured and load-session
    # continues it to the original horizon.
    scenario = _scenario_from_args(args, include_hours=False)
    session = scenario.apply_dynamics(scenario.builder()).build()
    if args.hours is not None:
        at = args.hours * 3600.0
        if session.horizon is not None:
            at = min(at, session.horizon)
        session.run_until(at)
    kind = "Delta checkpoint" if args.base else "Checkpoint"
    table = ExperimentTable(
        name=f"{kind} {args.name!r}",
        columns=["store", "checkpoint", "base", "peers", "domains", "at_hours", "bytes"],
        expectation="resume with: repro load-session --store "
        f"{args.store} --name {args.name}",
        parameters={"scenario": args.scenario, "seed": scenario.seed},
    )
    with open_store(args.store) as backend:
        session.checkpoint(backend, name=args.name, base=args.base)
        table.add_row(
            store=backend.location(),
            checkpoint=args.name,
            base=args.base or "-",
            peers=session.overlay.size,
            domains=len(session.domains),
            at_hours=session.now / 3600.0,
            bytes=backend.size_bytes(CHECKPOINT_KIND, args.name)
            + SnapshotStore(backend).size_bytes(),
        )
    return table


def _load_session_table(args: argparse.Namespace) -> ExperimentTable:
    from repro.store.checkpoint import restore_session

    session = restore_session(args.store, name=args.name)
    return _session_report_table(
        session,
        name=f"Restored session {args.name!r}",
        query_count=args.queries,
        expectation=f"session resumed from {args.store}",
        parameters={"store": args.store, "name": args.name},
    )


def _inspect_store_table(args: argparse.Namespace) -> ExperimentTable:
    from repro.store import CHECKPOINT_KIND, collect_garbage, open_store

    table = ExperimentTable(
        name=f"Store {args.store}",
        columns=["kind", "key", "bytes", "details"],
        expectation="checkpoints restore with load-session; snapshots are "
        "content-addressed summary hierarchies (shared across checkpoints); "
        "--gc reclaims snapshots nothing references",
    )
    with open_store(args.store) as backend:
        if args.compact:
            from repro.store import compact_checkpoints

            compacted = compact_checkpoints(backend)
            table.add_row(
                kind="compact",
                key="report",
                bytes=0,
                details=(
                    f"compacted {len(compacted)} delta checkpoint(s): "
                    + (", ".join(compacted) or "-")
                ),
            )
        if args.gc or args.gc_dry_run:
            report = collect_garbage(backend, dry_run=args.gc_dry_run)
            action = "would reclaim" if report.dry_run else "reclaimed"
            table.add_row(
                kind="gc",
                key="report",
                bytes=report.reclaimed_bytes,
                details=f"{action} {report.deleted_count} of {report.scanned} "
                f"snapshots ({report.live} live)",
            )
        for kind in backend.kinds():
            for key in backend.keys(kind):
                details = ""
                if kind == CHECKPOINT_KIND:
                    document = backend.get(kind, key)
                    base = document.get("base")
                    details = f"delta of {base}" if base else "full checkpoint"
                table.add_row(
                    kind=kind,
                    key=key,
                    bytes=backend.size_bytes(kind, key),
                    details=details,
                )
    return table


def _serve(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.serve.server import background_from_name, serve_checkpoint

    if args.workers < 1:
        raise ConfigurationError(
            f"--workers needs at least 1 process, got {args.workers}"
        )
    # Resolved before any worker is spawned: an unknown name is a usage error.
    background = background_from_name(args.background)
    if args.workers > 1:
        return _serve_supervised(args)

    def banner(server) -> str:
        session = server.session
        endpoints = "" if args.no_obs else "; metrics on /metrics, spans on /trace"
        return (
            f"serving checkpoint {args.name!r} from {args.store} on {server.url} "
            f"({session.overlay.size} peers, {len(session.domains)} domains; "
            f"Ctrl-C or POST /shutdown to stop{endpoints})"
        )

    return serve_checkpoint(
        args.store,
        args.name,
        args.host,
        args.port,
        banner,
        background=background,
        observe=not args.no_obs,
        quiet=False,
    )


def _serve_supervised(args: argparse.Namespace) -> int:
    from repro.serve.supervisor import Supervisor

    supervisor = Supervisor(
        args.store,
        name=args.name,
        workers=args.workers,
        host=args.host,
        port=args.port,
        deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        cache_size=args.cache_size,
        background=args.background,
        quiet=False,
    )
    supervisor.start()
    print(
        f"supervising {args.workers} workers over checkpoint {args.name!r} "
        f"from {args.store} on {supervisor.url} "
        f"(deadline {args.deadline_ms:g}ms, max {args.max_inflight} in flight, "
        f"cache {args.cache_size}; Ctrl-C or POST /shutdown to stop; "
        f"fleet metrics on /metrics, liveness on /health)"
    )
    try:
        supervisor.join()
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
    return 0


def _fault_sweep_table(args: argparse.Namespace) -> ExperimentTable:
    from repro.experiments import run_fault_sweep

    obs = _observability_from_args(args)
    table = run_fault_sweep(
        intensities=args.intensities,
        seed=args.seed,
        observability=obs,
    )
    _write_obs_artifacts(args, obs)
    return table


def _daemon_url(args: argparse.Namespace) -> str:
    return args.url or f"http://{args.host}:{args.port}"


def _metrics(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.registry import parse_prometheus
    from repro.serve.client import ServeClient

    with ServeClient(_daemon_url(args)) as client:
        text = client.metrics()
    if args.json:
        print(json_module.dumps(parse_prometheus(text), indent=2, sort_keys=True))
    else:
        print(text, end="")
    return 0


def _trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.serve.client import ServeClient

    with ServeClient(_daemon_url(args)) as client:
        payload = client.trace(limit=args.limit)
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        spans = payload["spans"]
        print(f"{len(spans)} span(s) in ring, {payload['emitted']} emitted total")
        for span in spans:
            parent = f" parent={span['parent_id']}" if span.get("parent_id") else ""
            print(
                f"  {span['trace_id']} {span['span_id']}{parent} "
                f"{span['name']} sim={span['start_sim']:.3f}s "
                f"wall={span['end_wall'] - span['start_wall']:.6f}s "
                f"attrs={span['attrs']}"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    takes_scenario = {"run-scenario", "save-session"}
    if args.command not in takes_scenario and args.scenario is not None:
        parser.error(
            f"unexpected argument {args.scenario!r}: only run-scenario and "
            "save-session take a scenario name"
        )
    if args.command in {"save-session", "load-session", "inspect-store", "serve"} and (
        not args.store
    ):
        parser.error(f"{args.command} requires --store PATH")
    if args.command == "serve":
        from repro.exceptions import ConfigurationError, StoreError

        try:
            return _serve(args)
        except (ConfigurationError, StoreError) as exc:
            parser.error(str(exc))
    if args.command in {"metrics", "trace"}:
        from repro.exceptions import ServeError

        try:
            return {"metrics": _metrics, "trace": _trace}[args.command](args)
        except ServeError as exc:
            parser.error(str(exc))
    if args.command == "list-scenarios":
        _emit([_list_scenarios_table()], args.json)
        return 0
    if args.command in {"run-scenario", "save-session", "load-session", "inspect-store"}:
        if args.command in takes_scenario and not args.scenario:
            parser.error(
                f"{args.command} requires a scenario name (see list-scenarios)"
            )
        from repro.exceptions import ConfigurationError, StoreError

        handlers = {
            "run-scenario": _run_scenario_table,
            "save-session": _save_session_table,
            "load-session": _load_session_table,
            "inspect-store": _inspect_store_table,
        }
        try:
            table = handlers[args.command](args)
        except (ConfigurationError, StoreError) as exc:
            parser.error(str(exc))
        _emit([table], args.json)
        return 0

    if args.command == "fig5" and args.alphas is not None:
        parser.error("fig5 plots alpha 0.3 only; --alphas applies to fig4 and fig6")
    sizes, alphas = args.sizes, args.alphas
    hours = args.hours if args.hours is not None else 6.0
    duration = hours * 3600.0
    args.seed = args.seed if args.seed is not None else 0
    from repro.experiments import run_figure4, run_figure5, run_figure6, run_figure7
    from repro.experiments import run_table1_table2, run_table3

    commands: Dict[str, Callable[[], List[ExperimentTable]]] = {
        "tables": lambda: [run_table1_table2(), run_table3()],
        "fig4": lambda: [
            run_figure4(
                domain_sizes=sizes,
                alphas=alphas,
                duration_seconds=duration,
                seed=args.seed,
            )
        ],
        "fig5": lambda: [
            run_figure5(
                domain_sizes=sizes,
                duration_seconds=duration,
                seed=args.seed,
            )
        ],
        "fig6": lambda: [
            run_figure6(
                domain_sizes=sizes,
                alphas=alphas,
                duration_seconds=duration,
                seed=args.seed,
            )
        ],
        "fig7": lambda: [
            run_figure7(
                network_sizes=sizes,
                queries_per_size=args.queries,
                seed=args.seed,
            )
        ],
        "fault-sweep": lambda: [_fault_sweep_table(args)],
    }

    if args.command == "all":
        tables = [
            *commands["tables"](),
            *_maintenance_figures(sizes, alphas, duration, args.seed),
            *commands["fig7"](),
            *commands["fault-sweep"](),
        ]
    else:
        tables = commands[args.command]()

    _emit(tables, args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
