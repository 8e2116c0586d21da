"""The four workloads: what each one is, and its inputs as a function of a seed.

The program only ever receives what is generated here — an overlay, per-peer
databases, a builder expression, a request stream.  Sizes are for
``--scale full``; ``tiny`` shrinks every dimension for the tier-1 smoke test.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional

from repro.core.session import NetworkSession, SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.runtime import ConcurrentBackend
from repro.workloads import MedicalWorkload, QueryWorkload, build_peer_databases
from repro.workloads.registry import default_registry

from benchmarks.perf.tracing import Recorder

#: Wall-clock cost W4 models per maintenance-shaped event, and which events.
IO_COST_SECONDS = 0.002
IO_LABELS = frozenset({"modification", "departure", "rejoin"})

#: A request is the keyword arguments of ``session.query`` / ``client.query``.
Request = Dict[str, Any]


def io_model(label: str) -> float:
    return IO_COST_SECONDS if label in IO_LABELS else 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    peers: int
    #: "planned" (Table 3, no hierarchies) or "medical" (real summaries).
    content: str
    horizon_s: float
    #: Data modifications per peer per second (0 keeps the scenario default).
    modification_rate: float
    #: "simulator", or "concurrent" with the 2 ms I/O model.
    runtime: str
    #: "daemon" (``python -m repro.serve.worker``) or "fleet"
    #: (``python -m repro serve --workers 2``).
    serve: str
    clients: int
    #: Served requests per round, split evenly over the clients.
    served_requests: int
    #: Distinct requests to draw from; Zipf-distributed when ``zipf_s`` > 0,
    #: otherwise the clients walk the pool in order, round after round.
    request_pool: int
    zipf_s: float
    local_queries: int
    min_rounds: int
    records_per_peer: int = 0
    #: Served before anything is timed, so the fleet's response cache is full.
    warmup_requests: int = 0
    #: How often the daemon is set up (inputs generated, process spawned until
    #: ``/health`` answers); ``setup_s`` is the median.  The last one serves.
    setup_repeats: int = 3

    @property
    def planned(self) -> bool:
        return self.content == "planned"

    @property
    def background_name(self) -> Optional[str]:
        return None if self.planned else "medical"


#: Why each workload exists is recorded in ``BENCHMARK.json`` (and the README).
WORKLOADS: List[Workload] = [
    Workload(
        name="table3-planned-2000",
        peers=2000,
        content="planned",
        horizon_s=6 * 3600.0,
        modification_rate=0.0,
        runtime="simulator",
        serve="daemon",
        clients=1,
        served_requests=40,
        request_pool=200,
        zipf_s=0.0,
        local_queries=30,
        min_rounds=4,
    ),
    Workload(
        name="medical-real-32",
        peers=32,
        content="medical",
        horizon_s=3600.0,
        modification_rate=1.0 / 600.0,
        runtime="simulator",
        serve="daemon",
        clients=1,
        served_requests=100,
        request_pool=250,
        zipf_s=0.0,
        local_queries=200,
        min_rounds=3,
        records_per_peer=40,
    ),
    Workload(
        name="serve-fleet-zipf-2000",
        peers=2000,
        content="planned",
        horizon_s=6 * 3600.0,
        modification_rate=0.0,
        runtime="simulator",
        serve="fleet",
        clients=2,
        served_requests=240,
        request_pool=1024,
        zipf_s=1.1,
        local_queries=30,
        min_rounds=4,
        warmup_requests=720,
    ),
    Workload(
        name="io-maintenance-64",
        peers=64,
        content="planned",
        horizon_s=2 * 3600.0,
        modification_rate=1.0 / 600.0,
        runtime="concurrent",
        serve="daemon",
        clients=1,
        served_requests=100,
        request_pool=200,
        zipf_s=0.0,
        local_queries=100,
        min_rounds=10,
    ),
]


def find_workload(name: str, scale: str = "full") -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload if scale == "full" else _tiny(workload)
    known = ", ".join(w.name for w in WORKLOADS)
    raise SystemExit(f"unknown workload {name!r}; workloads: {known}")


def _tiny(workload: Workload) -> Workload:
    """Same shape, smoke-test size: every phase still runs, in about a second."""
    fleet = workload.serve == "fleet"
    return replace(
        workload,
        peers=16 if workload.content == "medical" else 48,
        horizon_s=workload.horizon_s / 6.0,
        served_requests=48 if fleet else 12,
        request_pool=32 if fleet else 12,
        local_queries=12,
        min_rounds=1,
        records_per_peer=10 if workload.records_per_peer else 0,
        warmup_requests=0,
        setup_repeats=1,
    )


# -- inputs -----------------------------------------------------------------------


@dataclass
class Inputs:
    overlay: Overlay
    databases: Optional[Dict[str, Any]]
    background: Any
    topology_s: float
    databases_s: float


def make_inputs(workload: Workload, seed: int, rec: Recorder) -> Inputs:
    """Generate the overlay (and databases) the builder will be handed."""
    with rec.span("network.topology.generate") as topology:
        overlay = Overlay.generate(
            TopologyConfig(peer_count=workload.peers, average_degree=4, seed=seed)
        )
    with rec.span("workloads.build_peer_databases") as generation:
        databases = None
        if not workload.planned:
            databases = build_peer_databases(
                overlay.peer_ids,
                MedicalWorkload(
                    records_per_peer=workload.records_per_peer,
                    matching_fraction=0.2,
                    seed=seed,
                ),
            )
    background = None if workload.planned else medical_background_knowledge()
    return Inputs(
        overlay, databases, background, topology.seconds, generation.seconds
    )


def declare(
    workload: Workload, seed: int, inputs: Inputs, runtime: Any = None
) -> SystemBuilder:
    """The builder expression of a workload; ``.build()`` is the timed part.

    ``runtime`` overrides the workload's backend (W4's simulator replay).
    """
    if runtime is None:
        runtime = (
            ConcurrentBackend(
                io_model=io_model, quantum_seconds=120.0, max_concurrency=16
            )
            if workload.runtime == "concurrent"
            else "simulator"
        )
    if workload.planned:
        scenario = default_registry().scenario(
            "table3-default",
            peer_count=workload.peers,
            duration_seconds=workload.horizon_s,
            seed=seed,
        )
        builder = scenario.builder().topology(inputs.overlay).runtime(runtime)
        if workload.modification_rate > 0:
            return scenario.apply_dynamics(
                builder, modification_rate_per_peer=workload.modification_rate
            )
        return scenario.apply_dynamics(builder)
    return (
        SystemBuilder()
        .topology(inputs.overlay)
        .background(inputs.background)
        .protocol(superpeer_fraction=1.0 / 16.0, construction_ttl=3)
        .real_content(inputs.databases)
        .modifications(workload.horizon_s, workload.modification_rate)
        .runtime(runtime)
        .seed(seed)
    )


# -- requests ---------------------------------------------------------------------


def make_request_pool(
    workload: Workload, seed: int, session: NetworkSession
) -> List[Request]:
    """The distinct requests of a workload, posed from online partner peers."""
    rng = random.Random(seed * 7919 + 1)
    online = session.overlay.online_ids
    originators = [p for p in session.partner_ids() if p in online]
    if workload.planned:
        required = max(1, round(0.1 * workload.peers))
        query_ids = rng.sample(range(1_000_000, 2_000_000), workload.request_pool)
        return [
            {
                "originator": rng.choice(originators),
                "query_id": query_id,
                "required_results": required,
            }
            for query_id in query_ids
        ]
    # Real content: the paper's 200-query stream, cycled — the first pass over
    # a query is cold in the hierarchies' selection caches, later passes warm.
    queries = QueryWorkload(query_count=200, seed=seed).generate()
    return [
        {"originator": rng.choice(originators), "query": query}
        for query in itertools.islice(
            itertools.cycle(queries), workload.request_pool
        )
    ]


def served_stream(workload: Workload, seed: int, client: int) -> Iterator[int]:
    """The pool indices one client sends, in order and without end (closed loop).

    Zipf draws when the workload says so; otherwise the client walks its share
    of the pool (every ``clients``-th request), again and again.
    """
    if workload.zipf_s <= 0:
        yield from itertools.cycle(range(client, workload.request_pool, workload.clients))
        return
    weights = [1.0 / (rank ** workload.zipf_s) for rank in range(1, workload.request_pool + 1)]
    cumulative = list(itertools.accumulate(weights))
    rng = random.Random(seed * 7919 + 2 + client)
    while True:
        yield bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
