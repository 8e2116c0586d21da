"""repro — reproduction of "Summary Management in P2P Systems" (EDBT 2008).

The library combines a SaintEtiQ-style database summarization engine with a
hybrid (superpeer) P2P overlay: peers maintain local summaries of their
relational data, domains merge them into global summaries, and queries are
routed (or answered approximately) through those summaries.

Quick tour of the public API
----------------------------

A whole network is declared with :class:`SystemBuilder` and driven through
the :class:`NetworkSession` it builds; every query returns a typed
:class:`QueryAnswer`:

>>> from repro import SystemBuilder
>>> session = (
...     SystemBuilder()
...     .topology(peer_count=32, average_degree=4)
...     .planned_content(hit_rate=0.25)
...     .seed(7)
...     .build()
... )
>>> answer = session.query()
>>> answer.results >= 1
True
>>> answer.total_messages >= answer.results
True
>>> answer.staleness is not None  # planned mode bundles staleness accounting
True

``query_batch`` poses several queries in one call — ``query`` once per
request, in order.  What queries share is kept by the session itself, not by
the batch: the maintained ``P_old`` and partner sets, each domain's derived
routing sets (valid until the overlay, the cooperation list or the described
set changes) and the hierarchies' inverted-index selection caches:

>>> answers = session.query_batch(count=3, required_results=2)
>>> [a.results >= 2 for a in answers]
[True, True, True]
>>> answers[0].query_id + 1 == answers[1].query_id  # ids allocated in order
True

Sessions persist through the ``repro.store`` subsystem: ``checkpoint()``
captures the full session state (a store is a directory of JSON files, a
single SQLite file, or in-memory), and ``SystemBuilder.from_checkpoint``
resumes it byte-identically — the resumed session routes the next query
exactly as the original would have:

>>> from repro import InMemoryBackend
>>> store = InMemoryBackend()
>>> session.checkpoint(store)
'session'
>>> resumed = SystemBuilder.from_checkpoint(store)
>>> resumed.query().routing == session.query().routing
True

Checkpoints can be *incremental*: ``base=`` persists only what changed since
an earlier checkpoint (a structural delta, restored transparently through
its base chain), and ``store.gc()`` reclaims content-addressed snapshots no
retained checkpoint or domain head references any more:

>>> session.checkpoint(store, name="later", base="session")
'later'
>>> SystemBuilder.from_checkpoint(store, name="later").now == session.now
True
>>> store.gc().deleted_count  # everything is still referenced
0

Networks fail; the protocol answers anyway.  A seeded :class:`FaultPlan`
injects partitions, link loss and mass departures into the run
(the empty plan is byte-identical to no plan at all), and every answer
carries a :class:`DegradationReport` stating exactly which domains could not
be reached — a partial answer is always *marked*, never silently incomplete:

>>> from repro import FaultPlan, PartitionEvent
>>> plan = FaultPlan(
...     seed=5,
...     partitions=[PartitionEvent(at=60.0, fraction=0.5, heal_at=600.0)],
... )
>>> stormy = (
...     SystemBuilder()
...     .topology(peer_count=32, average_degree=4)
...     .planned_content(hit_rate=0.25)
...     .faults(plan)
...     .seed(7)
...     .build()
... )
>>> _ = stormy.run_until(120.0)  # mid-partition
>>> report = stormy.query().degradation
>>> visited = set(stormy.system.domains) - set(report.unreachable_domains)
>>> visited | set(report.unreachable_domains) == set(stormy.system.domains)
True
>>> _ = stormy.run_until(700.0)  # healed
>>> stormy.query().degradation.complete
True

A checkpoint can also be **served**: :func:`open_readonly_session` opens it
as one shared read-only session (mutations raise, hierarchies load lazily
from the snapshot store on first touch), and the ``repro.serve`` daemon
answers query and staleness requests over HTTP/JSON byte-identically to a
local restore of the same checkpoint:

>>> from repro import open_readonly_session
>>> from repro.serve import ServeClient, start_server
>>> server = start_server(open_readonly_session(store), close_session_on_stop=True)
>>> client = ServeClient(server.url)
>>> client.health()["status"]
'ok'
>>> client.query_batch(count=2) == SystemBuilder.from_checkpoint(store).query_batch(count=2)
True
>>> client.shutdown()["status"]
'shutting down'
>>> client.close()  # the client keeps its connection open until told
>>> server.join(timeout=10.0)

One process is GIL-bound; serving scales past it with a **supervised
worker fleet**: ``repro serve --store run.sqlite --workers 4`` restores the
checkpoint read-only once, forks four worker processes from that restore
behind one front port, health-checks them, restarts crashes with capped exponential backoff,
sheds load beyond ``--max-inflight`` (HTTP 503 + ``Retry-After``),
fails over-deadline requests typed (HTTP 504), and answers repeated
requests from an exact response cache keyed by (canonical request,
checkpoint digest) — provably safe because answers are deterministic.
A request interrupted by a worker crash is retried on a live worker or
fails typed; it never returns a wrong or truncated answer:

>>> from repro.serve import ResponseCache, Supervisor
>>> Supervisor("run.sqlite", workers=4).backoff_delay(3)  # capped 2**n
0.8
>>> cache = ResponseCache(capacity=64, checkpoint="digest")
>>> cache.store("POST", "/query", b'{"count": 1}', 200, "application/json", b"...")
>>> cache.lookup("POST", "/query", b'{"count":1}')  # canonical: same entry
(200, 'application/json', b'...')

Every layer is **observable** through ``repro.obs``: an opt-in, deterministic
metrics registry plus structured tracing.  ``install_observability`` never
changes what a session computes — with observability absent the code paths
are byte-identical — it only records counters, histograms and spans
(``detail=True`` adds per-domain routing to each ``query`` span — two rows a
domain, which ``obs.ring.spans()``, ``/trace`` and trace artefacts list as
``route-domain`` and ``hierarchy-selection`` spans — on top of the always-on
metrics):

>>> from repro import Observability
>>> obs = Observability.with_ring(detail=True)
>>> watched = (
...     SystemBuilder()
...     .topology(peer_count=32, average_degree=4)
...     .planned_content(hit_rate=0.25)
...     .seed(7)
...     .build()
... )
>>> watched.install_observability(obs)
>>> _ = watched.query_batch(count=3)
>>> obs.metrics.value("repro_queries_total") == 3
True
>>> "repro_queries_total 3" in obs.metrics.render_prometheus()
True
>>> sum(1 for s in obs.ring.spans() if s.name == "query") == 3
True

The same registry backs the serve daemon's ``/metrics`` (Prometheus text
format) and ``/trace`` endpoints, and ``repro metrics`` / ``repro trace``
scrape them from the command line.

**Passing a runtime.**  Every session schedules its events through an
:class:`~repro.runtime.ExecutionBackend`.  The default, the simulator, drains
them serially in one thread.  A :class:`~repro.runtime.ConcurrentBackend`
given an ``io_model`` (wall-clock seconds each event label waits on I/O)
overlaps those waits on asyncio mailboxes while draining the *virtual*
events in the same strict order, so a seed produces byte-identical answers,
counters and RNG draws on either backend.  A backend is an object passed to
the builder's ``.runtime(...)`` (or to ``restore_session(..., runtime=...)``);
no environment variable, CLI flag or scenario field selects one:

>>> from repro import ConcurrentBackend
>>> fast = (
...     SystemBuilder()
...     .topology(peer_count=16, average_degree=4)
...     .planned_content(hit_rate=0.25)
...     .runtime(ConcurrentBackend(io_model=lambda label: 0.0))
...     .seed(7)
...     .build()
... )
>>> _ = fast.run_until(600.0)
>>> slow = (
...     SystemBuilder()
...     .topology(peer_count=16, average_degree=4)
...     .planned_content(hit_rate=0.25)
...     .seed(7)
...     .build()
... )
>>> _ = slow.run_until(600.0)
>>> fast.query() == slow.query()  # backend is an implementation knob
True

Real-content sessions can additionally ``attach_store(...)``: every
reconciliation then archives the domain's merged state, and a restarted
summary peer *cold-starts* — ``cold_start_domain(sp_id)`` installs its global
summary by snapshot-hash lookup and pulls only the partners that changed
since, instead of re-reconciling the whole domain.

Named parameter sets live in the scenario registry
(``default_registry().session("table3-default")``); the low-level pieces —
overlays, summaries, the :class:`SummaryManagementSystem` engine — remain
available.  :class:`SystemBuilder` is the supported way to wire a network:
``build()`` calls the engine's ``attach_databases`` / ``build_domains`` in the
order they require, and ``NetworkSession.query`` routes through
``pose_query``.

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
experiment harness reproducing every table and figure of the paper.
"""

from repro.core.approximate import answer_in_domain, localize_peers
from repro.core.config import ProtocolConfig
from repro.core.construction import DomainBuilder
from repro.core.cooperation import CooperationList
from repro.core.domain import Domain
from repro.core.freshness import Freshness, FreshnessMode
from repro.core.maintenance import ColdStartRecord, MaintenanceEngine
from repro.core.protocol import SummaryManagementSystem
from repro.core.routing import (
    QueryRequest,
    QueryRouter,
    QueryRoutingResult,
    RoutingPolicy,
)
from repro.core.service import LocalSummaryService
from repro.core.session import (
    DegradationReport,
    MaintenanceReport,
    NetworkSession,
    QueryAnswer,
    ReadOnlyNetworkSession,
    SessionTraffic,
    SystemBuilder,
)
from repro.database.engine import LocalDatabase
from repro.database.generator import PatientGenerator
from repro.database.query import (
    AttributeIn,
    Comparison,
    DescriptorPredicate,
    SelectionQuery,
)
from repro.database.schema import Attribute, AttributeType, Schema, patient_schema
from repro.database.table import Record, Relation
from repro.exceptions import (
    BackgroundKnowledgeError,
    ConfigurationError,
    NetworkError,
    ProtocolError,
    QueryError,
    ReadOnlySessionError,
    ReproError,
    SchemaError,
    ServeError,
    StoreError,
    SummaryError,
)
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.linguistic import Descriptor, LinguisticVariable
from repro.fuzzy.membership import (
    CrispSetMembership,
    TrapezoidalMembership,
    TriangularMembership,
)
from repro.fuzzy.partition import FuzzyPartition
from repro.fuzzy.vocabularies import (
    medical_background_knowledge,
    uniform_numeric_background_knowledge,
)
from repro.network.churn import LifetimeDistribution
from repro.network.faults import (
    DomainFailureEvent,
    FaultInjector,
    FaultPlan,
    FlashCrowdEvent,
    LinkFaults,
    MassacreEvent,
    PartitionEvent,
)
from repro.network.overlay import Overlay
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    NullSink,
    Observability,
    RingBufferSink,
    Span,
    TraceSink,
    Tracer,
    connected_trace,
    parse_prometheus,
    span_tree,
)
from repro.network.simulator import Simulator
from repro.network.topology import TopologyConfig, power_law_topology
from repro.querying.aggregation import ApproximateAnswer, approximate_answer
from repro.querying.engine import HierarchyQueryIndex
from repro.querying.proposition import Clause, Proposition
from repro.querying.reformulation import reformulate
from repro.querying.selection import QuerySelection, select_summaries
from repro.saintetiq.cell import Cell
from repro.saintetiq.clustering import ClusteringParameters, SummaryBuilder
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.mapping import MappingService
from repro.saintetiq.merging import merge_hierarchies
from repro.saintetiq.summary import Summary
from repro.store import (
    DomainHeadArchive,
    GcReport,
    HierarchySource,
    InMemoryBackend,
    JsonDirectoryBackend,
    SnapshotStore,
    SqliteBackend,
    StoreBackend,
    collect_garbage,
    compact_checkpoint,
    compact_checkpoints,
    open_readonly_session,
    open_store,
)
from repro.runtime import (
    ConcurrentBackend,
    ExecutionBackend,
    SimulatorBackend,
    create_backend,
)
from repro.workloads.registry import ScenarioRegistry, default_registry
from repro.workloads.scenarios import SimulationScenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "SchemaError",
    "QueryError",
    "BackgroundKnowledgeError",
    "SummaryError",
    "NetworkError",
    "ProtocolError",
    "ConfigurationError",
    "StoreError",
    "ReadOnlySessionError",
    "ServeError",
    # fuzzy substrate
    "TrapezoidalMembership",
    "TriangularMembership",
    "CrispSetMembership",
    "Descriptor",
    "LinguisticVariable",
    "FuzzyPartition",
    "BackgroundKnowledge",
    "medical_background_knowledge",
    "uniform_numeric_background_knowledge",
    # database substrate
    "Attribute",
    "AttributeType",
    "Schema",
    "patient_schema",
    "Record",
    "Relation",
    "LocalDatabase",
    "PatientGenerator",
    "SelectionQuery",
    "Comparison",
    "AttributeIn",
    "DescriptorPredicate",
    # summarization engine
    "Cell",
    "MappingService",
    "Summary",
    "SummaryBuilder",
    "ClusteringParameters",
    "SummaryHierarchy",
    "merge_hierarchies",
    # querying
    "reformulate",
    "Clause",
    "Proposition",
    "QuerySelection",
    "select_summaries",
    "HierarchyQueryIndex",
    "ApproximateAnswer",
    "approximate_answer",
    # network substrate
    "Simulator",
    "TopologyConfig",
    "power_law_topology",
    "Overlay",
    "LifetimeDistribution",
    # core contribution
    "ProtocolConfig",
    "Freshness",
    "FreshnessMode",
    "CooperationList",
    "Domain",
    "DomainBuilder",
    "MaintenanceEngine",
    "LocalSummaryService",
    "RoutingPolicy",
    "QueryRouter",
    "QueryRequest",
    "QueryRoutingResult",
    "SummaryManagementSystem",
    "answer_in_domain",
    "localize_peers",
    # declarative session façade
    "SystemBuilder",
    "NetworkSession",
    "ReadOnlyNetworkSession",
    "QueryAnswer",
    "DegradationReport",
    "MaintenanceReport",
    "SessionTraffic",
    # fault injection and resilience
    "FaultPlan",
    "FaultInjector",
    "LinkFaults",
    "PartitionEvent",
    "DomainFailureEvent",
    "MassacreEvent",
    "FlashCrowdEvent",
    # persistence (repro.store)
    "StoreBackend",
    "InMemoryBackend",
    "JsonDirectoryBackend",
    "SqliteBackend",
    "open_store",
    "SnapshotStore",
    "DomainHeadArchive",
    "collect_garbage",
    "compact_checkpoint",
    "compact_checkpoints",
    "open_readonly_session",
    "HierarchySource",
    "GcReport",
    "ColdStartRecord",
    # observability (repro.obs)
    "Observability",
    "MetricsRegistry",
    "parse_prometheus",
    "Tracer",
    "Span",
    "TraceSink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "span_tree",
    "connected_trace",
    # execution backends (repro.runtime)
    "ExecutionBackend",
    "SimulatorBackend",
    "ConcurrentBackend",
    "create_backend",
    # scenarios
    "SimulationScenario",
    "ScenarioRegistry",
    "default_registry",
]
