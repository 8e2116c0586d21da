"""The declarative session façade over the whole protocol machine.

The paper's protocol is one coherent machine — overlay + domains + local
summaries + maintenance + churn + summary querying — but wiring it by hand is
an order-sensitive ritual (construct the overlay, construct the system, attach
content, build domains, schedule churn, run, pose queries...).  This module
collapses that ritual into two classes:

* :class:`SystemBuilder` — a fluent, declarative builder.  Every aspect of a
  network is stated up front (``.topology(...)``, ``.background(...)``,
  ``.planned_content(...)`` / ``.real_content(...)``, ``.domains(...)``,
  ``.churn(...)``, ``.modifications(...)``, ``.seed(...)``); ``.build()``
  validates the whole configuration — raising :class:`ConfigurationError`
  with a pointed message instead of letting a half-wired system fail with a
  mid-run :class:`ProtocolError` — and assembles the simulator, overlay and
  :class:`~repro.core.protocol.SummaryManagementSystem` in the exact order the
  imperative API required.

* :class:`NetworkSession` — the façade returned by ``.build()``.  It owns the
  assembled system and exposes the redesigned query surface:
  :meth:`NetworkSession.query` returns a :class:`QueryAnswer` bundling the
  routing result, the approximate (summary-only) answer, the per-query
  staleness snapshot and the traffic deltas in one value, while
  :meth:`NetworkSession.run_until`, :meth:`NetworkSession.maintenance_report`
  and :meth:`NetworkSession.traffic` cover the simulation and reporting side.

The builder is the supported way to wire a network: ``build()`` drives the
engine's own ``attach_databases`` / ``build_domains`` calls, and the
experiment drivers, the workload scenarios, the examples and the CLI all
construct networks through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database.engine import LocalDatabase
    from repro.database.query import SelectionQuery
    from repro.fuzzy.background import BackgroundKnowledge
    from repro.network.faults import FaultPlan
    from repro.network.topology import TopologyConfig
    from repro.obs import Observability
    from repro.querying.aggregation import ApproximateAnswer
    from repro.runtime import ExecutionBackend, RuntimeSpec
    from repro.store.backend import StoreBackend
    from repro.store.lazy import HierarchySource

from repro.core.config import ProtocolConfig
from repro.core.construction import ConstructionReport
from repro.core.content import ContentModel, PlannedContentModel
from repro.core.domain import Domain
from repro.core.protocol import StalenessSnapshot, SummaryManagementSystem
from repro.core.routing import (
    QueryRequest,
    QueryRoutingResult,
    QueryScratch,
    RoutingPolicy,
)
from repro.exceptions import ConfigurationError, QueryError, ReadOnlySessionError
from repro.network.churn import LifetimeDistribution
from repro.network.messages import MessageType
from repro.network.metrics import TrafficReport
from repro.network.overlay import Overlay
from repro.network.simulator import Simulator


@dataclass
class DegradationReport:
    """How incomplete or stale one answer is *known* to be.

    A query posed under adverse conditions (partition, heavy loss, massacre)
    still returns a :class:`QueryAnswer` — but a marked one: this report says
    which domains could not be reached at all and how many of the described
    peers per visited domain were known-stale at answer time.  An empty
    report (``complete`` and not ``degraded``) is the healthy-network case.
    """

    #: Domains whose summary peer was unreachable from the originator.
    unreachable_domains: List[str] = field(default_factory=list)
    #: Per visited domain: how many described partners were known-stale.
    stale_described: Dict[str, int] = field(default_factory=dict)
    #: Query messages burnt probing (and re-probing) unreachable domains.
    probe_messages: int = 0

    @property
    def complete(self) -> bool:
        """True when every domain of the network was reachable."""
        return not self.unreachable_domains

    @property
    def degraded(self) -> bool:
        """True when the answer is known to be partial or partly stale."""
        return bool(self.unreachable_domains) or any(self.stale_described.values())


@dataclass
class QueryAnswer:
    """Everything one posed query produced, in a single typed value.

    Bundles the four things callers previously had to collect by hand from
    four different objects: the :class:`QueryRoutingResult` (who was
    contacted, who answered, at what message cost), the approximate
    summary-only answer (real content only), the staleness snapshot of the
    answer (planned content only) and the query/update traffic deltas the
    call produced on the system-wide counter.
    """

    routing: QueryRoutingResult
    #: Approximate answer computed from the visited domains' global summaries
    #: (Section 5.2.2); ``None`` in planned-content mode or when no visited
    #: domain could answer.
    answer: Optional[ApproximateAnswer] = None
    #: Staleness accounting for this query (planned content only).
    staleness: Optional[StalenessSnapshot] = None
    #: What this answer is known to be missing (always present on session
    #: queries; ``complete`` and un-``degraded`` on a healthy network).
    degradation: Optional[DegradationReport] = None
    #: Query-side messages (query/response/flooding) this call added.
    query_messages: int = 0
    #: Update-side messages (push/reconciliation) this call added: 0, a query's
    #: tally holds query-side types only.  Kept for the wire format.
    update_messages: int = 0
    #: Simulated time at which the query was posed.
    posed_at: float = 0.0

    # -- delegation to the routing result -------------------------------------------

    @property
    def query_id(self) -> int:
        return self.routing.query_id

    @property
    def originator(self) -> str:
        return self.routing.originator

    @property
    def results(self) -> int:
        return self.routing.results

    @property
    def total_messages(self) -> int:
        return self.routing.total_messages

    @property
    def domains_visited(self) -> int:
        return self.routing.domains_visited

    @property
    def contacted_peers(self) -> Set[str]:
        return self.routing.contacted_peers

    @property
    def responding_peers(self) -> Set[str]:
        return self.routing.responding_peers

    @property
    def false_positive_rate(self) -> float:
        return self.routing.false_positive_rate

    @property
    def false_negative_rate(self) -> float:
        return self.routing.false_negative_rate

    def satisfied(self) -> bool:
        return self.routing.satisfied()


@dataclass
class MaintenanceReport:
    """Push/reconciliation activity over a simulation window."""

    duration_seconds: float
    push_messages: int
    reconciliations: int
    reconciliation_messages: int
    update_traffic: TrafficReport

    @property
    def update_messages(self) -> int:
        return self.update_traffic.total_messages

    @property
    def messages_per_node(self) -> float:
        return self.update_traffic.messages_per_node

    @property
    def messages_per_node_per_second(self) -> float:
        return self.update_traffic.messages_per_node_per_second


@dataclass
class SessionTraffic:
    """Update- and query-side traffic reports over one window."""

    update: TrafficReport
    query: TrafficReport

    @property
    def total_messages(self) -> int:
        return self.update.total_messages + self.query.total_messages


@dataclass
class _ChurnPlan:
    duration_seconds: float
    lifetime: Optional[LifetimeDistribution] = None
    downtime_seconds: float = 600.0
    graceful_fraction: float = 0.9
    rejoin: bool = True
    include_summary_peers: bool = False


@dataclass
class _ModificationPlan:
    duration_seconds: float
    rate_per_peer_per_second: float


class SystemBuilder:
    """Declarative, validated assembly of a summary-management network.

    Every method returns the builder, so a whole network reads as one
    expression::

        session = (
            SystemBuilder()
            .topology(peer_count=500, average_degree=4)
            .planned_content(hit_rate=0.1)
            .churn(duration_seconds=6 * 3600.0)
            .seed(42)
            .build()
        )

    ``.build()`` validates the configuration up front and raises
    :class:`ConfigurationError` on any inconsistency (missing topology,
    real content without background knowledge, both content modes at once,
    churn without a positive horizon...), then wires the system in the
    canonical order: overlay → system → content → domains → event schedule.
    """

    def __init__(self) -> None:
        self._topology_config: Optional[TopologyConfig] = None
        self._topology_kwargs: Optional[Dict[str, object]] = None
        self._overlay: Optional[Overlay] = None
        self._background: Optional[BackgroundKnowledge] = None
        self._config: Optional[ProtocolConfig] = None
        self._config_kwargs: Dict[str, object] = {}
        self._seed: int = 0
        self._planned: Optional[Tuple[float, Optional[int]]] = None
        self._databases: Optional[Mapping[str, LocalDatabase]] = None
        self._rebuild_summaries: bool = True
        self._build_domains: bool = True
        self._summary_peers: Optional[List[str]] = None
        self._churn: Optional[_ChurnPlan] = None
        self._modifications: Optional[_ModificationPlan] = None
        self._fault_plan: Optional[FaultPlan] = None
        self._observability: Optional["Observability"] = None
        self._runtime: "RuntimeSpec" = None

    # -- declarative configuration -----------------------------------------------------

    def topology(
        self,
        overlay: Optional[Union[Overlay, TopologyConfig]] = None,
        *,
        peer_count: Optional[int] = None,
        average_degree: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> "SystemBuilder":
        """Declare the overlay: an existing one, a config, or generation knobs."""
        if overlay is not None and (
            peer_count is not None or average_degree is not None or seed is not None
        ):
            raise ConfigurationError(
                "topology takes either an overlay/config or generation knobs "
                "(peer_count/average_degree/seed), not both: knobs cannot be "
                "applied to an already-built topology"
            )
        from repro.network.topology import TopologyConfig

        if isinstance(overlay, Overlay):
            self._overlay = overlay
            self._topology_config = None
            self._topology_kwargs = None
        elif isinstance(overlay, TopologyConfig):
            self._topology_config = overlay
            self._overlay = None
            self._topology_kwargs = None
        elif peer_count is not None:
            self._topology_kwargs = {
                "peer_count": peer_count,
                "average_degree": 4.0 if average_degree is None else average_degree,
                "seed": seed,
            }
            self._overlay = None
            self._topology_config = None
        else:
            raise ConfigurationError(
                "topology needs an Overlay, a TopologyConfig or peer_count=..."
            )
        return self

    def background(self, knowledge: BackgroundKnowledge) -> "SystemBuilder":
        """Declare the background knowledge (required for real content)."""
        self._background = knowledge
        return self

    def protocol(
        self, config: Optional[ProtocolConfig] = None, **kwargs: object
    ) -> "SystemBuilder":
        """Declare the protocol configuration (or individual knobs of it)."""
        if config is not None and kwargs:
            raise ConfigurationError(
                "protocol takes either a ProtocolConfig or keyword knobs, not both"
            )
        if config is not None:
            self._config = config
            self._config_kwargs = {}
        else:
            self._config = None
            self._config_kwargs = dict(kwargs)
        return self

    def planned_content(
        self, hit_rate: float = 0.1, seed: Optional[int] = None
    ) -> "SystemBuilder":
        """Use the content-free evaluation mode of Table 3.

        Each query is matched by ``hit_rate`` of the peers; no summaries are
        built, which scales to thousands of peers.
        """
        self._planned = (hit_rate, seed)
        return self

    def real_content(
        self,
        databases: Mapping[str, LocalDatabase],
        rebuild_summaries: bool = True,
    ) -> "SystemBuilder":
        """Attach real per-peer databases (local summaries are built from them)."""
        self._databases = databases
        self._rebuild_summaries = rebuild_summaries
        return self

    def domains(
        self,
        summary_peers: Optional[Sequence[str]] = None,
        build: bool = True,
    ) -> "SystemBuilder":
        """Control domain construction (on by default).

        ``summary_peers`` forces the set of summary peers (e.g. a single hub
        for the one-domain maintenance experiments); ``build=False`` leaves
        the network domain-less.
        """
        self._summary_peers = list(summary_peers) if summary_peers is not None else None
        self._build_domains = build
        return self

    def churn(
        self,
        duration_seconds: float,
        lifetime: Optional[LifetimeDistribution] = None,
        downtime_seconds: float = 600.0,
        graceful_fraction: float = 0.9,
        rejoin: bool = True,
        include_summary_peers: bool = False,
    ) -> "SystemBuilder":
        """Schedule departure/rejoin churn over ``duration_seconds`` of virtual time."""
        self._churn = _ChurnPlan(
            duration_seconds=duration_seconds,
            lifetime=lifetime,
            downtime_seconds=downtime_seconds,
            graceful_fraction=graceful_fraction,
            rejoin=rejoin,
            include_summary_peers=include_summary_peers,
        )
        return self

    def modifications(
        self, duration_seconds: float, rate_per_peer_per_second: float
    ) -> "SystemBuilder":
        """Schedule Poisson local-data modifications per partner peer."""
        self._modifications = _ModificationPlan(
            duration_seconds=duration_seconds,
            rate_per_peer_per_second=rate_per_peer_per_second,
        )
        return self

    def faults(self, plan: FaultPlan) -> "SystemBuilder":
        """Declare a seeded fault plan (partitions, loss, massacres...).

        The plan's scheduled adversities are installed after churn and
        modifications, so the event order at equal timestamps is fixed; its
        link faults activate the protocol's bounded retries.
        A plan with no faults changes nothing, byte for byte.
        """
        from repro.network.faults import FaultPlan

        if not isinstance(plan, FaultPlan):
            raise ConfigurationError("faults(...) takes a FaultPlan")
        self._fault_plan = plan
        return self

    def seed(self, seed: int) -> "SystemBuilder":
        """Master seed: system RNG, and the default for topology/content seeds."""
        self._seed = seed
        return self

    def runtime(self, spec: "RuntimeSpec") -> "SystemBuilder":
        """Pass the execution backend the built system schedules through.

        Without this call the system runs on the deterministic
        single-threaded simulator.  Pass an
        :class:`~repro.runtime.ExecutionBackend` instance, such as a
        :class:`~repro.runtime.ConcurrentBackend` with an ``io_model`` whose
        waits it overlaps; ``"simulator"`` and ``"concurrent"`` name a fresh
        default-configured one.  Every backend produces the same answers,
        counters and RNG states for the same seed; see :mod:`repro.runtime`.
        """
        from repro.runtime import create_backend

        # Resolve eagerly so a bad name fails at declaration time, not build.
        self._runtime = create_backend(spec) if isinstance(spec, str) else spec
        return self

    def observability(
        self,
        obs: Optional["Observability"] = None,
        *,
        trace_path: Optional[str] = None,
        ring_capacity: int = 2048,
    ) -> "SystemBuilder":
        """Enable metrics + tracing on the built session.

        Pass an :class:`~repro.obs.Observability` to share one hook across
        sessions, or ``trace_path=...`` to stream spans to a JSONL file;
        the default keeps spans in an in-memory ring of ``ring_capacity``.
        Recording never draws randomness or sends messages, so an observed
        session's answers, counters and RNG state match an unobserved one.
        """
        from repro.obs import Observability

        if obs is not None and trace_path is not None:
            raise ConfigurationError(
                "observability takes either an Observability or trace_path, "
                "not both"
            )
        if obs is None:
            obs = (
                Observability.with_jsonl(trace_path)
                if trace_path is not None
                else Observability.with_ring(ring_capacity)
            )
        self._observability = obs
        return self

    # -- validation -------------------------------------------------------------------

    def _validate(self) -> None:
        if (
            self._overlay is None
            and self._topology_config is None
            and self._topology_kwargs is None
        ):
            raise ConfigurationError(
                "no topology configured: call .topology(peer_count=...) or pass "
                "an Overlay/TopologyConfig"
            )
        if self._planned is not None and self._databases is not None:
            raise ConfigurationError(
                "planned_content and real_content are mutually exclusive: a "
                "network either plans query hits or owns real databases"
            )
        if self._planned is None and self._databases is None:
            raise ConfigurationError(
                "no content configured: call .planned_content(hit_rate=...) "
                "for the evaluation mode or .real_content(databases=...) for "
                "real databases"
            )
        if self._planned is not None:
            hit_rate, _seed = self._planned
            if not 0.0 <= hit_rate <= 1.0:
                raise ConfigurationError("planned_content hit_rate must lie in [0, 1]")
        if self._databases is not None:
            if self._background is None:
                raise ConfigurationError(
                    "real_content requires .background(...): local summaries "
                    "are built against a background knowledge"
                )
            if not self._databases:
                raise ConfigurationError("real_content needs at least one database")
        if self._churn is not None:
            if self._churn.duration_seconds <= 0:
                raise ConfigurationError("churn duration_seconds must be positive")
            if not 0.0 <= self._churn.graceful_fraction <= 1.0:
                raise ConfigurationError("churn graceful_fraction must lie in [0, 1]")
            if self._churn.downtime_seconds < 0:
                raise ConfigurationError("churn downtime_seconds must be non-negative")
        if self._modifications is not None:
            if self._modifications.duration_seconds <= 0:
                raise ConfigurationError(
                    "modifications duration_seconds must be positive"
                )
            if self._modifications.rate_per_peer_per_second < 0:
                raise ConfigurationError(
                    "modifications rate_per_peer_per_second must be non-negative"
                )
        if (self._churn is not None or self._modifications is not None) and (
            not self._build_domains
        ):
            raise ConfigurationError(
                "churn/modifications need domains: remove .domains(build=False)"
            )

    def _resolve_overlay(self) -> Overlay:
        if self._overlay is not None:
            return self._overlay
        if self._topology_config is not None:
            return Overlay.generate(self._topology_config)
        assert self._topology_kwargs is not None
        from repro.network.topology import TopologyConfig

        kwargs = dict(self._topology_kwargs)
        if kwargs.get("seed") is None:
            kwargs["seed"] = self._seed
        config = TopologyConfig(
            peer_count=int(kwargs["peer_count"]),  # type: ignore[arg-type]
            average_degree=float(kwargs["average_degree"]),  # type: ignore[arg-type]
            seed=int(kwargs["seed"]),  # type: ignore[arg-type]
        )
        return Overlay.generate(config)

    def _resolve_config(self) -> ProtocolConfig:
        if self._config is not None:
            return self._config
        return ProtocolConfig(**self._config_kwargs)  # type: ignore[arg-type]

    # -- assembly ---------------------------------------------------------------------

    @staticmethod
    def from_checkpoint(
        target: Union[None, str, "StoreBackend"],
        name: str = "session",
        background: Optional[BackgroundKnowledge] = None,
    ) -> "NetworkSession":
        """Resume a session checkpointed with :meth:`NetworkSession.checkpoint`.

        ``target`` is a store path (directory of JSON, or a ``.sqlite`` file)
        or an opened :class:`~repro.store.StoreBackend`.  The restored session
        continues byte-identically: subsequent ``query()`` routing, staleness
        snapshots and traffic reports match the never-persisted session.
        Real-content checkpoints additionally need the common ``background``
        knowledge, exactly like the summary wire format.
        """
        from repro.store.checkpoint import restore_session

        return restore_session(target, name=name, background=background)

    def build(self) -> "NetworkSession":
        """Validate the declared configuration and assemble the session."""
        self._validate()
        overlay = self._resolve_overlay()
        config = self._resolve_config()
        system = SummaryManagementSystem(
            overlay,
            config=config,
            background=self._background,
            seed=self._seed,
            runtime=self._runtime,
        )
        if self._observability is not None:
            # Installed before construction so domain building, churn and the
            # whole maintenance lifecycle are traced from the first event.
            system.install_observability(self._observability)
        if self._databases is not None:
            system.attach_databases(
                self._databases, rebuild_summaries=self._rebuild_summaries
            )
        else:
            assert self._planned is not None
            hit_rate, content_seed = self._planned
            system.use_planned_content(
                matching_fraction=hit_rate,
                seed=self._seed if content_seed is None else content_seed,
            )
        report: Optional[ConstructionReport] = None
        if self._build_domains:
            report = system.build_domains(summary_peers=self._summary_peers)
        horizon: Optional[float] = None
        if self._churn is not None:
            system.schedule_churn(
                self._churn.duration_seconds,
                lifetime=self._churn.lifetime,
                downtime_seconds=self._churn.downtime_seconds,
                graceful_fraction=self._churn.graceful_fraction,
                rejoin=self._churn.rejoin,
                include_summary_peers=self._churn.include_summary_peers,
            )
            horizon = self._churn.duration_seconds
        if self._modifications is not None:
            system.schedule_modifications(
                self._modifications.duration_seconds,
                self._modifications.rate_per_peer_per_second,
            )
            horizon = max(horizon or 0.0, self._modifications.duration_seconds)
        if self._fault_plan is not None:
            # Installed last so fault events at equal timestamps sort after the
            # churn/modification events scheduled above.  The horizon is left
            # alone: adversities only matter inside the window the caller runs.
            system.install_fault_plan(self._fault_plan)
        return NetworkSession(system, construction_report=report, horizon=horizon)


class NetworkSession:
    """Façade owning a fully wired summary-management network.

    Obtained from :meth:`SystemBuilder.build`; wrapping an already-assembled
    :class:`SummaryManagementSystem` directly is supported for migration.
    """

    def __init__(
        self,
        system: SummaryManagementSystem,
        construction_report: Optional[ConstructionReport] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self._system = system
        self._construction_report = construction_report
        self._horizon = horizon

    # -- accessors --------------------------------------------------------------------

    @property
    def system(self) -> SummaryManagementSystem:
        """The underlying protocol engine (escape hatch for legacy code)."""
        return self._system

    @property
    def overlay(self) -> Overlay:
        return self._system.overlay

    @property
    def simulator(self) -> Simulator:
        return self._system.simulator

    @property
    def runtime(self) -> "ExecutionBackend":
        """The execution backend driving the session's event schedule."""
        return self._system.runtime

    @property
    def config(self) -> ProtocolConfig:
        return self._system.config

    @property
    def domains(self) -> Dict[str, Domain]:
        return self._system.domains

    @property
    def content(self) -> Optional[ContentModel]:
        return self._system.content

    @property
    def construction_report(self) -> Optional[ConstructionReport]:
        return self._construction_report

    @property
    def horizon(self) -> Optional[float]:
        """End of the scheduled churn/modification window, if any."""
        return self._horizon

    @property
    def observability(self) -> Optional["Observability"]:
        """The installed metrics+trace hook, or None (uninstrumented)."""
        return self._system.observability

    def install_observability(self, obs: Optional["Observability"]) -> None:
        """Install (or remove, with ``None``) the metrics+trace hook.

        Safe at any point of a session's life — recording reads protocol
        state without mutating it, so installation never changes answers,
        counters or RNG state.
        """
        self._system.install_observability(obs)

    @property
    def now(self) -> float:
        return self._system.simulator.now

    @property
    def planned(self) -> bool:
        """Whether the session runs in planned-content (evaluation) mode."""
        return isinstance(self._system.content, PlannedContentModel)

    def partner_ids(self) -> List[str]:
        """Peers that are not summary peers, in overlay order."""
        domains = self._system.domains
        return [p for p in self._system.overlay.peer_ids if p not in domains]

    def default_originator(self) -> str:
        """A deterministic partner peer used when no originator is given."""
        partners = self.partner_ids()
        if partners:
            return partners[0]
        peer_ids = self._system.overlay.peer_ids
        if not peer_ids:
            raise ConfigurationError("the overlay has no peers to originate queries")
        return peer_ids[0]

    def next_query_id(self) -> int:
        return self._system.next_query_id()

    # -- the query surface -------------------------------------------------------------

    def _scratch(self) -> Optional[QueryScratch]:
        """What this session's requests advance: None is the system itself."""
        return None

    def query(
        self,
        originator: Optional[str] = None,
        query: Optional[SelectionQuery] = None,
        query_id: Optional[int] = None,
        *,
        policy: RoutingPolicy = RoutingPolicy.ALL,
        required_results: Optional[int] = None,
        max_domains: Optional[int] = None,
        include_staleness: Optional[bool] = None,
        include_answer: Optional[bool] = None,
    ) -> QueryAnswer:
        """Pose one query and return everything it produced as a :class:`QueryAnswer`.

        The routing is ``system.pose_query(...)``: the session adds to it only
        reads — of the routing result, the cooperation lists and (in planned
        mode) the deterministic staleness draws — so message counts and RNG
        state are those of the bare call.

        ``include_staleness`` defaults to planned-content mode;
        ``include_answer`` defaults to real-content mode with a real query.
        """
        if originator is None:
            originator = self.default_originator()
        request = QueryRequest(
            originator, query, query_id, policy, required_results, max_domains
        )
        return self._answer(self._scratch(), request, include_staleness, include_answer)

    def _answer(
        self,
        scratch: Optional[QueryScratch],
        request: QueryRequest,
        include_staleness: Optional[bool],
        include_answer: Optional[bool],
    ) -> QueryAnswer:
        """Answer ``request``, advancing ``scratch`` and nothing else."""
        system = self._system
        query = request.query
        routing = system.pose_query(
            request.originator,
            query=query,
            query_id=request.query_id,
            policy=request.policy,
            required_results=request.required_results,
            max_domains=request.max_domains,
            scratch=scratch,
        )

        if include_staleness is None:
            include_staleness = self.planned
        staleness: Optional[StalenessSnapshot] = None
        if include_staleness:
            # An explicit True on a real-content session reaches the engine
            # and raises its ProtocolError rather than silently yielding None.
            staleness = system.staleness_snapshot(routing.query_id, scratch)

        if include_answer is None:
            include_answer = query is not None and not self.planned
        answer: Optional[ApproximateAnswer] = None
        if include_answer and query is not None:
            answer = self._approximate_answer(routing, query)

        return QueryAnswer(
            routing=routing,
            answer=answer,
            staleness=staleness,
            degradation=self._degradation_report(routing),
            # What pose_query tallied for this query.
            query_messages=routing.total_messages,
            posed_at=system.simulator.now,
        )

    def _degradation_report(self, routing: QueryRoutingResult) -> DegradationReport:
        """Derive the completeness report of one answer (pure reads only)."""
        stale_described: Dict[str, int] = {}
        for outcome in routing.domain_outcomes:
            stale = self._system.stale_described_count(outcome.domain_id)
            if stale:
                stale_described[outcome.domain_id] = stale
        return DegradationReport(
            unreachable_domains=list(routing.unreachable_domains),
            stale_described=stale_described,
            probe_messages=routing.unreachable_probe_messages,
        )

    def _approximate_answer(
        self, routing: QueryRoutingResult, query: SelectionQuery
    ) -> Optional[ApproximateAnswer]:
        """Merge the summary-only answers of the domains the query visited."""
        from repro.core.approximate import answer_in_domain
        from repro.querying.reformulation import reformulate

        background = self._system.background
        if background is None:
            return None
        flexible = reformulate(query, background)
        merged: Optional[ApproximateAnswer] = None
        for outcome in routing.domain_outcomes:
            domain = self._system.domains.get(outcome.domain_id)
            if domain is None or not domain.has_global_summary():
                continue
            try:
                result = answer_in_domain(
                    domain, flexible, background, already_flexible=True
                )
            except QueryError:
                # The query constrains attributes outside the background
                # knowledge: routing degrades gracefully, so does the answer.
                return None
            if merged is None:
                merged = result.answer
            else:
                merged.classes.extend(result.answer.classes)
        return merged

    def query_batch(
        self,
        count: Optional[int] = None,
        queries: Optional[Iterable[SelectionQuery]] = None,
        originators: Optional[Sequence[str]] = None,
        *,
        requests: Optional[Sequence[QueryRequest]] = None,
        policy: RoutingPolicy = RoutingPolicy.ALL,
        required_results: Optional[int] = None,
        max_domains: Optional[int] = None,
        include_staleness: Optional[bool] = None,
        include_answer: Optional[bool] = None,
    ) -> List[QueryAnswer]:
        """Pose a batch of queries: :meth:`query` once per request, in order.

        Queries are given as ``count`` planned queries or an iterable of real
        ``queries`` (exactly one of the two; originators are cycled over
        ``originators``, by default the partner population), or as explicit
        :class:`~repro.core.routing.QueryRequest` values via ``requests``
        (each request then carries its own originator/policy/limits).
        """
        if requests is not None:
            if count is not None or queries is not None or originators:
                raise ConfigurationError(
                    "query_batch takes either requests or the "
                    "count/queries/originators arguments, not both"
                )
        elif (count is None) == (queries is None):
            raise ConfigurationError(
                "query_batch takes either count (planned content) or queries "
                "(real content), exactly one"
            )
        else:
            pool = list(originators) if originators else self.partner_ids()
            if not pool:
                pool = [self.default_originator()]
            posed: Iterable[Optional[SelectionQuery]] = (
                queries if count is None else [None] * count
            )
            requests = [
                QueryRequest(
                    pool[index % len(pool)],
                    query=one_query,
                    policy=policy,
                    required_results=required_results,
                    max_domains=max_domains,
                )
                for index, one_query in enumerate(posed)
            ]
        scratch = self._scratch()
        return [
            self._answer(scratch, request, include_staleness, include_answer)
            for request in requests
        ]

    # -- persistence -------------------------------------------------------------------

    def checkpoint(
        self,
        target: Union[None, str, "StoreBackend"],
        name: str = "session",
        base: Optional[str] = None,
    ) -> str:
        """Persist this session's full state into a store.

        Captures the overlay, domains, content model, protocol configuration,
        message counters, the simulator clock and every pending churn or
        modification event; hierarchies are stored content-addressed so
        identical summaries are persisted once.  Resume with
        :meth:`SystemBuilder.from_checkpoint`.  Returns the checkpoint name.

        ``base=<earlier checkpoint name>`` stores a *delta* checkpoint: only
        the structural diff against the base's payload, a small fraction of
        the full document for nearby simulation times.  Delta chains restore
        transparently, but the base checkpoint must stay in the store.
        """
        from repro.store.checkpoint import save_session

        return save_session(self, target, name=name, base=base)

    def attach_store(self, target: Union[None, str, "StoreBackend"]) -> None:
        """Archive reconciliation heads in a store (enables domain cold starts).

        The session keeps using the store until :meth:`detach_store`; detach
        before closing a backend you opened yourself.
        """
        self._system.attach_store(target)

    def detach_store(self) -> None:
        """Stop archiving reconciliation heads (see :meth:`attach_store`)."""
        self._system.detach_store()

    def cold_start_domain(self, sp_id: str):
        """Store-backed cold start of one restarted summary peer's domain.

        Returns the :class:`~repro.core.maintenance.ColdStartRecord` saying
        what was restored by hash lookup and which partners had to re-ship
        their local summaries.
        """
        return self._system.cold_start_domain(sp_id)

    # -- simulation --------------------------------------------------------------------

    def run_until(self, time: Optional[float] = None) -> int:
        """Advance the simulation to ``time`` (default: the scheduled horizon).

        Returns the number of events processed.
        """
        if time is None:
            time = self._horizon
        return self._system.run(until=time)

    def staleness(self, query_id: Optional[int] = None) -> StalenessSnapshot:
        """Sample current answer staleness (planned content only)."""
        return self._system.staleness_snapshot(query_id, self._scratch())

    def staleness_batch(self, count: int) -> List[StalenessSnapshot]:
        """``[self.staleness() for _ in range(count)]``; the fig4/fig5 sweeps
        sample several snapshots per simulation tick through this."""
        return self._system.staleness_snapshots(count, self._scratch())

    # -- reporting ---------------------------------------------------------------------

    def _window(self, duration_seconds: Optional[float]) -> float:
        if duration_seconds is not None:
            return duration_seconds
        if self._horizon is not None:
            return self._horizon
        return self._system.simulator.now

    def maintenance_report(
        self, duration_seconds: Optional[float] = None
    ) -> MaintenanceReport:
        """Push/reconciliation figures over the given window (default: horizon)."""
        window = self._window(duration_seconds)
        counter = self._system.counter
        return MaintenanceReport(
            duration_seconds=window,
            push_messages=counter.count(MessageType.PUSH),
            reconciliations=self._system.maintenance.stats.reconciliations,
            reconciliation_messages=counter.count(MessageType.RECONCILIATION),
            update_traffic=self._system.update_traffic_report(window),
        )

    def traffic(self, duration_seconds: Optional[float] = None) -> SessionTraffic:
        """Update- and query-side traffic reports over the given window."""
        window = self._window(duration_seconds)
        return SessionTraffic(
            update=self._system.update_traffic_report(window),
            query=self._system.query_traffic_report(window),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NetworkSession(peers={self._system.overlay.size}, "
            f"domains={len(self._system.domains)}, now={self.now:.0f}s)"
        )


class ReadOnlyNetworkSession(NetworkSession):
    """One restored session shared, read-only, across many worker threads.

    Obtained from :func:`repro.store.checkpoint.open_readonly_session`; it is
    the session shape ``repro serve`` runs on.  Three guarantees:

    * **Shared.**  Every thread answers against the same restored system, at
      the same time: no request waits for another.
    * **Never written.**  Each request — a query, a whole batch, a staleness
      sample — advances a throwaway
      :class:`~repro.core.routing.QueryScratch` made from the checkpoint's
      values (next query id, plan registry and RNG or query registry, fault
      RNG and stats, an empty message tally) and drops it, so every request —
      from any thread, in any order — answers exactly like the first request
      after a fresh :func:`~repro.store.checkpoint.restore_session`, a batch
      like the first requests.  What a request does leave on the shared
      system are memos of that immutable state — hierarchy indexes and
      selection caches, lazily materialized summaries, per-domain routing
      sets — each published whole and equal whichever thread computes it;
      they cannot alter an answer.
    * **Mutation rejected.**  Simulation, store attachment and cold starts
      raise :class:`~repro.exceptions.ReadOnlySessionError`.

    The session may own the store backend it was opened from (lazy hierarchy
    loads read it on demand); :meth:`close` — or leaving a ``with`` block —
    releases it.  Let in-flight requests finish before closing: a request
    that still needs the store after :meth:`close` fails.
    """

    def __init__(
        self,
        system: SummaryManagementSystem,
        construction_report: Optional[ConstructionReport] = None,
        horizon: Optional[float] = None,
    ) -> None:
        super().__init__(system, construction_report, horizon)
        self._backend: Optional["StoreBackend"] = None
        self._owns_backend = False
        self._hierarchy_source: Optional["HierarchySource"] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------------

    def bind_store(
        self,
        backend: "StoreBackend",
        owns_backend: bool = False,
        hierarchy_source: Optional["HierarchySource"] = None,
    ) -> None:
        """Tie the session to the backend its lazy loads read from."""
        self._backend = backend
        self._owns_backend = owns_backend
        self._hierarchy_source = hierarchy_source

    @property
    def hierarchy_source(self) -> Optional["HierarchySource"]:
        """The lazy loader (fetch/hit counters), when opened lazily."""
        return self._hierarchy_source

    def install_observability(self, obs: Optional["Observability"]) -> None:
        """Install the hook on the system *and* the lazy hierarchy loader."""
        super().install_observability(obs)
        if self._hierarchy_source is not None:
            self._hierarchy_source.install_observability(obs)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session (closes the backend it owns). Idempotent."""
        self._closed = True
        backend, self._backend = self._backend, None
        if backend is not None and self._owns_backend:
            backend.close()

    def __enter__(self) -> "ReadOnlyNetworkSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- read surface: a throwaway scratch per request ---------------------------------

    def _scratch(self) -> QueryScratch:
        if self._closed:
            raise ReadOnlySessionError("this read-only session is closed")
        return self._system.query_scratch()

    # -- mutation surface: rejected ----------------------------------------------------

    def _read_only(self, operation: str) -> ReadOnlySessionError:
        return ReadOnlySessionError(
            f"{operation} is not available on a read-only serving session; "
            "restore the checkpoint with SystemBuilder.from_checkpoint for a "
            "mutable session"
        )

    def run_until(self, time: Optional[float] = None) -> int:
        raise self._read_only("run_until (advancing the simulation)")

    def attach_store(self, target: Union[None, str, "StoreBackend"]) -> None:
        raise self._read_only("attach_store")

    def detach_store(self) -> None:
        raise self._read_only("detach_store")

    def cold_start_domain(self, sp_id: str):
        raise self._read_only("cold_start_domain")

    def next_query_id(self) -> int:
        raise self._read_only(
            "next_query_id (allocating query ids mutates the counter; pass "
            "count=... or queries=... and let each request allocate its own)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else "open"
        return (
            f"ReadOnlyNetworkSession(peers={self._system.overlay.size}, "
            f"domains={len(self._system.domains)}, {state})"
        )
