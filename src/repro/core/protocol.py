"""The end-to-end protocol engine: one system, its state and its wiring.

:class:`SummaryManagementSystem` ties every piece together on top of the
discrete-event simulator: overlay + domains + local summaries + maintenance +
churn + query routing.  The experiments of Section 6 are driven entirely
through this class, in one of two content modes:

* **real content** — peers own actual databases and summaries
  (:meth:`attach_databases`): used by the examples and integration tests;
* **planned content** — each query is matched by a configurable fraction of
  peers (:meth:`use_planned_content`): the evaluation mode of the paper
  (Table 3 fixes the query hit rate at 10 %), which scales to thousands of
  peers because no real summaries need to be built.

This module holds the system's state: its constructor, accessors, the
content, store, fault and observability wiring, domain construction, ``run``
and the traffic reports.  What the system *does* lives with the paper section
it implements, each a mixin over that state:

* :mod:`repro.core.dynamicity` — churn and fault events, scheduled as
  declarative specs (Section 4.3);
* :mod:`repro.core.maintenance` — modification, push and ring reconciliation
  under the α threshold (Section 4.2);
* :mod:`repro.core.routing` — query processing: summary-based routing inside
  a domain and inter-domain flooding (Section 5);
* :mod:`repro.core.staleness` — the stale-answer and false-negative
  measurement behind Figures 4 and 5.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.construction import ConstructionReport
    from repro.core.routing import _DomainSets
    from repro.core.service import LocalSummaryService
    from repro.database.engine import LocalDatabase
    from repro.database.query import SelectionQuery
    from repro.fuzzy.background import BackgroundKnowledge
    from repro.network.faults import FaultInjector, FaultPlan
    from repro.obs import Observability
    from repro.saintetiq.hierarchy import SummaryHierarchy

from repro.core.config import ProtocolConfig
from repro.core.content import ContentModel, PlannedContentModel, SummaryContentModel
from repro.core.domain import Domain, send
from repro.core.dynamicity import _Dynamicity
from repro.core.maintenance import ColdStartRecord, MaintenanceEngine, _PushPull
from repro.core.routing import QueryRouter, _QueryProcessing
from repro.core.staleness import _StalenessMeasurement
from repro.exceptions import NetworkError, ProtocolError
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter, TrafficReport
from repro.network.overlay import Overlay
from repro.network.simulator import Simulator
from repro.runtime import ExecutionBackend, RuntimeSpec, create_backend

#: Message types that count toward the *update* cost (Figure 6 / eq. 1).
UPDATE_MESSAGE_TYPES = (MessageType.PUSH, MessageType.RECONCILIATION)
#: Message types that count toward the *query* cost (Figure 7 / eq. 2).
QUERY_MESSAGE_TYPES = (
    MessageType.QUERY,
    MessageType.QUERY_RESPONSE,
    MessageType.FLOOD_REQUEST,
    MessageType.FLOOD_QUERY,
)


class SummaryManagementSystem(
    _Dynamicity, _PushPull, _QueryProcessing, _StalenessMeasurement
):
    """Top-level orchestrator of the summary-management protocols."""

    def __init__(
        self,
        overlay: Overlay,
        config: Optional[ProtocolConfig] = None,
        background: Optional[BackgroundKnowledge] = None,
        seed: int = 0,
        runtime: RuntimeSpec = None,
    ) -> None:
        self._overlay = overlay
        self._config = config or ProtocolConfig()
        self._background = background
        if background is not None:  # real queries: bound once, not per query
            from repro.core.approximate import flexible_form

            self._flexible_form = flexible_form
        # The execution backend owns the virtual clock and decides how
        # scheduled events run (single-threaded simulator by default, asyncio
        # fan-out on a passed ``ConcurrentBackend``).  ``self._simulator`` stays
        # bound to the backend's clock so every clock read and checkpoint
        # hook below is backend-agnostic.
        self._runtime = create_backend(runtime)
        self._rng = self._runtime.create_rng(seed)
        self._counter = MessageCounter()
        self._simulator = self._runtime.clock
        self._maintenance = MaintenanceEngine(self._config)
        self._router = QueryRouter()

        self._domains: Dict[str, Domain] = {}
        self._assignment: Dict[str, str] = {}
        # Each value is replaced wholesale, never mutated: its identity is one
        # of the stamps ``_domain_sets`` keeps derived sets valid by.
        self._described: Dict[str, Set[str]] = {}
        self._derived_sets: Dict[str, _DomainSets] = {}
        self._services: Dict[str, LocalSummaryService] = {}
        self._databases: Dict[str, LocalDatabase] = {}
        self._queries: Dict[int, SelectionQuery] = {}
        self._content: Optional[ContentModel] = None
        self._query_counter = 0
        # The fault layer is opt-in: None means every protocol path runs its
        # historical, infallible-network code byte for byte.
        self._faults: Optional[FaultInjector] = None
        # Observability is equally opt-in: None keeps every hot path a single
        # pointer test away from the uninstrumented build.
        self._obs: Optional["Observability"] = None

    # -- accessors ---------------------------------------------------------------------------

    @property
    def overlay(self) -> Overlay:
        return self._overlay

    @property
    def config(self) -> ProtocolConfig:
        return self._config

    @property
    def background(self) -> Optional[BackgroundKnowledge]:
        return self._background

    @property
    def simulator(self) -> Simulator:
        """The virtual clock (the runtime backend's event queue + ``now``)."""
        return self._simulator

    @property
    def runtime(self) -> ExecutionBackend:
        """The execution backend driving scheduled events."""
        return self._runtime

    @property
    def counter(self) -> MessageCounter:
        return self._counter

    @property
    def maintenance(self) -> MaintenanceEngine:
        return self._maintenance

    @property
    def domains(self) -> Dict[str, Domain]:
        return self._domains

    @property
    def assignment(self) -> Dict[str, str]:
        """Peer → summary peer, for every peer that belongs to a domain.

        Every assigned peer is online, and the live domain it is assigned to
        lists it with a partner distance; a listed peer need not be assigned
        (a departed one stays listed until its domain reconciles).  See
        :mod:`repro.core.dynamicity` for the three writes that keep this.
        """
        return dict(self._assignment)

    @property
    def content(self) -> Optional[ContentModel]:
        return self._content

    @property
    def rng(self) -> random.Random:
        """The system RNG (its state is captured by session checkpoints)."""
        return self._rng

    @property
    def services(self) -> Dict[str, "LocalSummaryService"]:
        """Per-peer local summary services (real-content mode)."""
        return dict(self._services)

    @property
    def databases(self) -> Dict[str, LocalDatabase]:
        return dict(self._databases)

    @property
    def described(self) -> Dict[str, Set[str]]:
        """Per-domain set of partners the installed global summary describes."""
        return {sp_id: set(peers) for sp_id, peers in self._described.items()}

    def domain_of(self, peer_id: str) -> Optional[Domain]:
        if peer_id in self._domains:
            return self._domains[peer_id]
        sp_id = self._assignment.get(peer_id)
        return self._domains.get(sp_id) if sp_id is not None else None

    # -- content configuration ----------------------------------------------------------------

    def attach_databases(
        self, databases: Mapping[str, LocalDatabase], rebuild_summaries: bool = True
    ) -> None:
        """Attach real databases to peers and build their local summaries."""
        if self._background is None:
            raise ProtocolError(
                "attach_databases requires a background knowledge at construction"
            )
        from repro.core.service import LocalSummaryService

        for peer_id, database in databases.items():
            if peer_id not in self._overlay.links:
                raise NetworkError(f"unknown peer {peer_id!r}")
            self._databases[peer_id] = database
            service = LocalSummaryService(
                peer_id, self._background, database=database
            )
            if self._obs is not None:
                service.observability = self._obs
            if rebuild_summaries:
                service.rebuild_from_database()
            self._services[peer_id] = service
        self._content = SummaryContentModel(self._queries, self._databases)

    def use_planned_content(
        self, matching_fraction: float = 0.1, seed: int = 0
    ) -> PlannedContentModel:
        """Switch to the content-free evaluation mode of Table 3."""
        model = PlannedContentModel(
            self._overlay.peer_ids, matching_fraction=matching_fraction, seed=seed
        )
        self._content = model
        return model

    def local_summaries(self) -> Dict[str, SummaryHierarchy]:
        return {
            peer_id: service.summary for peer_id, service in self._services.items()
        }

    # -- persistence hooks ---------------------------------------------------------------------

    def attach_store(self, target: object) -> None:
        """Point the maintenance engine at a persistent store.

        ``target`` is a store path or an opened
        :class:`~repro.store.StoreBackend`.  Reconciliations then archive
        each domain's head (global summary + per-partner local summaries,
        content-addressed) and :meth:`cold_start_domain` can rebuild a
        restarted summary peer from it.  Attachment itself sends no messages
        and draws no randomness, so it never perturbs a running simulation.
        Note that checkpoints do not capture the attachment: re-attach after
        ``SystemBuilder.from_checkpoint``, exactly like the background
        knowledge.  The system keeps using the backend until
        :meth:`detach_store` — detach before closing a backend you opened,
        or the next materialising reconciliation will fail archiving its
        head.
        """
        from repro.store.backend import open_store
        from repro.store.snapshots import DomainHeadArchive, SnapshotStore

        backend = open_store(target)
        snapshots = SnapshotStore(backend)
        snapshots.observability = self._obs
        self._maintenance.attach_store(
            snapshots,
            DomainHeadArchive(backend),
            background=self._background,
        )

    def detach_store(self) -> None:
        """Stop archiving reconciliation heads (see :meth:`attach_store`)."""
        self._maintenance.detach_store()

    def cold_start_domain(self, sp_id: str) -> ColdStartRecord:
        """Store-backed cold start of one domain's restarted summary peer.

        The domain's global summary is installed from the archived head
        (snapshot-hash lookup) and only the partners that changed since —
        new joiners and stale pushers — are pulled, instead of re-reconciling
        every partner from scratch.  See
        :meth:`repro.core.maintenance.MaintenanceEngine.cold_start`.
        """
        domain = self._domains.get(sp_id)
        if domain is None:
            raise ProtocolError(f"{sp_id!r} is not a live summary peer")
        online = self._overlay.online_ids.intersection(self._members(sp_id))
        local = self.local_summaries() if self._services else None
        # An unchanged partner is not visited: it is available as listed.
        visits, messages = self._maintenance.cold_start_ring(domain, online, local)
        return self._ring_round(
            domain, set(visits), messages,
            lambda reached: self._maintenance.cold_start(
                domain, local, online.difference(visits) | reached, self._simulator.now
            ),
        )

    # -- fault injection -----------------------------------------------------------------------

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The installed fault injector, or None (infallible network)."""
        return self._faults

    def install_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Install a fault plan: create the injector and schedule its events.

        Every scheduled adversity (partition, heal, domain failure, massacre,
        flash crowd) goes through the same declarative event specs as churn
        and modifications, so pending fault events checkpoint and restore like
        any other.  The injector draws from its own seeded RNG; installing a
        plan with no faults leaves every run byte-identical to an uninstalled
        one.
        """
        from repro.network.faults import FaultInjector

        injector = FaultInjector(plan)
        self._faults = injector
        for at, spec in plan.event_specs():
            self.schedule_event_from_spec(spec, at=at)
        return injector

    def attach_fault_state(self, injector: FaultInjector) -> None:
        """Adopt an already-live injector (checkpoint restore).

        Unlike :meth:`install_fault_plan` this schedules nothing: the pending
        fault events travel in the checkpoint's event queue and are restored
        with it.
        """
        self._faults = injector

    def _ensure_faults(self) -> FaultInjector:
        if self._faults is None:
            from repro.network.faults import FaultInjector, FaultPlan

            self._faults = FaultInjector(FaultPlan())
        return self._faults

    def _send(self, message_type: MessageType, *args, **options):
        """:func:`repro.core.domain.send` with this system's counter, plan and obs."""
        return send(self._counter, self._faults, message_type, *args, obs=self._obs, **options)

    # -- observability -------------------------------------------------------------------------

    @property
    def observability(self) -> Optional["Observability"]:
        """The installed observability hook, or None (uninstrumented run)."""
        return self._obs

    def install_observability(self, obs: Optional["Observability"]) -> None:
        """Install (or remove, with ``None``) the metrics+trace hook.

        Recording is strictly read-only with respect to protocol state: it
        draws no randomness, sends no messages, and its span ids come from
        counters, so an instrumented run stays byte-identical in answers,
        message counters and RNG state to an uninstrumented one.
        """
        self._obs = obs
        self._router.observability = obs
        for service in self._services.values():
            service.observability = obs
        if self._maintenance._snapshots is not None:  # noqa: SLF001
            self._maintenance._snapshots.observability = obs  # noqa: SLF001
        self._runtime.install_observability(obs)
        if obs is not None:
            obs.bind_sim_clock(lambda: self._simulator.now)

    # -- construction --------------------------------------------------------------------------

    def build_domains(
        self, summary_peers: Optional[List[str]] = None
    ) -> ConstructionReport:
        """Run the construction protocol and install the domains."""
        from repro.core.construction import DomainBuilder

        local = self.local_summaries() if self._services else None
        report = DomainBuilder(self._config, rng=self._rng).build(
            self._overlay,
            summary_peers=summary_peers,
            local_summaries=local,
            counter=self._counter,
            now=self._simulator.now,
        )
        self._domains = report.domains
        self._assignment = dict(report.assignment)
        for sp_id, domain in self._domains.items():
            self._described[sp_id] = set(domain.partner_ids)
        return report

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation (process scheduled churn/modification events)."""
        return self._runtime.run(until=until)

    # -- traffic reporting -----------------------------------------------------------------------------

    def update_traffic_report(self, duration_seconds: float) -> TrafficReport:
        """Push + reconciliation traffic, normalised per node per second (eq. 1)."""
        return TrafficReport.from_counter(
            self._counter,
            duration_seconds=duration_seconds,
            peer_count=self._overlay.size,
            message_types=list(UPDATE_MESSAGE_TYPES),
        )

    def query_traffic_report(self, duration_seconds: float) -> TrafficReport:
        return TrafficReport.from_counter(
            self._counter,
            duration_seconds=duration_seconds,
            peer_count=self._overlay.size,
            message_types=list(QUERY_MESSAGE_TYPES),
        )
