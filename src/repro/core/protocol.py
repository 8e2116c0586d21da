"""The end-to-end protocol engine.

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
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability

from repro.core.config import ProtocolConfig
from repro.core.construction import ConstructionReport, DomainBuilder
from repro.core.content import ContentModel, PlannedContentModel, SummaryContentModel
from repro.core.cooperation import CooperationList
from repro.core.domain import Domain
from repro.core.dynamicity import ChurnHandler
from repro.core.maintenance import ColdStartRecord, MaintenanceEngine
from repro.core.routing import (
    DomainQueryOutcome,
    QueryRouter,
    QueryRoutingResult,
    QueryScratch,
    RoutingPolicy,
)
from repro.core.freshness import Freshness
from repro.database.engine import LocalDatabase
from repro.database.query import SelectionQuery
from repro.exceptions import NetworkError, ProtocolError
from repro.fuzzy.background import BackgroundKnowledge
from repro.network.churn import LifetimeDistribution
from repro.network.faults import FaultInjector, FaultPlan
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter, TrafficReport
from repro.network.overlay import Overlay
from repro.network.peer import PeerRole
from repro.network.simulator import Simulator
from repro.runtime import ExecutionBackend, RuntimeSpec, create_backend
from repro.core.service import LocalSummaryService
from repro.querying.proposition import Proposition
from repro.querying.reformulation import reformulate
from repro.saintetiq.hierarchy import SummaryHierarchy

#: Message types that count toward the *update* cost (Figure 6 / eq. 1).
UPDATE_MESSAGE_TYPES = (MessageType.PUSH, MessageType.RECONCILIATION)
#: Message types that count toward the *query* cost (Figure 7 / eq. 2).
QUERY_MESSAGE_TYPES = (
    MessageType.QUERY,
    MessageType.QUERY_RESPONSE,
    MessageType.FLOOD_REQUEST,
    MessageType.FLOOD_QUERY,
)


@dataclass
class StalenessSnapshot:
    """Worst-case and real staleness figures for one sampled query.

    ``worst_*`` follows the paper's pessimistic accounting (every stale
    partner selected in ``P_Q`` is a false positive; every stale matching
    partner outside ``P_Q`` is a false negative).  ``real_*`` applies the
    probability that a stale partner's data actually changed with respect to
    the query (Figure 5's correction).
    """

    query_id: int
    relevant_count: int
    worst_false_positives: int
    worst_false_negatives: int
    real_false_positives: int
    real_false_negatives: int

    @property
    def worst_stale_fraction(self) -> float:
        if self.relevant_count == 0:
            return 0.0
        return (
            self.worst_false_positives + self.worst_false_negatives
        ) / self.relevant_count

    @property
    def real_false_negative_fraction(self) -> float:
        if self.relevant_count == 0:
            return 0.0
        return self.real_false_negatives / self.relevant_count

    @property
    def real_stale_fraction(self) -> float:
        if self.relevant_count == 0:
            return 0.0
        return (
            self.real_false_positives + self.real_false_negatives
        ) / self.relevant_count


class _DomainSets(NamedTuple):
    """The routing sets of one domain that depend on more than its cooperation list.

    They are functions of checkpoint state — the cooperation list, the
    described set and the peers' online flags — derived on first use and kept
    until one of the stamps recorded beside them moves.  Internal: routing
    only reads them and never hands them out.
    """

    cooperation: CooperationList
    #: The ``_described`` value ``scope`` was derived from (None: no entry).
    described: Optional[Set[str]]
    #: ``(cooperation.membership_version, overlay.version)`` at derivation.
    versions: Tuple[int, int]
    #: ``partners ∩ described``: whom the global summary can designate.
    scope: Set[str]
    #: ``partners ∩ online``: who could have answered.
    online_partners: Set[str]


class SummaryManagementSystem:
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
        # The execution backend owns the virtual clock and decides how
        # scheduled events run (single-threaded simulator by default, asyncio
        # fan-out on a passed ``ConcurrentBackend``).  ``self._simulator`` stays
        # bound to the backend's clock so every clock read and checkpoint
        # hook below is backend-agnostic.
        self._runtime = create_backend(runtime)
        self._rng = self._runtime.create_rng(seed)
        self._counter = MessageCounter()
        self._simulator = self._runtime.clock
        self._maintenance = MaintenanceEngine(self._config, self._counter)
        self._churn = ChurnHandler(
            self._config, self._counter, self._maintenance, rng=self._rng
        )
        self._router = QueryRouter()
        self._builder = DomainBuilder(self._config, rng=self._rng)

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
        for peer_id, database in databases.items():
            peer = self._overlay.peer(peer_id)
            peer.attach_database(database)
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
        online = {
            peer_id
            for peer_id in domain.partner_ids
            if self._overlay.peer(peer_id).online
            and self._assignment.get(peer_id) == sp_id
        }
        local = self.local_summaries() if self._services else None
        record = self._maintenance.cold_start(
            domain,
            local_summaries=local,
            available_partners=online,
            now=self._simulator.now,
        )
        self._described[sp_id] = set(domain.partner_ids)
        return record

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
        injector = FaultInjector(plan)
        self._faults = injector
        for partition in plan.partitions:
            spec: Dict[str, object] = {
                "kind": "partition",
                "fraction": partition.fraction,
            }
            if partition.groups is not None:
                spec["groups"] = [list(group) for group in partition.groups]
            self.schedule_event_from_spec(spec, at=partition.at)
            if partition.heal_at is not None:
                self.schedule_event_from_spec({"kind": "heal"}, at=partition.heal_at)
        for failure in plan.domain_failures:
            self.schedule_event_from_spec(
                {"kind": "domain_failure", "count": failure.count}, at=failure.at
            )
        for massacre in plan.massacres:
            spec = {
                "kind": "massacre",
                "fraction": massacre.fraction,
                "graceful": massacre.graceful,
            }
            if massacre.rejoin_after is not None:
                spec["rejoin_after"] = massacre.rejoin_after
            self.schedule_event_from_spec(spec, at=massacre.at)
        for crowd in plan.flash_crowds:
            spec = {"kind": "flash_crowd"}
            if crowd.rejoin_count is not None:
                spec["rejoin_count"] = crowd.rejoin_count
            self.schedule_event_from_spec(spec, at=crowd.at)
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
            self._faults = FaultInjector(FaultPlan())
        return self._faults

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
        local = self.local_summaries() if self._services else None
        report = self._builder.build(
            self._overlay,
            summary_peers=summary_peers,
            local_summaries=local,
            counter=self._counter,
            now=self._simulator.now,
        )
        self._domains = report.domains
        self._assignment = dict(report.assignment)
        for peer_id, sp_id in self._assignment.items():
            distance = self._domains[sp_id].distance_to(peer_id)
            self._overlay.peer(peer_id).join_domain(sp_id, distance)
        for sp_id, domain in self._domains.items():
            self._described[sp_id] = set(domain.partner_ids)
            # Summary peers know each other (long-range links of Section 5.2.2).
            self._overlay.peer(sp_id).known_summary_peers = set(self._domains) - {sp_id}
        return report

    # -- churn & modification simulation --------------------------------------------------------

    def schedule_churn(
        self,
        duration_seconds: float,
        lifetime: Optional[LifetimeDistribution] = None,
        downtime_seconds: float = 600.0,
        graceful_fraction: float = 0.9,
        rejoin: bool = True,
        include_summary_peers: bool = False,
    ) -> int:
        """Schedule departure/rejoin events for every partner peer.

        Each peer draws lifetimes from ``lifetime`` (Table 3's skewed
        distribution by default) and alternates online/offline periods until
        ``duration_seconds``.  Departures are graceful with probability
        ``graceful_fraction`` (a push message is then sent), silent failures
        otherwise.  Returns the number of scheduled departure events.
        """
        lifetime = lifetime or LifetimeDistribution()
        scheduled = 0
        for peer_id in self._overlay.peer_ids:
            if peer_id in self._domains and not include_summary_peers:
                continue
            if not self._overlay.peer(peer_id).online:
                continue
            scheduled += self._schedule_peer_cycle(
                peer_id,
                start=0.0,
                horizon=duration_seconds,
                lifetime=lifetime,
                downtime=downtime_seconds,
                graceful_fraction=graceful_fraction,
                rejoin=rejoin,
            )
        return scheduled

    def _schedule_peer_cycle(
        self,
        peer_id: str,
        start: float,
        horizon: float,
        lifetime: LifetimeDistribution,
        downtime: float,
        graceful_fraction: float,
        rejoin: bool,
    ) -> int:
        depart_at = start + lifetime.sample(self._rng)
        if depart_at >= horizon:
            return 0
        graceful = self._rng.random() < graceful_fraction
        self.schedule_event_from_spec(
            {
                "kind": "departure",
                "peer_id": peer_id,
                "graceful": graceful,
                "rejoin": rejoin,
                "depart_at": depart_at,
                "downtime_seconds": downtime,
                "horizon": horizon,
                "graceful_fraction": graceful_fraction,
                "lifetime_mean_seconds": lifetime.mean_seconds,
                "lifetime_median_seconds": lifetime.median_seconds,
            },
            at=depart_at,
        )
        return 1

    # -- declarative event specs ---------------------------------------------------------------
    #
    # Every churn/modification event is scheduled through a plain JSON spec so
    # that pending events can be checkpointed and re-created on restore (the
    # callbacks themselves are closures and cannot be persisted).

    def event_callback_from_spec(self, spec: Mapping[str, object]):
        """Build the simulator callback described by a declarative event spec."""
        kind = spec.get("kind")
        if kind == "departure":
            return lambda: self._run_departure_event(spec)
        if kind == "rejoin":
            return lambda: self._handle_rejoin(str(spec["peer_id"]))
        if kind == "modification":
            return lambda: self._handle_modification(str(spec["peer_id"]))
        if kind == "partition":
            return lambda: self._handle_partition(spec)
        if kind == "heal":
            return lambda: self._handle_heal()
        if kind == "domain_failure":
            return lambda: self._handle_domain_failure(spec)
        if kind == "massacre":
            return lambda: self._handle_massacre(spec)
        if kind == "flash_crowd":
            return lambda: self._handle_flash_crowd(spec)
        raise ProtocolError(f"unknown scheduled-event kind: {kind!r}")

    def schedule_event_from_spec(self, spec: Dict[str, object], at: float) -> None:
        actor = spec.get("peer_id")
        self._runtime.schedule_at(
            at,
            self.event_callback_from_spec(spec),
            label=str(spec["kind"]),
            spec=spec,
            actor=None if actor is None else str(actor),
        )

    def _run_departure_event(self, spec: Mapping[str, object]) -> None:
        peer_id = str(spec["peer_id"])
        self._handle_departure(peer_id, bool(spec["graceful"]))
        if spec["rejoin"]:
            rejoin_at = float(spec["depart_at"]) + float(spec["downtime_seconds"])  # type: ignore[arg-type]
            horizon = float(spec["horizon"])  # type: ignore[arg-type]
            if rejoin_at < horizon:
                self.schedule_event_from_spec(
                    {"kind": "rejoin", "peer_id": peer_id}, at=rejoin_at
                )
                # Schedule the next cycle after the peer is back online.
                self._schedule_peer_cycle(
                    peer_id,
                    start=rejoin_at,
                    horizon=horizon,
                    lifetime=LifetimeDistribution(
                        mean_seconds=float(spec["lifetime_mean_seconds"]),  # type: ignore[arg-type]
                        median_seconds=float(spec["lifetime_median_seconds"]),  # type: ignore[arg-type]
                    ),
                    downtime=float(spec["downtime_seconds"]),  # type: ignore[arg-type]
                    graceful_fraction=float(spec["graceful_fraction"]),  # type: ignore[arg-type]
                    rejoin=True,
                )

    def _handle_departure(self, peer_id: str, graceful: bool) -> None:
        if not self._overlay.peer(peer_id).online:
            return
        now = self._simulator.now
        if isinstance(self._content, PlannedContentModel):
            self._content.mark_departed(peer_id)
        if peer_id in self._domains:
            if graceful:
                self._churn.summary_peer_leave(
                    self._overlay, self._domains, self._assignment, peer_id, now=now
                )
            else:
                self._churn.summary_peer_fail(
                    self._overlay, self._domains, self._assignment, peer_id, now=now
                )
            self._described.pop(peer_id, None)
            self._derived_sets.pop(peer_id, None)
            return
        if graceful:
            outcome = self._churn.peer_leave(
                self._overlay, self._domains, self._assignment, peer_id, now=now
            )
        else:
            outcome = self._churn.peer_fail(
                self._overlay, self._domains, self._assignment, peer_id, now=now
            )
        if outcome.reconciliation_due and outcome.domain_id is not None:
            self._run_reconciliation(outcome.domain_id)

    def _handle_rejoin(self, peer_id: str) -> None:
        if self._overlay.peer(peer_id).online:
            return
        if isinstance(self._content, PlannedContentModel):
            self._content.mark_rejoined(peer_id)
        if self._try_reclaim_domain(peer_id):
            return
        outcome = self._churn.peer_join(
            self._overlay, self._domains, self._assignment, peer_id, now=self._simulator.now
        )
        if outcome.reconciliation_due and outcome.domain_id is not None:
            self._run_reconciliation(outcome.domain_id)

    def _try_reclaim_domain(self, peer_id: str) -> bool:
        """A restarted summary peer reclaims its archived domain from the store.

        When a store is attached and the rejoining peer has an archived head
        (it was a summary peer before it died), it comes back *as* a summary
        peer: its former partners that are online and not otherwise engaged
        re-attach (one ``sumpeer`` announcement each), and the domain state is
        rebuilt through the store-backed cold start — the PR 4 fast path —
        instead of the peer rejoining someone else's domain and the archived
        domain staying dead.  Returns False (caller falls through to the
        normal join) when there is nothing to reclaim.
        """
        if not self._maintenance.store_attached or peer_id in self._domains:
            return False
        head = self._maintenance.archived_head(peer_id)
        if head is None:
            return False
        now = self._simulator.now
        peer = self._overlay.peer(peer_id)
        peer.role = PeerRole.SUPERPEER
        peer.go_online()
        domain = Domain.create(peer_id, mode=self._config.freshness_mode)
        self._domains[peer_id] = domain
        self._described[peer_id] = set()
        peer.join_domain(peer_id, 0.0)
        peer.known_summary_peers = set(self._domains) - {peer_id}
        for other_sp in self._domains:
            if other_sp != peer_id:
                self._overlay.peer(other_sp).known_summary_peers.add(peer_id)

        former = [pid for pid, _digest in head["partners"] if pid != peer_id]
        reclaimed = 0
        for partner_id in former:
            partner = self._overlay.peer(partner_id)
            if not partner.online or partner_id in self._domains:
                continue
            try:
                distance = self._overlay.latency(partner_id, peer_id)
            except NetworkError:
                continue  # no longer connected to its old summary peer
            old_sp = self._assignment.get(partner_id)
            if old_sp is not None:
                old_domain = self._domains.get(old_sp)
                if old_domain is not None and old_domain.is_partner(partner_id):
                    old_domain.remove_partner(partner_id)
            domain.add_partner(
                partner_id, distance=distance, freshness=Freshness.STALE, now=now
            )
            self._assignment[partner_id] = peer_id
            partner.join_domain(peer_id, distance)
            reclaimed += 1
        # The returning summary peer announces itself (one sumpeer message per
        # reclaimed partner; a lone announcement when nobody was reclaimable).
        self._counter.record_type(MessageType.SUMPEER, max(1, reclaimed))
        self.cold_start_domain(peer_id)
        return True

    # -- fault events --------------------------------------------------------------------------

    def _handle_partition(self, spec: Mapping[str, object]) -> None:
        """Split the overlay into isolated groups (explicit or by fraction)."""
        faults = self._ensure_faults()
        groups = spec.get("groups")
        if groups:
            faults.set_partition([list(group) for group in groups])  # type: ignore[union-attr]
            return
        fraction = float(spec.get("fraction", 0.5))  # type: ignore[arg-type]
        peers = sorted(self._overlay.peer_ids)
        faults.rng.shuffle(peers)
        cut = max(1, min(len(peers) - 1, round(fraction * len(peers))))
        faults.set_partition([peers[:cut], peers[cut:]])

    def _handle_heal(self) -> None:
        """Re-merge the partition and repair the orphans it left behind.

        While split, reconciliations drop unreachable partners from their
        domains ("descriptions of unavailable data will be then omitted"),
        leaving those peers online but domainless.  After the merge each
        orphan re-joins through the normal churn path — charged like any
        late join.
        """
        faults = self._ensure_faults()
        faults.clear_partition()
        now = self._simulator.now
        for peer_id in self._overlay.peer_ids:
            if peer_id in self._domains:
                continue
            peer = self._overlay.peer(peer_id)
            if not peer.online:
                continue
            sp_id = self._assignment.get(peer_id)
            if (
                sp_id is not None
                and sp_id in self._domains
                and self._domains[sp_id].is_partner(peer_id)
            ):
                continue  # still validly attached
            self._assignment.pop(peer_id, None)
            peer.leave_domain()
            outcome = self._churn.peer_join(
                self._overlay, self._domains, self._assignment, peer_id, now=now
            )
            if outcome.reconciliation_due and outcome.domain_id is not None:
                self._run_reconciliation(outcome.domain_id)

    def _handle_domain_failure(self, spec: Mapping[str, object]) -> None:
        """Correlated failure: whole domains (partners + summary peer) die silently."""
        faults = self._ensure_faults()
        count = max(1, int(spec.get("count", 1)))  # type: ignore[arg-type]
        summary_peers = sorted(self._domains)
        if not summary_peers:
            return
        chosen = faults.rng.sample(summary_peers, min(count, len(summary_peers)))
        for sp_id in sorted(chosen):
            domain = self._domains.get(sp_id)
            if domain is None:
                continue
            for peer_id in list(domain.partner_ids):
                if peer_id != sp_id and self._overlay.peer(peer_id).online:
                    self._handle_departure(peer_id, graceful=False)
            if sp_id in self._domains and self._overlay.peer(sp_id).online:
                self._handle_departure(sp_id, graceful=False)

    def _handle_massacre(self, spec: Mapping[str, object]) -> None:
        """A fraction of all summary peers dies in the same instant."""
        faults = self._ensure_faults()
        fraction = float(spec.get("fraction", 0.5))  # type: ignore[arg-type]
        graceful = bool(spec.get("graceful", False))
        rejoin_after = spec.get("rejoin_after")
        summary_peers = sorted(self._domains)
        if not summary_peers:
            return
        count = max(1, min(len(summary_peers), round(fraction * len(summary_peers))))
        chosen = sorted(faults.rng.sample(summary_peers, count))
        now = self._simulator.now
        for sp_id in chosen:
            if sp_id in self._domains and self._overlay.peer(sp_id).online:
                self._handle_departure(sp_id, graceful=graceful)
                if rejoin_after is not None:
                    self.schedule_event_from_spec(
                        {"kind": "rejoin", "peer_id": sp_id},
                        at=now + float(rejoin_after),  # type: ignore[arg-type]
                    )

    def _handle_flash_crowd(self, spec: Mapping[str, object]) -> None:
        """Every offline peer (or the first ``rejoin_count``) rejoins at once."""
        limit = spec.get("rejoin_count")
        offline = [
            peer_id
            for peer_id in self._overlay.peer_ids
            if not self._overlay.peer(peer_id).online
        ]
        if limit is not None:
            offline = offline[: max(0, int(limit))]  # type: ignore[arg-type]
        for peer_id in offline:
            self._handle_rejoin(peer_id)

    def schedule_modifications(
        self, duration_seconds: float, rate_per_peer_per_second: float
    ) -> int:
        """Schedule local data modification events (Poisson per peer).

        Each event marks the peer's data as modified and, if the resulting
        drift warrants it, sends a push message to its summary peer.
        """
        if rate_per_peer_per_second <= 0:
            return 0
        scheduled = 0
        for peer_id in self._overlay.peer_ids:
            if peer_id in self._domains:
                continue
            at = self._rng.expovariate(rate_per_peer_per_second)
            while at < duration_seconds:
                self.schedule_event_from_spec(
                    {"kind": "modification", "peer_id": peer_id}, at=at
                )
                scheduled += 1
                at += self._rng.expovariate(rate_per_peer_per_second)
        return scheduled

    def _handle_modification(self, peer_id: str) -> None:
        if not self._overlay.peer(peer_id).online:
            return
        now = self._simulator.now
        if isinstance(self._content, PlannedContentModel):
            self._content.mark_modified(peer_id)
        sp_id = self._assignment.get(peer_id)
        if sp_id is None or sp_id not in self._domains:
            return
        obs = self._obs
        if obs is None:
            self._push_modification(peer_id, sp_id, now)
            return
        obs.inc("repro_modifications_total")
        with obs.span("modification", {"peer": peer_id, "summary_peer": sp_id}):
            self._push_modification(peer_id, sp_id, now)

    def _push_modification(self, peer_id: str, sp_id: str, now: float) -> None:
        """Deliver one modification's delta push (possibly through faults)."""
        domain = self._domains[sp_id]
        obs = self._obs
        faults = self._faults
        if faults is not None and faults.disrupts_link(peer_id, sp_id):
            # The push can fail: retry at once, up to push_max_retries times.
            # An exhausted budget means the summary peer never learns of the
            # modification — the description simply stays stale until the
            # next reconciliation, exactly the degradation the staleness
            # metrics measure.
            delivered, retries = faults.attempt_delivery(
                peer_id, sp_id, self._config.push_max_retries
            )
            lost = retries + (0 if delivered else 1)
            if lost:
                self._counter.record_type(MessageType.PUSH, lost)
                reason = (
                    "link loss" if faults.reachable(peer_id, sp_id) else "partitioned"
                )
                self._counter.record_dropped(reason, lost)
                if obs is not None:
                    obs.inc("repro_fault_dropped_total", lost, reason=reason)
            if retries:
                self._counter.record_retry(retries)
                if obs is not None:
                    obs.inc("repro_push_retries_total", retries)
            if obs is not None:
                obs.observe("repro_push_retries_per_delta", retries)
            if not delivered:
                if obs is not None:
                    obs.inc("repro_push_failed_total")
                return
        elif obs is not None:
            obs.observe("repro_push_retries_per_delta", 0)
        due = self._maintenance.push_stale(domain, peer_id, now=now)
        if due:
            self._run_reconciliation(sp_id)

    def _run_reconciliation(self, sp_id: str) -> None:
        domain = self._domains.get(sp_id)
        if domain is None:
            return
        obs = self._obs
        if obs is None:
            self._reconcile_domain(sp_id, domain)
            return
        obs.inc("repro_reconciliations_total")
        with obs.span(
            "reconciliation",
            {"summary_peer": sp_id, "partners": len(domain.partner_ids)},
        ) as span:
            installed = domain.global_summary
            self._reconcile_domain(sp_id, domain)
            # What the round cost locally: a kept summary is the same object.
            summary = domain.global_summary
            merged = summary is not None and summary is not installed
            span.attrs["merged"] = merged
        obs.inc("repro_reconciliation_merges_total", int(merged))

    def _reconcile_domain(self, sp_id: str, domain: Domain) -> None:
        obs = self._obs
        # A partner takes part in the reconciliation only if it is reachable
        # and still belongs to this domain (it may have re-joined elsewhere
        # since its departure; its stale entry is then dropped here).
        online = {
            peer_id
            for peer_id in domain.partner_ids
            if self._overlay.peer(peer_id).online
            and self._assignment.get(peer_id) == sp_id
        }
        faults = self._faults
        if faults is not None and faults.partitioned:
            # Partition-separated partners cannot take the ring message; they
            # are treated as unavailable and their descriptions omitted (the
            # paper's rule) — the post-heal repair re-joins them.
            cut = {p for p in online if not faults.reachable(sp_id, p)}
            if cut:
                online -= cut
                self._counter.record_dropped("partitioned", len(cut))
                if obs is not None:
                    obs.inc("repro_fault_dropped_total", len(cut), reason="partitioned")
        missed_ring: Dict[str, float] = {}
        if faults is not None and faults.lossy and online:
            # Each ring hop can be lost and is retried at once; a partner
            # whose hop never arrives misses this round (it is re-added below
            # as stale — described by nothing until the next round reaches it).
            surviving = set()
            retransmissions = 0
            lost_hops = 0
            budget = self._config.reconciliation_max_retries
            for peer_id in sorted(online):
                delivered, retries = faults.attempt_delivery(sp_id, peer_id, budget)
                retransmissions += retries
                lost_hops += retries + (0 if delivered else 1)
                if delivered:
                    surviving.add(peer_id)
                else:
                    missed_ring[peer_id] = domain.distance_to(peer_id)
            if lost_hops:
                self._counter.record_type(MessageType.RECONCILIATION, lost_hops)
                self._counter.record_dropped("link loss", lost_hops)
                if obs is not None:
                    obs.inc(
                        "repro_fault_dropped_total", lost_hops, reason="link loss"
                    )
            if retransmissions:
                self._counter.record_retry(retransmissions)
                if obs is not None:
                    obs.inc("repro_reconciliation_retries_total", retransmissions)
            online = surviving
        local = self.local_summaries() if self._services else None
        now = self._simulator.now
        self._maintenance.reconcile(
            domain,
            local_summaries=local,
            available_partners=online,
            now=now,
        )
        self._described[sp_id] = set(domain.partner_ids)
        if isinstance(self._content, PlannedContentModel):
            # Only the partners that actually took the ring message had their
            # modifications incorporated; a partner whose hop was lost keeps
            # its modified flag (and its stale freshness, re-added below).
            for peer_id in domain.partner_ids:
                self._content.clear_modification(peer_id)
        for peer_id, distance in sorted(missed_ring.items()):
            # Still online and assigned here — it only missed the ring message.
            domain.add_partner(
                peer_id, distance=distance, freshness=Freshness.STALE, now=now
            )
        if isinstance(self._content, PlannedContentModel):
            if self._maintenance.store_attached:
                # Planned runs have no hierarchies to archive, but a metadata
                # head (the partner roster) is what lets a crashed summary
                # peer reclaim its domain on rejoin.
                self._maintenance.record_metadata_head(
                    domain, now=self._simulator.now
                )

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation (process scheduled churn/modification events)."""
        return self._runtime.run(until=until)

    # -- query processing --------------------------------------------------------------------------

    def query_scratch(self) -> QueryScratch:
        """Throwaway copies, at their current values, of all a query may advance.

        Answering against the returned value — once or a whole batch — leaves
        this system exactly as it was; the ids, draws and tallies the queries
        would have left behind are on the scratch.
        """
        own = self._own_unless(None)
        return QueryScratch(
            itertools.count(self._query_counter).__next__,
            own.content.scratch_copy(),
            None if own.faults is None else own.faults.scratch_copy(),
        )

    def _own_unless(self, scratch: Optional[QueryScratch]) -> QueryScratch:
        """``scratch``, or this system's own members: the query then advances
        the system itself (simulator semantics)."""
        if scratch is not None:
            return scratch
        if self._content is None:
            raise ProtocolError(
                "configure content first (attach_databases or use_planned_content)"
            )
        return QueryScratch(
            self.next_query_id, self._content, self._faults, self._counter
        )

    def register_query(
        self, query: SelectionQuery, scratch: QueryScratch
    ) -> Tuple[int, Optional[Proposition]]:
        """Register a real query: returns its id and its proposition (if flexible)."""
        query_id = scratch.next_query_id()
        proposition: Optional[Proposition] = None
        if self._background is not None:
            flexible = reformulate(query, self._background)
            if flexible.is_flexible():
                proposition = Proposition.from_query(
                    SelectionQuery(
                        flexible.relation,
                        flexible.descriptor_predicates(),
                        flexible.select,
                    )
                )
            query = flexible
        scratch.content.register_query(query_id, query)
        return query_id, proposition

    def next_query_id(self) -> int:
        """Allocate an id for a planned (content-free) query."""
        query_id = self._query_counter
        self._query_counter += 1
        return query_id

    def pose_query(
        self,
        originator: str,
        query: Optional[SelectionQuery] = None,
        query_id: Optional[int] = None,
        policy: RoutingPolicy = RoutingPolicy.ALL,
        required_results: Optional[int] = None,
        max_domains: Optional[int] = None,
        scratch: Optional[QueryScratch] = None,
    ) -> QueryRoutingResult:
        """Pose a query at ``originator`` and route it with the SQ algorithm.

        With real content, pass ``query``; with planned content, omit it (an
        id is allocated and the matching peers are drawn by the plan).
        ``required_results`` is the ``C_t`` of the cost model: when one domain
        does not provide enough results, the routing extends to further
        domains through inter-domain flooding.

        Everything the query advances — the next id, plan draws or the query
        registry, fault draws and stats, the message tally — is advanced on
        ``scratch`` (see :meth:`query_scratch`); without one, on the system
        itself.
        """
        scratch = self._own_unless(scratch)
        if query is not None and query_id is not None:
            raise ProtocolError(
                "pose_query accepts either query or query_id, not both: a real "
                "query is assigned a fresh id when it is registered"
            )
        proposition: Optional[Proposition] = None
        if query is not None:
            query_id, proposition = self.register_query(query, scratch)
        elif query_id is None:
            query_id = scratch.next_query_id()

        route = (
            scratch, originator, query_id, proposition, policy, required_results,
            max_domains,
        )
        obs = self._obs
        if obs is None:
            return self._route_query(*route)
        obs.inc("repro_queries_total")
        with obs.span("query", {"query_id": query_id, "originator": originator}) as span:
            result = self._route_query(*route)
            span.attrs.update(
                domains_visited=result.domains_visited,
                messages=result.total_messages,
                results=result.results,
            )
        obs.observe("repro_query_domains_visited", result.domains_visited)
        obs.inc("repro_query_messages_total", result.total_messages)
        # Per-domain routing metrics come from the outcomes here, once per
        # query and one registry round-trip per batch, so the router's inner
        # loop stays free of registry traffic.
        if result.domain_outcomes:
            obs.inc("repro_routing_domains_total", len(result.domain_outcomes))
            obs.metrics.observe_many(
                "repro_routing_messages_per_domain",
                [outcome.messages for outcome in result.domain_outcomes],
            )
        if result.flooding_messages:
            obs.inc("repro_query_flooding_messages_total", result.flooding_messages)
        if result.unreachable_domains:
            obs.inc(
                "repro_query_unreachable_probes_total", len(result.unreachable_domains)
            )
        return result

    def _route_query(
        self,
        scratch: QueryScratch,
        originator: str,
        query_id: int,
        proposition: Optional[Proposition],
        policy: RoutingPolicy,
        required_results: Optional[int],
        max_domains: Optional[int],
    ) -> QueryRoutingResult:
        result = QueryRoutingResult(
            query_id=query_id,
            originator=originator,
            policy=policy,
            required_results=required_results,
        )

        home_domain = self.domain_of(originator)
        ordered_domains = self._domain_visit_order(home_domain)
        if not ordered_domains:
            return result

        counter = scratch.counter
        faults = scratch.faults
        partition_active = faults is not None and faults.partitioned
        online_ids = self._overlay.online_ids
        max_retries = self._config.query_max_retries
        previous_outcome: Optional[DomainQueryOutcome] = None
        previous: Optional[Domain] = None
        results_gathered = 0  # running count: avoids re-summing per domain
        visited = 0  # domains actually reached (equals the index when merged)
        flood_requests = flood_queries = 0
        for domain in ordered_domains:
            if max_domains is not None and visited >= max_domains:
                break
            if partition_active and not faults.reachable(
                originator, domain.summary_peer_id
            ):
                # The summary peer sits across the partition: the probe (and
                # its bounded retries) go unanswered, the domain contributes
                # nothing, and the answer is marked degraded instead of the
                # query wedging or failing.
                attempts = 1 + max_retries
                if attempts > 1:
                    counter.record_retry(attempts - 1)
                counter.record_dropped("partitioned", attempts)
                result.unreachable_probe_messages += attempts
                result.unreachable_domains.append(domain.summary_peer_id)
                if self._obs is not None:
                    self._obs.inc(
                        "repro_fault_dropped_total", attempts, reason="partitioned"
                    )
                continue
            visited += 1
            if previous is not None and previous_outcome is not None:
                # Moving past the previous domain requires an inter-domain
                # flooding round started from it (its responders, the
                # originator and the summary peer probe further domains).
                requests, floods = self._router.flooding_messages(
                    self._overlay,
                    previous,
                    previous_outcome.responding_peers,
                    originator,
                    self._domains.keys(),
                    1,
                )
                flood_requests += requests
                flood_queries += floods
            sets = self._domain_sets(domain)
            outcome = self._router.outcome_in_domain(
                query_id,
                domain,
                scratch,
                proposition,
                policy,
                sets.scope,
                sets.online_partners,
                online_ids,
                True,
                max_retries,
            )
            result.domain_outcomes.append(outcome)
            results_gathered += outcome.results
            previous = domain
            previous_outcome = outcome
            if required_results is not None and results_gathered >= required_results:
                break

        routed = sum(outcome.messages for outcome in result.domain_outcomes)
        result.flooding_messages = flood_requests + flood_queries
        result.total_messages = (
            routed + result.flooding_messages + result.unreachable_probe_messages
        )
        # The query's one tally.  A type is recorded — even with a count of
        # zero — exactly when some step of the loop above sends it, which is
        # what keeps the counter's payload the one per-message accounting gave.
        if result.domain_outcomes or result.unreachable_domains:
            counter.record_type(
                MessageType.QUERY,
                routed - results_gathered + result.unreachable_probe_messages,
            )
        if result.domain_outcomes:
            counter.record_type(MessageType.QUERY_RESPONSE, results_gathered)
        if len(result.domain_outcomes) > 1:
            counter.record_type(MessageType.FLOOD_REQUEST, flood_requests)
            counter.record_type(MessageType.FLOOD_QUERY, flood_queries)
        return result

    def _domain_sets(self, domain: Domain) -> _DomainSets:
        """``domain``'s derived routing sets, rebuilt only when a stamp moved."""
        sp_id = domain.summary_peer_id
        cooperation = domain.cooperation
        described = self._described.get(sp_id)
        versions = (cooperation.membership_version, self._overlay.version)
        sets = self._derived_sets.get(sp_id)
        if (
            sets is None
            or sets.versions != versions
            or sets.cooperation is not cooperation
            or sets.described is not described
        ):
            partners = cooperation.partner_set
            sets = self._derived_sets[sp_id] = _DomainSets(
                cooperation,
                described,
                versions,
                partners if described is None else partners & described,
                partners & self._overlay.online_ids,
            )
        return sets

    def _domain_visit_order(self, home: Optional[Domain]) -> List[Domain]:
        domains = list(self._domains.values())
        if home is None:
            return domains
        ordered = [home]
        ordered.extend(domain for domain in domains if domain is not home)
        return ordered

    def stale_described_count(self, sp_id: str) -> int:
        """How many partners domain ``sp_id``'s global summary describes from
        descriptions its cooperation list marks old (0 for an unknown domain)."""
        domain = self._domains.get(sp_id)
        described = self._described.get(sp_id)
        if domain is None or described is None:
            return 0
        return len(domain.cooperation.old_set & described)

    # -- staleness measurement (Figures 4 and 5) -------------------------------------------------------

    def staleness_snapshot(
        self, query_id: Optional[int] = None, scratch: Optional[QueryScratch] = None
    ) -> StalenessSnapshot:
        """Sample the staleness of query answers across every domain.

        Only meaningful in planned-content mode: the plan provides the ground
        truth while the cooperation lists and described sets provide the
        summary-side view.  The id allocated and the plan drawn for a new
        query land on ``scratch`` (default: the system itself).
        """
        if not isinstance(self._content, PlannedContentModel):
            raise ProtocolError("staleness_snapshot requires planned content")
        scratch = self._own_unless(scratch)
        if query_id is None:
            query_id = scratch.next_query_id()
        return self._staleness_of(query_id, scratch)

    def staleness_snapshots(
        self, count: int, scratch: Optional[QueryScratch] = None
    ) -> List[StalenessSnapshot]:
        """Sample ``count`` staleness snapshots: :meth:`staleness_snapshot`
        ``count`` times back to back (consecutive query ids)."""
        if not isinstance(self._content, PlannedContentModel):
            raise ProtocolError("staleness_snapshot requires planned content")
        scratch = self._own_unless(scratch)
        return [
            self._staleness_of(scratch.next_query_id(), scratch)
            for _sample in range(count)
        ]

    def _staleness_of(self, query_id: int, scratch: QueryScratch) -> StalenessSnapshot:
        content = scratch.content
        assert isinstance(content, PlannedContentModel)
        plan = content.matching_peers(query_id)
        online_ids = self._overlay.online_ids

        relevant_count = 0
        worst_fp = worst_fn = real_fp = real_fn = 0
        p_mod = self._config.modification_probability

        for sp_id, domain in self._domains.items():
            cooperation = domain.cooperation
            described = self._described.get(sp_id)
            if described is None:
                described = cooperation.partner_set
            relevant = plan & described
            relevant_count += len(relevant)
            stale = cooperation.old_set
            if not stale:
                continue
            stale_relevant = relevant & stale

            # Worst case (Figure 4): every stale relevant peer contacted is a
            # false positive; every matching stale peer outside P_Q is a false
            # negative.
            worst_fp += len(stale_relevant)
            worst_fn += len((plan & stale) - relevant)

            # Real case (Figure 5): a stale peer selected in P_Q only causes a
            # stale answer if its data actually changed with respect to the
            # query (or disappeared with the peer).  Under the precision-first
            # policy (V = P_Q ∩ P_fresh) false positives vanish and the only
            # residue is the false negatives: stale-but-unchanged peers that
            # were needlessly excluded.
            for peer_id in stale_relevant:
                departed = content.is_departed(peer_id) or peer_id not in online_ids
                if departed:
                    # Its data is gone: a real false positive under the ALL
                    # policy, correctly excluded under the PRECISION policy.
                    real_fp += 1
                    continue
                changed = self._deterministic_draw(query_id, peer_id) < p_mod
                if changed:
                    real_fp += 1
                else:
                    # Still matching but excluded by the PRECISION policy.
                    real_fn += 1

        return StalenessSnapshot(
            query_id=query_id,
            relevant_count=relevant_count,
            worst_false_positives=worst_fp,
            worst_false_negatives=worst_fn,
            real_false_positives=real_fp,
            real_false_negatives=real_fn,
        )

    def _deterministic_draw(self, query_id: int, peer_id: str) -> float:
        """A reproducible pseudo-random number in [0, 1) keyed by (query, peer)."""
        return random.Random(f"{query_id}:{peer_id}").random()

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
