"""Peer dynamicity: joins, departures, failures, summary-peer departures.

Section 4.3 of the paper.  In large P2P systems the arrival/departure rate
dominates the data modification rate, so churn is the main driver of global
summary staleness.  :class:`ChurnHandler` implements what a join, a
departure or a failure does to the domains.  The system's event handlers at
the end of this module schedule churn as declarative event specs (so pending
events checkpoint), decide *when* each handler fires, and run the fault
plan's events — partitions and their heal, correlated domain failures,
summary-peer massacres, flash crowds — through the same paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.config import ProtocolConfig
from repro.core.content import PlannedContentModel
from repro.core.domain import Domain
from repro.core.freshness import Freshness
from repro.core.maintenance import MaintenanceEngine
from repro.exceptions import NetworkError, ProtocolError
from repro.network.churn import LifetimeDistribution, lifetime_distribution
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay


@dataclass
class ChurnEventOutcome:
    """What a churn handler did: messages sent, reconciliation triggered, etc."""

    event: str
    peer_id: str
    domain_id: Optional[str] = None
    messages: int = 0
    reconciliation_due: bool = False
    new_domain_id: Optional[str] = None
    details: Dict[str, object] = field(default_factory=dict)


class ChurnHandler:
    """Implements the join/leave/failure behaviours of Section 4.3."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        counter: Optional[MessageCounter] = None,
        maintenance: Optional[MaintenanceEngine] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._config = config or ProtocolConfig()
        self._counter = counter if counter is not None else MessageCounter()
        self._maintenance = maintenance or MaintenanceEngine(self._config, self._counter)
        self._rng = rng or random.Random(0)

    @property
    def maintenance(self) -> MaintenanceEngine:
        return self._maintenance

    # -- peer joins ----------------------------------------------------------------------------

    def peer_join(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        peer_id: str,
        now: float = 0.0,
    ) -> ChurnEventOutcome:
        """A (re)connecting peer looks for a domain through its neighbours.

        If one of its neighbours is a partner (or a summary peer), the peer
        sends its local summary to that summary peer and joins with freshness
        value 1 — meaning "pull me at the next reconciliation".  Otherwise it
        falls back to a selective walk.
        """
        overlay.set_online(peer_id, True)
        outcome = ChurnEventOutcome(event="join", peer_id=peer_id)

        sp_id = self._find_domain_via_neighbors(overlay, domains, assignment, peer_id)
        walk_messages = 0
        if sp_id is None:
            sp_id, walk_messages = self._find_domain_via_walk(
                overlay, domains, assignment, peer_id
            )
            if walk_messages:
                self._counter.record_type(MessageType.FIND, walk_messages)
        if sp_id is None:
            outcome.details["orphan"] = True
            outcome.messages = walk_messages
            return outcome

        domain = domains[sp_id]
        self._counter.record_type(MessageType.LOCALSUM)
        distance = overlay.latency(peer_id, sp_id)
        domain.add_partner(
            peer_id, distance=distance, freshness=Freshness.STALE, now=now
        )
        assignment[peer_id] = sp_id

        outcome.domain_id = sp_id
        outcome.new_domain_id = sp_id
        outcome.messages = walk_messages + 1
        outcome.reconciliation_due = domain.needs_reconciliation(
            self._config.freshness_threshold
        )
        return outcome

    def _find_domain_via_neighbors(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        peer_id: str,
    ) -> Optional[str]:
        for neighbour in overlay.neighbors(peer_id):
            if neighbour in domains:
                return neighbour
            # A neighbour may still reference a summary peer that has since
            # departed; only live domains count.
            sp_id = assignment.get(neighbour)
            if sp_id is not None and sp_id in domains:
                return sp_id
        return None

    def _find_domain_via_walk(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        peer_id: str,
    ) -> tuple:
        def reaches_live_domain(candidate: str) -> bool:
            if candidate in domains:
                return True
            sp_id = assignment.get(candidate)
            return sp_id is not None and sp_id in domains

        target, hops = overlay.selective_walk(
            peer_id,
            stop_condition=reaches_live_domain,
            max_hops=self._config.selective_walk_max_hops,
            rng=self._rng,
        )
        if target is None:
            return None, hops
        sp_id = target if target in domains else assignment[target]
        return sp_id, max(hops, 1)

    # -- peer departures ----------------------------------------------------------------------

    def peer_leave(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        peer_id: str,
        now: float = 0.0,
    ) -> ChurnEventOutcome:
        """A graceful departure: push a freshness update, then go offline."""
        outcome = ChurnEventOutcome(event="leave", peer_id=peer_id)
        sp_id = assignment.pop(peer_id, None)
        if sp_id is not None and sp_id in domains:
            domain = domains[sp_id]
            due = self._maintenance.push_departure(domain, peer_id, now=now)
            outcome.domain_id = sp_id
            outcome.messages = 1
            outcome.reconciliation_due = due
        overlay.set_online(peer_id, False)
        return outcome

    def peer_fail(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        peer_id: str,
        now: float = 0.0,
    ) -> ChurnEventOutcome:
        """A silent failure: no message; stale descriptions linger until reconciliation."""
        outcome = ChurnEventOutcome(event="fail", peer_id=peer_id)
        sp_id = assignment.pop(peer_id, None)
        if sp_id is not None and sp_id in domains:
            # Nothing is sent and no freshness changes: the partner's stale
            # descriptions stay until the next reconciliation (Section 4.3).
            outcome.domain_id = sp_id
        overlay.set_online(peer_id, False)
        return outcome

    # -- summary peer departures -----------------------------------------------------------------

    def summary_peer_leave(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        sp_id: str,
        now: float = 0.0,
    ) -> ChurnEventOutcome:
        """A summary peer leaves gracefully: ``release`` every partner.

        Each released partner runs a selective walk to find a new summary peer
        and joins it (with freshness 1, as for any late join).
        """
        if sp_id not in domains:
            raise ProtocolError(f"{sp_id!r} is not a summary peer")
        domain = domains.pop(sp_id)
        outcome = ChurnEventOutcome(event="sp_leave", peer_id=sp_id, domain_id=sp_id)

        partners = list(domain.partner_ids)
        self._counter.record_type(MessageType.RELEASE, len(partners))
        outcome.messages += len(partners)

        overlay.set_online(sp_id, False)

        relocated: List[str] = []
        for peer_id in partners:
            assignment.pop(peer_id, None)
            if not overlay.is_online(peer_id):
                continue
            join_outcome = self.peer_join(overlay, domains, assignment, peer_id, now=now)
            outcome.messages += join_outcome.messages
            if join_outcome.new_domain_id is not None:
                relocated.append(peer_id)
        outcome.details["relocated"] = relocated
        return outcome

    def summary_peer_fail(
        self,
        overlay: Overlay,
        domains: Dict[str, Domain],
        assignment: Dict[str, str],
        sp_id: str,
        now: float = 0.0,
    ) -> ChurnEventOutcome:
        """A summary peer fails silently: partners discover it lazily.

        The domain disappears; partners keep believing they are partners until
        their next push or query fails, at which point they look for a new
        summary peer (the protocol engine models that discovery by re-joining
        them here, charging the same selective-walk traffic but no ``release``
        messages).
        """
        if sp_id not in domains:
            raise ProtocolError(f"{sp_id!r} is not a summary peer")
        domain = domains.pop(sp_id)
        outcome = ChurnEventOutcome(event="sp_fail", peer_id=sp_id, domain_id=sp_id)

        overlay.set_online(sp_id, False)

        for peer_id in list(domain.partner_ids):
            assignment.pop(peer_id, None)
            if not overlay.is_online(peer_id):
                continue
            join_outcome = self.peer_join(overlay, domains, assignment, peer_id, now=now)
            outcome.messages += join_outcome.messages
        return outcome


class _Dynamicity:
    """Churn and fault events of :class:`SummaryManagementSystem`: what is
    scheduled, as declarative specs, and what each event does when it fires."""

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
            if not self._overlay.is_online(peer_id):
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
    # Every churn/modification/fault event is scheduled through a plain JSON
    # spec so that pending events can be checkpointed and re-created on
    # restore (the callbacks themselves are closures and cannot be persisted).

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
                    lifetime=lifetime_distribution(
                        float(spec["lifetime_mean_seconds"]),  # type: ignore[arg-type]
                        float(spec["lifetime_median_seconds"]),  # type: ignore[arg-type]
                    ),
                    downtime=float(spec["downtime_seconds"]),  # type: ignore[arg-type]
                    graceful_fraction=float(spec["graceful_fraction"]),  # type: ignore[arg-type]
                    rejoin=True,
                )

    def _handle_departure(self, peer_id: str, graceful: bool) -> None:
        if not self._overlay.is_online(peer_id):
            return
        now = self._simulator.now
        if isinstance(self._content, PlannedContentModel):
            self._content.mark_departed(peer_id)
        churn = self._churn
        if peer_id in self._domains:
            leave = churn.summary_peer_leave if graceful else churn.summary_peer_fail
            leave(self._overlay, self._domains, self._assignment, peer_id, now=now)
            self._described.pop(peer_id, None)
            self._derived_sets.pop(peer_id, None)
            return
        leave = churn.peer_leave if graceful else churn.peer_fail
        self._reconcile_if_due(
            leave(self._overlay, self._domains, self._assignment, peer_id, now=now)
        )

    def _reconcile_if_due(self, outcome: ChurnEventOutcome) -> None:
        if outcome.reconciliation_due and outcome.domain_id is not None:
            self._run_reconciliation(outcome.domain_id)

    def _handle_rejoin(self, peer_id: str) -> None:
        if self._overlay.is_online(peer_id):
            return
        if isinstance(self._content, PlannedContentModel):
            self._content.mark_rejoined(peer_id)
        if self._try_reclaim_domain(peer_id):
            return
        self._reconcile_if_due(self._churn.peer_join(
            self._overlay, self._domains, self._assignment, peer_id, now=self._simulator.now
        ))

    def _try_reclaim_domain(self, peer_id: str) -> bool:
        """A restarted summary peer reclaims its archived domain from the store.

        When a store is attached and the rejoining peer has an archived head
        (it was a summary peer before it died), it comes back *as* a summary
        peer: its former partners that are online and not otherwise engaged
        re-attach (one ``sumpeer`` announcement each), and the domain state is
        rebuilt through the store-backed cold start (:meth:`cold_start_domain`)
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
        self._overlay.set_online(peer_id, True)
        domain = Domain.create(peer_id, mode=self._config.freshness_mode)
        self._domains[peer_id] = domain
        self._described[peer_id] = set()

        former = [pid for pid, _digest in head["partners"] if pid != peer_id]
        reclaimed = 0
        for partner_id in former:
            if not self._overlay.is_online(partner_id) or partner_id in self._domains:
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
            if not self._overlay.is_online(peer_id):
                continue
            sp_id = self._assignment.get(peer_id)
            if (
                sp_id is not None
                and sp_id in self._domains
                and self._domains[sp_id].is_partner(peer_id)
            ):
                continue  # still validly attached
            self._assignment.pop(peer_id, None)
            self._reconcile_if_due(self._churn.peer_join(
                self._overlay, self._domains, self._assignment, peer_id, now=now
            ))

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
                if peer_id != sp_id and self._overlay.is_online(peer_id):
                    self._handle_departure(peer_id, graceful=False)
            if sp_id in self._domains and self._overlay.is_online(sp_id):
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
            if sp_id in self._domains and self._overlay.is_online(sp_id):
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
            if not self._overlay.is_online(peer_id)
        ]
        if limit is not None:
            offline = offline[: max(0, int(limit))]  # type: ignore[arg-type]
        for peer_id in offline:
            self._handle_rejoin(peer_id)

