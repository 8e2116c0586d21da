"""Peer dynamicity: joins, departures, failures, summary-peer departures.

Section 4.3 of the paper.  In large P2P systems the arrival/departure rate
dominates the data modification rate, so churn is the main driver of global
summary staleness.  The system's event handlers below schedule churn as
declarative event specs (so pending events checkpoint), decide *when* each
handler fires, and run the fault plan's events — partitions and their heal,
correlated domain failures, summary-peer massacres, flash crowds — through
the same paths.

Membership is two records, the system's ``assignment`` (peer → summary peer)
and each domain's cooperation list with its partner distances, and the
system changes them in three ways only:

* a **join** lists the peer in a domain and assigns it there;
* a **departure** unassigns the peer; its listing stays, a stale description,
  until the next reconciliation omits it;
* an **omission** unlists the peer and unassigns it when its assignment
  names that domain: a reconciliation or cold start leaves out a partner it
  cannot reach ("descriptions of unavailable data will be then omitted"),
  or a reclaiming summary peer takes a partner back.

So every assigned peer is online, and the live domain it is assigned to
lists it with a partner distance.  The reverse does not hold: a departed
peer stays listed until its domain reconciles.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.content import PlannedContentModel
from repro.core.domain import Domain
from repro.core.freshness import Freshness
from repro.exceptions import NetworkError, ProtocolError
from repro.network.churn import LifetimeDistribution, lifetime_distribution
from repro.network.messages import MessageType


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
        if peer_id in self._domains:
            self._summary_peer_departs(peer_id, graceful, now)
            self._described.pop(peer_id, None)
            self._derived_sets.pop(peer_id, None)
            return
        # A departure unassigns the peer; its listing stays, stale, until the
        # next reconciliation.  A graceful one first pushes a freshness update
        # (2, or 1 in 1-bit mode); a silent failure sends nothing.
        sp_id = self._assignment.pop(peer_id, None)
        due = (
            graceful
            and sp_id in self._domains
            and self._maintenance.push_departure(self._domains[sp_id], peer_id, now=now)
        )
        self._overlay.set_online(peer_id, False)
        if due:
            self._run_reconciliation(sp_id)

    def _reconcile_if_due(self, sp_id: Optional[str]) -> None:
        if sp_id is not None:
            self._run_reconciliation(sp_id)

    def _handle_rejoin(self, peer_id: str) -> None:
        if self._overlay.is_online(peer_id):
            return
        if isinstance(self._content, PlannedContentModel):
            self._content.mark_rejoined(peer_id)
        if self._try_reclaim_domain(peer_id):
            return
        self._reconcile_if_due(self._join(peer_id, self._simulator.now))

    # -- membership writes ----------------------------------------------------------------------

    def _join(self, peer_id: str, now: float) -> Optional[str]:
        """A (re)connecting peer looks for a domain through its neighbours.

        If one of its neighbours is in a live domain (as a partner or its
        summary peer), the peer sends its local summary to that summary peer
        and joins with freshness value 1 — meaning "pull me at the next
        reconciliation".  Otherwise it falls back to a selective walk; a peer
        the walk does not place stays online and unassigned.  Returns the
        summary peer whose domain the join tipped over α, if any.
        """
        self._overlay.set_online(peer_id, True)
        live = self._live_domain_of
        sp_id = next(filter(None, map(live, self._overlay.neighbors(peer_id))), None)
        if sp_id is None:
            target, hops = self._overlay.selective_walk(
                peer_id,
                stop_condition=lambda candidate: live(candidate) is not None,
                max_hops=self._config.selective_walk_max_hops,
                rng=self._rng,
            )
            if target is not None:
                sp_id, hops = live(target), max(hops, 1)
            if hops:
                self._counter.record_type(MessageType.FIND, hops)
            if sp_id is None:
                return None
        domain = self._domains[sp_id]
        self._counter.record_type(MessageType.LOCALSUM)
        domain.add_partner(
            peer_id,
            distance=self._overlay.latency(peer_id, sp_id),
            freshness=Freshness.STALE,
            now=now,
        )
        self._assignment[peer_id] = sp_id
        if domain.needs_reconciliation(self._config.freshness_threshold):
            return sp_id
        return None

    def _live_domain_of(self, peer_id: str) -> Optional[str]:
        """The live domain ``peer_id`` is, or is assigned to, or None."""
        if peer_id in self._domains:
            return peer_id
        # Only live domains count: in a checkpoint written before omissions
        # unassigned, a peer can still name a summary peer that has departed.
        sp_id = self._assignment.get(peer_id)
        return sp_id if sp_id in self._domains else None

    def _members(self, sp_id: str) -> List[str]:
        """The peers assigned to ``sp_id``, in its listing order."""
        assigned_to = self._assignment.get
        return [p for p in self._domains[sp_id].partner_ids if assigned_to(p) == sp_id]

    def _summary_peer_departs(self, sp_id: str, graceful: bool, now: float) -> None:
        """A summary peer leaves (``release``) or fails; its members re-join.

        A graceful departure sends ``release`` to every partner it lists: it
        cannot tell a member from a stale listing.  A silent failure sends
        nothing; its members discover it on their next push or query, which
        is modelled by re-joining them here at the same selective-walk cost.
        Only the members are unassigned and look for a new domain: a listed
        peer that has since joined another domain stays there.  Their joins
        do not trigger a reconciliation.
        """
        members = self._members(sp_id)
        domain = self._domains.pop(sp_id)
        if graceful:
            self._counter.record_type(MessageType.RELEASE, len(domain.partner_ids))
        self._overlay.set_online(sp_id, False)
        for peer_id in members:
            del self._assignment[peer_id]
        for peer_id in members:
            self._join(peer_id, now)

    def _unassign_omitted(self, domain: Domain, omitted: List[str]) -> None:
        """An omission: a peer ``domain`` no longer lists is not assigned to it."""
        sp_id = domain.summary_peer_id
        for peer_id in omitted:
            if self._assignment.get(peer_id) == sp_id and not domain.is_partner(peer_id):
                del self._assignment[peer_id]

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
            # Omitted from its current domain and listed here; the assignment
            # is re-pointed in place, which keeps its position in the map.
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

        While split, a reconciliation omits the partners it cannot reach
        ("descriptions of unavailable data will be then omitted"): they are
        unlisted and unassigned, online but domainless.  Section 4.3 gives an
        orphan no summary peer of its own side, so it waits for the heal;
        after the merge each one re-joins through the normal join, charged
        like any late join.
        """
        faults = self._ensure_faults()
        faults.clear_partition()
        now = self._simulator.now
        for peer_id in self._overlay.peer_ids:
            if peer_id in self._domains:
                continue
            if not self._overlay.is_online(peer_id):
                continue
            # Not ``peer_id in assignment``: a checkpoint written before
            # omissions unassigned can hold peers assigned to a domain that
            # no longer lists them, and those must re-join too.
            sp_id = self._assignment.get(peer_id)
            if (
                sp_id is not None
                and sp_id in self._domains
                and self._domains[sp_id].is_partner(peer_id)
            ):
                continue  # still validly attached
            self._assignment.pop(peer_id, None)
            self._reconcile_if_due(self._join(peer_id, now))

    def _handle_domain_failure(self, spec: Mapping[str, object]) -> None:
        """Correlated failure: whole domains (members + summary peer) die silently."""
        faults = self._ensure_faults()
        count = max(1, int(spec.get("count", 1)))  # type: ignore[arg-type]
        summary_peers = sorted(self._domains)
        if not summary_peers:
            return
        chosen = faults.rng.sample(summary_peers, min(count, len(summary_peers)))
        for sp_id in sorted(chosen):
            for peer_id in self._members(sp_id):
                self._handle_departure(peer_id, graceful=False)
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

