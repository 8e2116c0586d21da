"""Summary maintenance: push (data modification) and pull (reconciliation).

Section 4.2 of the paper.  Partners watch their local summary; when it has
drifted enough they *push* a one-message freshness update to their summary
peer.  The summary peer watches the fraction of old descriptions in its
cooperation list; when it reaches the threshold α it *pulls* everybody through
a ring-style reconciliation: a single message carrying the new global summary
travels from partner to partner, each one merging its current local summary
in, and comes back to the summary peer which installs the new version and
resets every freshness value.

Two costs, only one of them the paper's.  The paper costs a reconciliation in
*messages* — the ring, ``len(available) + 1`` hops — and that is always
charged in full, together with the removals and the freshness reset.  The
merge that materialises the new global summary is local CPU the paper does
not count; :meth:`Domain.merge_global_summary` skips it when no contribution
moved since the installed summary was merged (the result would be the same
cell for cell) and merges from empty otherwise.

:class:`MaintenanceEngine` is runtime-agnostic: every method takes the
current virtual time as an explicit ``now`` argument and never touches a
clock, scheduler, or :mod:`repro.runtime` backend directly.  Keep it that way
— it is what lets the same maintenance logic run unchanged under the serial
simulator and the concurrent backend.  The system's handlers at the end of
this module decide *when* a push or a reconciliation runs, read the clock,
and send the push and the ring through the fault layer when one is
installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.config import ProtocolConfig
from repro.core.content import PlannedContentModel
from repro.core.domain import Domain
from repro.core.freshness import Freshness
from repro.exceptions import StoreError
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fuzzy.background import BackgroundKnowledge
    from repro.saintetiq.hierarchy import SummaryHierarchy
    from repro.store.snapshots import DomainHeadArchive, SnapshotStore


@dataclass
class ReconciliationRecord:
    """One executed reconciliation (diagnostics for the experiments)."""

    summary_peer_id: str
    time: float
    participants: List[str]
    removed_partners: List[str]
    messages: int


@dataclass
class ColdStartRecord:
    """One store-backed domain cold start (see :meth:`MaintenanceEngine.cold_start`)."""

    summary_peer_id: str
    time: float
    #: Snapshot hash the global summary was installed from (``None`` when the
    #: cold start fell back to a full reconciliation).
    restored_snapshot: Optional[str]
    #: Partners that had to re-ship their local summary (the delta since the head).
    changed_partners: List[str]
    removed_partners: List[str]
    #: Ring messages actually spent.
    messages: int
    #: Ring messages a full reconciliation would have spent instead.
    full_messages: int
    fallback: bool = False

    @property
    def messages_saved(self) -> int:
        return self.full_messages - self.messages


@dataclass
class MaintenanceStats:
    """How many reconciliations and cold starts one engine ran.

    Messages are not counted here: the engine's :class:`MessageCounter` is
    the one tally of what a run sent (``count(PUSH)``,
    ``count(RECONCILIATION)``).
    """

    reconciliations: int = 0
    cold_starts: int = 0

    def reconciliation_frequency(self, duration_seconds: float) -> float:
        """``F_rec`` of the cost model: reconciliations per second."""
        if duration_seconds <= 0:
            return 0.0
        return self.reconciliations / duration_seconds


class MaintenanceEngine:
    """Implements the push/pull maintenance of the global summaries.

    Every push and ring hop is charged to :attr:`counter`, the run's one
    tally of messages; lost pushes and hops are charged there by the
    protocol.  :attr:`stats` counts reconciliations and cold starts only.
    """

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        counter: Optional[MessageCounter] = None,
    ) -> None:
        self._config = config or ProtocolConfig()
        self._counter = counter if counter is not None else MessageCounter()
        self._stats = MaintenanceStats()
        self._snapshots: Optional["SnapshotStore"] = None
        self._archive: Optional["DomainHeadArchive"] = None
        self._background: Optional["BackgroundKnowledge"] = None

    @property
    def config(self) -> ProtocolConfig:
        return self._config

    @property
    def counter(self) -> MessageCounter:
        return self._counter

    @property
    def stats(self) -> MaintenanceStats:
        return self._stats

    # -- persistence hooks -------------------------------------------------------------------

    def attach_store(
        self,
        snapshots: "SnapshotStore",
        archive: "DomainHeadArchive",
        background: Optional["BackgroundKnowledge"] = None,
    ) -> None:
        """Enable store-backed maintenance.

        Once attached, every materialising reconciliation files its result in
        the archive (global summary + per-partner local summaries, all
        content-addressed), and :meth:`cold_start` can rebuild a restarted
        summary peer's global summary from that head instead of pulling every
        partner through a full ring.  ``background`` is needed to rehydrate
        archived hierarchies during a cold start.

        The engine holds the store for as long as it stays attached: call
        :meth:`detach_store` before closing the underlying backend, or the
        next materialising reconciliation will fail trying to archive its
        head.
        """
        self._snapshots = snapshots
        self._archive = archive
        self._background = background

    def detach_store(self) -> None:
        """Stop archiving heads (call before closing the attached backend)."""
        self._snapshots = None
        self._archive = None
        self._background = None

    @property
    def store_attached(self) -> bool:
        return self._archive is not None and self._snapshots is not None

    def archived_head(self, summary_peer_id: str) -> Optional[Dict[str, object]]:
        """The archived head of one domain, or None (no store / never recorded)."""
        if self._archive is None:
            return None
        return self._archive.head(summary_peer_id)

    def record_metadata_head(self, domain: Domain, now: float = 0.0) -> None:
        """Archive a partner-list-only head (planned-content mode).

        Planned simulations carry no hierarchies, so reconciliations normally
        leave the archive empty — and a summary peer restarting after a crash
        would have nothing to reclaim its domain from.  A metadata head (the
        partner roster with no snapshot digests) is enough for the churn
        handler to rebuild the cooperation list; the subsequent cold start
        then falls back to a metadata reconciliation.
        """
        if self._archive is None:
            return
        self._archive.record_head(
            domain.summary_peer_id,
            None,
            [[peer_id, None] for peer_id in domain.partner_ids],
            time=now,
        )

    def _record_head(
        self,
        domain: Domain,
        contributions: List[tuple],
        now: float,
    ) -> Optional[str]:
        """Archive the domain's merged state; returns the global summary hash."""
        assert self._snapshots is not None and self._archive is not None
        if domain.global_summary is None:
            return None
        partner_hashes = [
            [peer_id, self._snapshots.put_hierarchy(hierarchy)]
            for peer_id, hierarchy in contributions
        ]
        digest = self._snapshots.put_hierarchy(domain.global_summary)
        self._archive.record_head(
            domain.summary_peer_id, digest, partner_hashes, time=now
        )
        return digest

    # -- push phase --------------------------------------------------------------------------

    def push_stale(self, domain: Domain, peer_id: str, now: float = 0.0) -> bool:
        """A partner flags its descriptions as needing a refresh.

        Returns True when the push tipped the domain over the α threshold
        (i.e. a reconciliation should now run).
        """
        if not domain.is_partner(peer_id):
            return False
        self._counter.record_type(MessageType.PUSH)
        domain.cooperation.mark_stale(peer_id, now=now)
        return domain.needs_reconciliation(self._config.freshness_threshold)

    def push_departure(self, domain: Domain, peer_id: str, now: float = 0.0) -> bool:
        """A partner announces it is leaving (freshness 2, or 1 in 1-bit mode)."""
        if not domain.is_partner(peer_id):
            return False
        self._counter.record_type(MessageType.PUSH)
        domain.cooperation.mark_departed(peer_id, now=now)
        return domain.needs_reconciliation(self._config.freshness_threshold)

    # -- pull phase ---------------------------------------------------------------------------

    def reconcile(
        self,
        domain: Domain,
        local_summaries: Optional[Mapping[str, SummaryHierarchy]] = None,
        available_partners: Optional[Set[str]] = None,
        now: float = 0.0,
    ) -> ReconciliationRecord:
        """Run one ring reconciliation on ``domain``.

        The paper's cost — the ring's messages, the reconciliation count and
        record, the removal of unavailable partners, the freshness reset, the
        archived head when a store is attached — is paid in full on every
        call.  The local merge behind the new global summary is paid only when
        a contribution moved since the installed one was merged (see
        :meth:`Domain.merge_global_summary`); the summary installed afterwards
        is the same either way.

        Parameters
        ----------
        local_summaries:
            Current local summaries of the partners; when provided the new
            global summary is materialised by merging them (available partners
            only).  When omitted the reconciliation only updates the metadata
            (cooperation list, message counts) — the mode used by the
            large-scale, content-free simulations.
        available_partners:
            Partners currently reachable.  Unreachable ones do not take part
            and their entries are removed: "descriptions of unavailable data
            will be then omitted" — with nobody left to contribute, a
            materialising reconciliation leaves no global summary at all.
        """
        available, removed, message_count = self._ring(domain, available_partners)
        self._counter.record_type(MessageType.RECONCILIATION, message_count)
        self._stats.reconciliations += 1

        for peer_id in removed:
            domain.remove_partner(peer_id)
        domain.cooperation.reset_all(now=now)

        if local_summaries is not None:
            contributions = domain.live_contributions(local_summaries, available)
            domain.merge_global_summary(contributions)
            if self.store_attached:
                self._record_head(domain, contributions, now)

        return ReconciliationRecord(
            summary_peer_id=domain.summary_peer_id,
            time=now,
            participants=available,
            removed_partners=removed,
            messages=message_count,
        )

    # -- cold start ---------------------------------------------------------------------------

    def cold_start(
        self,
        domain: Domain,
        local_summaries: Optional[Mapping[str, SummaryHierarchy]] = None,
        available_partners: Optional[Set[str]] = None,
        now: float = 0.0,
    ) -> ColdStartRecord:
        """Rebuild a restarted summary peer's global summary from the store.

        Instead of the full ring reconciliation — one message through *every*
        available partner, each re-shipping its local summary — the summary
        peer looks up its archived head (:class:`DomainHeadArchive`), installs
        the archived contributions by snapshot-hash lookup, and only contacts
        the partners that *changed since*: new partners the head never saw and
        partners whose freshness is no longer FRESH.  The merge visits
        partners in exactly the order a full reconciliation would, so when
        unchanged partners really are unchanged the installed global summary
        is byte-identical to a full reconciliation's — at ``len(changed) + 1``
        ring messages instead of ``len(available) + 1``.

        Falls back to :meth:`reconcile` (and says so in the record) when no
        head was ever archived for this domain, or when no local summaries
        are supplied (planned-content mode has nothing to merge).
        """
        if not self.store_attached:
            raise StoreError(
                "cold_start needs an attached store: call attach_store(...) "
                "with the snapshot store and domain-head archive first"
            )
        assert self._snapshots is not None and self._archive is not None
        head = self._archive.head(domain.summary_peer_id)

        # ``full_messages``: what the full reconciliation this replaces would
        # have charged.
        available, removed, full_messages = self._ring(domain, available_partners)

        if head is None or local_summaries is None:
            fallback = self.reconcile(
                domain,
                local_summaries=local_summaries,
                available_partners=available_partners,
                now=now,
            )
            return ColdStartRecord(
                summary_peer_id=domain.summary_peer_id,
                time=now,
                restored_snapshot=None,
                changed_partners=list(fallback.participants),
                removed_partners=list(fallback.removed_partners),
                messages=fallback.messages,
                full_messages=full_messages,
                fallback=True,
            )

        if self._background is None:
            raise StoreError(
                "cold_start must rehydrate archived hierarchies: attach the "
                "store with the common background knowledge"
            )

        stored_pairs = [(peer_id, digest) for peer_id, digest in head["partners"]]
        stored_partners: Dict[str, str] = dict(stored_pairs)
        changed = set(domain.changed_partners_since(set(stored_partners)))
        sp_id = domain.summary_peer_id

        # Plan the contributions in full-reconciliation order: ``None`` marks
        # a live local summary (the partner must re-ship it), a digest marks a
        # store rehydration (no message needed).
        plan: List[tuple] = []
        for peer_id in available:
            if peer_id in changed:
                live = local_summaries.get(peer_id)
                if live is not None and not live.is_empty():
                    plan.append((peer_id, None, live))
            elif peer_id in stored_partners:
                plan.append((peer_id, stored_partners[peer_id], None))
        if sp_id in local_summaries and sp_id not in available:
            own = local_summaries[sp_id]
            if not own.is_empty():
                # The summary peer's own contribution is local (never a ring
                # message); when it still hashes to the archived digest it
                # counts as unchanged, keeping the no-merge fast path
                # reachable in the common nothing-changed restart.
                own_digest = own.content_address()
                if stored_partners.get(sp_id) == own_digest:
                    plan.append((sp_id, own_digest, None))
                else:
                    plan.append((sp_id, None, own))

        changed_available = [p for p in available if p in changed]
        message_count = 0
        if changed_available:
            message_count = self._ring_messages(len(changed_available))
            self._counter.record_type(MessageType.RECONCILIATION, message_count)
        self._stats.cold_starts += 1

        for peer_id in removed:
            domain.remove_partner(peer_id)
        domain.cooperation.reset_all(now=now)

        restored_snapshot: Optional[str] = None
        planned_pairs = [(peer_id, digest) for peer_id, digest, _live in plan]
        if plan and planned_pairs == stored_pairs:
            # Fast path: nothing changed since the head — install the archived
            # global summary directly by hash lookup, no merge at all.
            domain.install_global_summary(
                self._snapshots.get_hierarchy(head["global_summary"], self._background)
            )
            restored_snapshot = head["global_summary"]
        elif plan:
            contributions = [
                (
                    peer_id,
                    live
                    if digest is None
                    else self._snapshots.get_hierarchy(digest, self._background),
                )
                for peer_id, digest, live in plan
            ]
            domain.merge_global_summary(contributions)
            restored_snapshot = self._record_head(domain, contributions, now)

        return ColdStartRecord(
            summary_peer_id=sp_id,
            time=now,
            restored_snapshot=restored_snapshot,
            changed_partners=changed_available,
            removed_partners=removed,
            messages=message_count,
            full_messages=full_messages,
        )

    def _ring(
        self, domain: Domain, available_partners: Optional[Set[str]]
    ) -> Tuple[List[str], List[str], int]:
        """``(available, removed, ring messages)`` of one reconciliation.

        ``available`` and ``removed`` split the partners in cooperation-list
        order: those in ``available_partners`` (by default, every partner not
        marked unavailable) and the rest.
        """
        partner_ids = domain.partner_ids
        if available_partners is None:
            freshness_of = domain.cooperation.freshness_of
            available_partners = {
                p for p in partner_ids
                if freshness_of(p) is not Freshness.UNAVAILABLE
            }
        available = [p for p in partner_ids if p in available_partners]
        removed = [p for p in partner_ids if p not in available_partners]
        return available, removed, self._ring_messages(len(available))

    def _ring_messages(self, participants: int) -> int:
        """One message circulates: SP -> p1 -> ... -> pk -> SP (or, with
        ring hops not counted, one message in all)."""
        if not self._config.count_reconciliation_ring_hops:
            return 1
        return participants + 1 if participants else 1


class _PushPull:
    """Modification, push and reconciliation (Section 4.2) of
    :class:`SummaryManagementSystem`: when each fires, and what faults do to it."""

    def schedule_modifications(
        self, duration_seconds: float, rate_per_peer_per_second: float
    ) -> int:
        """Schedule local data modification events (Poisson per peer).

        Each event marks the peer's data as modified and pushes to its summary
        peer whatever the drift (ROADMAP item 4 wires ``drift_threshold``).
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
        if not self._overlay.is_online(peer_id):
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
        obs = self._obs
        delivered, retries = True, 0
        if self._faults is not None:
            # The push can fail: retry at once, up to push_max_retries times.
            # An exhausted budget means the summary peer never learns of the
            # modification — the description simply stays stale until the
            # next reconciliation, exactly the degradation the staleness
            # metrics measure.
            reached, _missed, retries, lost = self._faults.send(
                peer_id, [sp_id], self._config.push_max_retries, self._counter, obs,
                "repro_push_retries_total", retry_partitioned=True,
            )
            delivered = bool(reached)
            if lost:
                self._counter.record_type(MessageType.PUSH, lost)
        if obs is not None:
            obs.observe("repro_push_retries_per_delta", retries)
            if not delivered:
                obs.inc("repro_push_failed_total")
        if delivered and self._maintenance.push_stale(
            self._domains[sp_id], peer_id, now=now
        ):
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
        # A partner takes part in the reconciliation only if it is reachable
        # and still belongs to this domain (it may have re-joined elsewhere
        # since its departure; its stale entry is then dropped here).
        online_ids = self._overlay.online_ids
        assigned_to = self._assignment.get
        online = {
            peer_id
            for peer_id in domain.partner_ids
            if peer_id in online_ids and assigned_to(peer_id) == sp_id
        }
        missed_ring: Dict[str, float] = {}
        if self._faults is not None:
            # Partition-separated partners cannot take the ring message; they
            # are treated as unavailable and omitted (the paper's rule):
            # unlisted and unassigned, until the heal re-joins them.  A ring hop
            # lost on a lossy link is retried at once; a partner whose hop
            # never arrives misses this round (it is re-added below as stale —
            # described by nothing until the next round reaches it).
            online, missed, _retries, lost = self._faults.send(
                sp_id, online, self._config.reconciliation_max_retries,
                self._counter, self._obs, "repro_reconciliation_retries_total",
            )
            if lost:
                self._counter.record_type(MessageType.RECONCILIATION, lost)
            missed_ring = {peer_id: domain.distance_to(peer_id) for peer_id in missed}
        local = self.local_summaries() if self._services else None
        now = self._simulator.now
        record = self._maintenance.reconcile(
            domain,
            local_summaries=local,
            available_partners=online,
            now=now,
        )
        self._described[sp_id] = set(domain.partner_ids)
        planned = isinstance(self._content, PlannedContentModel)
        if planned:
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
        # A partner cut off by a partition is out of the domain until the heal.
        self._unassign_omitted(domain, record.removed_partners)
        if planned and self._maintenance.store_attached:
            # Planned runs have no hierarchies to archive, but a metadata
            # head (the partner roster) is what lets a crashed summary
            # peer reclaim its domain on rejoin.
            self._maintenance.record_metadata_head(domain, now=now)
