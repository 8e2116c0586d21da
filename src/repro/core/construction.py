"""The summary construction protocol (Section 4.1).

The construction starts at each superpeer (the *summary peer*, SP), which
broadcasts a ``sumpeer`` message with a small TTL.  A peer receiving its first
``sumpeer`` replies with a ``localsum`` message carrying its local summary and
becomes a partner of that SP's domain; a peer that is already a partner
switches only if the new SP is closer (lower latency), in which case it first
sends a ``drop`` message to its old SP.  Peers reached by no broadcast find a
summary peer with a *selective walk* (highest-degree-neighbour random walk)
and the ``find`` message stops as soon as a partner or a summary peer is hit.
It runs before any fault plan is installed: every message is a plain count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.domain import Domain, send
from repro.core.freshness import Freshness
from repro.exceptions import ProtocolError
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.saintetiq.hierarchy import SummaryHierarchy


@dataclass
class ConstructionReport:
    """What the construction protocol did and how much traffic it generated."""

    domains: Dict[str, Domain] = field(default_factory=dict)
    #: peer -> summary peer assignment (excluding the summary peers themselves)
    assignment: Dict[str, str] = field(default_factory=dict)
    orphan_peers: List[str] = field(default_factory=list)
    messages: MessageCounter = field(default_factory=MessageCounter)

    @property
    def domain_count(self) -> int:
        return len(self.domains)

    def domain_of(self, peer_id: str) -> Optional[str]:
        if peer_id in self.domains:
            return peer_id
        return self.assignment.get(peer_id)


class DomainBuilder:
    """Runs the construction protocol over an overlay."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._config = config or ProtocolConfig()
        self._rng = rng or random.Random(0)

    @property
    def config(self) -> ProtocolConfig:
        return self._config

    def build(
        self,
        overlay: Overlay,
        summary_peers: Optional[List[str]] = None,
        local_summaries: Optional[Mapping[str, SummaryHierarchy]] = None,
        counter: Optional[MessageCounter] = None,
        now: float = 0.0,
    ) -> ConstructionReport:
        """Build every domain of the overlay.

        Parameters
        ----------
        overlay:
            The P2P overlay (peers must be marked online/offline already).
        summary_peers:
            Identifiers of the summary peers.  When omitted, the highest-degree
            nodes are elected using ``config.superpeer_fraction``.
        local_summaries:
            Optional mapping ``peer_id -> local summary``; when provided, each
            domain's global summary is materialised by merging its partners'
            summaries (plus the summary peer's own, if present).
        counter:
            Message counter to use; a fresh one is created otherwise.
        """
        report = ConstructionReport()
        report.messages = counter if counter is not None else MessageCounter()

        if summary_peers is None:
            summary_peers = overlay.elect_superpeers(
                fraction=self._config.superpeer_fraction
            )
        if not summary_peers:
            raise ProtocolError("construction needs at least one summary peer")

        for sp_id in summary_peers:
            report.domains[sp_id] = Domain.create(
                sp_id, mode=self._config.freshness_mode
            )

        self._broadcast_phase(overlay, summary_peers, report, now)
        self._orphan_phase(overlay, summary_peers, report, now)

        if local_summaries is not None:
            self._materialise_global_summaries(report, local_summaries)
        return report

    # -- phase 1: sumpeer broadcasts ------------------------------------------------------

    def _broadcast_phase(
        self,
        overlay: Overlay,
        summary_peers: List[str],
        report: ConstructionReport,
        now: float,
    ) -> None:
        ttl = self._config.construction_ttl
        for sp_id in summary_peers:
            if not overlay.is_online(sp_id):
                continue
            # Traffic of the TTL-bounded sumpeer broadcast.
            flood = overlay.flood_message_count(sp_id, ttl)
            send(report.messages, None, MessageType.SUMPEER, count=flood)
            reached = overlay.within_ttl(sp_id, ttl)
            for peer_id, hops in sorted(reached.items(), key=lambda kv: (kv[1], kv[0])):
                if peer_id in report.domains:
                    continue  # other summary peers keep their own domain
                self._consider_partnership(
                    overlay, report, peer_id, sp_id, now=now
                )

    def _consider_partnership(
        self,
        overlay: Overlay,
        report: ConstructionReport,
        peer_id: str,
        sp_id: str,
        now: float,
    ) -> None:
        if not overlay.is_online(peer_id):
            return
        distance = overlay.latency(peer_id, sp_id)
        current_sp = report.assignment.get(peer_id)
        if current_sp is None:
            self._join(report, peer_id, sp_id, distance, now)
            return
        current_distance = report.domains[current_sp].distance_to(peer_id)
        if distance < current_distance:
            # Drop the old partnership, then join the closer summary peer.
            send(report.messages, None, MessageType.DROP, count=1)
            report.domains[current_sp].remove_partner(peer_id)
            self._join(report, peer_id, sp_id, distance, now)

    def _join(
        self,
        report: ConstructionReport,
        peer_id: str,
        sp_id: str,
        distance: float,
        now: float,
    ) -> None:
        send(report.messages, None, MessageType.LOCALSUM, count=1)
        report.domains[sp_id].add_partner(
            peer_id, distance=distance, freshness=Freshness.FRESH, now=now
        )
        report.assignment[peer_id] = sp_id

    # -- phase 2: orphans use a selective walk ---------------------------------------------

    def _orphan_phase(
        self,
        overlay: Overlay,
        summary_peers: List[str],
        report: ConstructionReport,
        now: float,
    ) -> None:
        summary_peer_set = set(summary_peers)
        for peer_id in overlay.peer_ids:
            if not overlay.is_online(peer_id):
                continue
            if peer_id in summary_peer_set or peer_id in report.assignment:
                continue
            target, hops = overlay.selective_walk(
                peer_id,
                stop_condition=lambda candidate: (
                    candidate in summary_peer_set or candidate in report.assignment
                ),
                max_hops=self._config.selective_walk_max_hops,
                rng=self._rng,
            )
            send(report.messages, None, MessageType.FIND, count=max(hops, 1))
            if target is None:
                report.orphan_peers.append(peer_id)
                continue
            sp_id = target if target in summary_peer_set else report.assignment[target]
            distance = overlay.latency(peer_id, sp_id)
            self._join(report, peer_id, sp_id, distance, now)

    # -- global summary materialisation ------------------------------------------------------

    def _materialise_global_summaries(
        self,
        report: ConstructionReport,
        local_summaries: Mapping[str, SummaryHierarchy],
    ) -> None:
        for domain in report.domains.values():
            domain.merge_global_summary(
                domain.live_contributions(local_summaries, domain.partner_ids)
            )
