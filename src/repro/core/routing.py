"""Summary-based query routing (Section 5.2.1 and the flooding extension).

Inside a domain, a query posed at peer ``p`` travels to the summary peer
(1 message), which matches it against the global summary to obtain the set of
relevant peers ``P_Q``; the query is then sent to a routing set ``V`` derived
from ``P_Q`` and the cooperation list:

* ``ALL`` — ``V = P_Q`` (the default of the cost model),
* ``PRECISION`` — ``V = P_Q ∩ P_fresh``: no false positives, possible false
  negatives,
* ``RECALL`` — ``V = P_Q ∪ P_old``: no false negatives, possible false
  positives.

Peers holding matching data answer with one response message.  When the
required number of results exceeds what one domain provides, the inter-domain
flooding extension kicks in: the summary peer asks the answering peers and the
originator to flood their extra-domain neighbours with a small TTL, and also
forwards the request to the other summary peers it knows.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.content import ContentModel
from repro.core.domain import Domain
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.database.query import SelectionQuery
    from repro.network.faults import FaultInjector
    from repro.querying.proposition import Proposition


class RoutingPolicy(enum.Enum):
    """How the routing set ``V`` is derived from ``P_Q`` and the cooperation list."""

    ALL = "all"
    PRECISION = "precision"
    RECALL = "recall"


@dataclass
class DomainQueryOutcome:
    """Result of processing a query inside one domain.

    ``false_positives`` is derived, not stored: the contacted peers that did
    not respond, ``contacted_peers - responding_peers``, computed on each read.
    """

    domain_id: str
    relevant_peers: Set[str] = field(default_factory=set)
    contacted_peers: Set[str] = field(default_factory=set)
    responding_peers: Set[str] = field(default_factory=set)
    false_negatives: Set[str] = field(default_factory=set)
    messages: int = 0

    @property
    def false_positives(self) -> Set[str]:
        return self.contacted_peers - self.responding_peers

    @property
    def results(self) -> int:
        return len(self.responding_peers)

    @property
    def false_positive_rate(self) -> float:
        if not self.contacted_peers:
            return 0.0
        return len(self.false_positives) / len(self.contacted_peers)

    @property
    def false_negative_rate(self) -> float:
        denominator = len(self.responding_peers) + len(self.false_negatives)
        if denominator == 0:
            return 0.0
        return len(self.false_negatives) / denominator


@dataclass
class QueryScratch:
    """Everything answering a query may advance, as one value.

    The query path reads the rest of the system and writes only here, so
    whoever makes this value decides what a query leaves behind: a system's
    own members (``pose_query`` without a scratch — the simulator's ids,
    draws and counters move), or throwaway copies of them
    (``SummaryManagementSystem.query_scratch`` — the system is never written).
    """

    #: Allocates the next query id.
    next_query_id: Callable[[], int]
    #: Planned content: the plan registry and its RNG; real content: the
    #: registry of posed queries.
    content: ContentModel
    #: Link-loss draws and fault statistics; None on an infallible network.
    faults: Optional[FaultInjector] = None
    #: Where the messages are tallied: by type, dropped, retries.
    counter: MessageCounter = field(default_factory=MessageCounter)


@dataclass
class QueryRequest:
    """One query of a batch posed through ``NetworkSession.query_batch``.

    Mirrors the parameters of ``SummaryManagementSystem.pose_query``: a real
    query (``query``), an already-allocated planned id (``query_id``), or
    neither (an id is allocated when the request is posed).
    """

    originator: str
    query: Optional[SelectionQuery] = None
    query_id: Optional[int] = None
    policy: RoutingPolicy = RoutingPolicy.ALL
    required_results: Optional[int] = None
    max_domains: Optional[int] = None


@dataclass
class QueryRoutingResult:
    """End-to-end result of a routed query (possibly spanning several domains)."""

    query_id: int
    originator: str
    policy: RoutingPolicy
    domain_outcomes: List[DomainQueryOutcome] = field(default_factory=list)
    flooding_messages: int = 0
    total_messages: int = 0
    required_results: Optional[int] = None
    #: Domains whose summary peer could not be reached (network partition):
    #: their probes went unanswered and they contributed no outcome.
    unreachable_domains: List[str] = field(default_factory=list)
    #: Query messages spent probing (and re-probing) unreachable domains.
    unreachable_probe_messages: int = 0

    @property
    def results(self) -> int:
        return sum(outcome.results for outcome in self.domain_outcomes)

    @property
    def domains_visited(self) -> int:
        return len(self.domain_outcomes)

    @property
    def contacted_peers(self) -> Set[str]:
        contacted: Set[str] = set()
        for outcome in self.domain_outcomes:
            contacted |= outcome.contacted_peers
        return contacted

    @property
    def responding_peers(self) -> Set[str]:
        responding: Set[str] = set()
        for outcome in self.domain_outcomes:
            responding |= outcome.responding_peers
        return responding

    @property
    def false_positive_rate(self) -> float:
        contacted = sum(len(o.contacted_peers) for o in self.domain_outcomes)
        if contacted == 0:
            return 0.0
        false_positives = sum(len(o.false_positives) for o in self.domain_outcomes)
        return false_positives / contacted

    @property
    def false_negative_rate(self) -> float:
        responding = sum(len(o.responding_peers) for o in self.domain_outcomes)
        missed = sum(len(o.false_negatives) for o in self.domain_outcomes)
        if responding + missed == 0:
            return 0.0
        return missed / (responding + missed)

    def satisfied(self) -> bool:
        if self.required_results is None:
            return True
        return self.results >= self.required_results


#: Attr names of the two trace rows a domain records (values in the same order).
_SELECTION_ATTRS = ("domain", "scope", "relevant")
_DOMAIN_ATTRS = ("domain", "query_id", "messages", "results")


class QueryRouter:
    """Routes queries inside domains and prices inter-domain flooding.

    One function per step, each returning what the step put on the wire:
    :meth:`outcome_in_domain` (``outcome.results`` responses,
    ``outcome.messages - outcome.results`` queries) and
    :meth:`flooding_messages` (requests, probes).  The router keeps no
    counter: the drops and retries that faults produce are tallied on the
    :class:`QueryScratch` the caller hands in, where the caller also records
    a whole query's messages once.
    """

    def __init__(self) -> None:
        #: ``flooding_messages``' memo: peer -> its online neighbours, valid for
        #: one version of one overlay (any status or structural change drops
        #: the lot), so it never holds more entries than the overlay has peers.
        self._online_neighbours: Dict[str, Set[str]] = {}
        self._neighbours_stamp: Tuple[Optional[Overlay], int] = (None, -1)
        #: Metrics+trace hook (installed by the owning system); None keeps
        #: routing on the uninstrumented path.
        self.observability = None

    # -- single-domain processing ----------------------------------------------------------

    def outcome_in_domain(
        self,
        query_id: int,
        domain: Domain,
        scratch: QueryScratch,
        proposition: Optional[Proposition],
        policy: RoutingPolicy,
        scope: Set[str],
        candidates: Set[str],
        online_peers: Optional[Set[str]],
        charge_summary_peer_hop: bool = True,
        max_retries: int = 0,
    ) -> DomainQueryOutcome:
        """Process a query inside ``domain``.

        ``scope`` is ``partners ∩ described``, the partners the global summary
        can designate as relevant: a partner that joined after the last
        reconciliation is not yet described, so it cannot appear in ``P_Q``
        even though it sits in the cooperation list.  ``candidates`` is
        ``partners ∩ online``, who could have answered.  ``online_peers``
        restricts response traffic to currently reachable peers (an offline
        relevant peer produces no response — it is a false positive if
        contacted).  All three are only read.

        ``scratch.faults`` makes the summary-peer → partner hops fallible: a
        contacted partner on a lossy link is retried up to ``max_retries``
        times (each retransmission is a charged QUERY message); a partner the
        faults keep unreachable never responds and becomes a false positive.
        Partition-separated partners are cut deterministically without
        consuming randomness.
        """
        content = scratch.content
        obs = self.observability
        # Per-domain metrics are recorded at the query level (from the domain
        # outcomes) so this inner loop stays free of registry traffic.  Detail-
        # mode tracing pays two rows here, appended below to the span this
        # thread has open (the ``query`` span) and listed by readers as a
        # ``route-domain`` span with its ``hierarchy-selection`` child: three
        # clock reads (selection is the first thing a domain does, so the two
        # share a start) and two small tuples per domain, no span opened.
        rows = obs.tracer.open_rows() if obs is not None and obs.detail else None
        if rows is not None:
            started = time.time()
        relevant = content.relevant_partners(
            query_id, scope, domain.global_summary, proposition
        )
        if rows is not None:
            selected = time.time()

        contacted = self._routing_set(domain, relevant, policy)
        reachable = contacted.copy() if online_peers is None else contacted & online_peers
        # The originator (or the forwarding summary peer) sends the query to
        # this domain's summary peer, which sends one to each contacted peer.
        messages = len(contacted) + (1 if charge_summary_peer_hop else 0)

        faults = scratch.faults
        if faults is not None:
            sp_id = domain.summary_peer_id
            if faults.partitioned:
                # Partners on the far side of a partition cannot be reached:
                # deterministic cut, no randomness consumed.
                cut = {p for p in reachable if not faults.reachable(sp_id, p)}
                if cut:
                    reachable -= cut
                    scratch.counter.record_dropped("partitioned", len(cut))
                    if obs is not None:
                        obs.inc(
                            "repro_fault_dropped_total", len(cut), reason="partitioned"
                        )
            if faults.lossy and reachable:
                lost: Set[str] = set()
                retransmissions = 0
                dropped = 0
                for peer_id in sorted(reachable):
                    delivered, retries = faults.attempt_delivery(
                        sp_id, peer_id, max_retries
                    )
                    retransmissions += retries
                    dropped += retries + (0 if delivered else 1)
                    if not delivered:
                        lost.add(peer_id)
                if retransmissions:
                    # Each retry is one more QUERY on the wire.
                    scratch.counter.record_retry(retransmissions)
                    messages += retransmissions
                    if obs is not None:
                        obs.inc("repro_query_retries_total", retransmissions)
                if dropped:
                    scratch.counter.record_dropped("link loss", dropped)
                    if obs is not None:
                        obs.inc(
                            "repro_fault_dropped_total", dropped, reason="link loss"
                        )
                reachable -= lost

        # One response message per matching peer.
        responding = content.matching_among(query_id, reachable)
        # False negatives: partners holding matching data that were not contacted.
        outcome = DomainQueryOutcome(
            domain_id=domain.summary_peer_id,
            relevant_peers=set(relevant),
            contacted_peers=contacted,
            responding_peers=responding,
            false_negatives=content.matching_among(query_id, candidates - contacted),
            messages=messages + len(responding),
        )
        if rows is not None:
            sp_id = domain.summary_peer_id
            rows.append((
                "hierarchy-selection", started, selected, 1, _SELECTION_ATTRS,
                sp_id, len(scope), len(relevant),
            ))
            rows.append((
                "route-domain", started, time.time(), 0, _DOMAIN_ATTRS,
                sp_id, query_id, outcome.messages, len(responding),
            ))
        return outcome

    def _routing_set(
        self, domain: Domain, relevant: Set[str], policy: RoutingPolicy
    ) -> Set[str]:
        """``V`` as a fresh set: ``P_Q``, ``P_Q ∩ P_fresh`` or ``P_Q ∪ P_old``."""
        if policy is RoutingPolicy.ALL:
            return set(relevant)
        cooperation = domain.cooperation
        if policy is RoutingPolicy.PRECISION:
            return (relevant & cooperation.partner_set) - cooperation.old_set
        return relevant | cooperation.old_set

    # -- inter-domain flooding --------------------------------------------------------------

    def flooding_messages(
        self,
        overlay: Overlay,
        domain: Domain,
        responding_peers: Iterable[str],
        originator: str,
        known_summary_peers: Collection[str] = (),
        target_domains: int = 1,
    ) -> Tuple[int, int]:
        """One inter-domain flooding round started from ``domain``, as
        ``(FLOOD_REQUEST, FLOOD_QUERY)`` message counts.

        The summary peer sends a flooding request to each answering peer of the
        current domain and to the originator; each of them forwards the query
        to its neighbours that do not belong to the domain, stopping as soon as
        a new domain is reached or the TTL runs out (Section 5.2.2) — so the
        per-initiator cost is bounded by its number of extra-domain neighbours,
        not by a full TTL-wide flood.  The summary peer additionally forwards
        the request to the summary peers it knows, which is what lets the query
        cover many domains quickly; ``target_domains`` bounds how many of those
        long-range links are actually used.
        """
        stamp = (overlay, overlay.version)
        if self._neighbours_stamp != stamp:
            self._online_neighbours.clear()
            self._neighbours_stamp = stamp
        memo = self._online_neighbours
        partners = domain.cooperation.partner_set
        sp_id = domain.summary_peer_id
        initiators = {originator, *responding_peers}
        flood_messages = 0
        for peer_id in initiators:
            neighbours = memo.get(peer_id)
            if neighbours is None:
                if peer_id not in overlay.links:
                    continue
                neighbours = memo[peer_id] = set(overlay.neighbors(peer_id))
            # One hop per extra-domain neighbour: the probe stops as soon as it
            # lands in another domain, and with high-degree superpeers almost
            # every extra-domain neighbour already belongs to one.
            outside = neighbours - partners
            flood_messages += len(outside) - (sp_id in outside)
        # Long-range links: the known summary peers (distinct ids) but its own.
        own = sp_id in known_summary_peers
        flood_messages += min(len(known_summary_peers) - own, max(0, target_domains))
        return len(initiators), flood_messages
