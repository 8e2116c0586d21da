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
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import ProtocolConfig
from repro.core.content import ContentModel
from repro.core.domain import Domain
from repro.database.query import SelectionQuery
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay
from repro.querying.proposition import Proposition


class RoutingPolicy(enum.Enum):
    """How the routing set ``V`` is derived from ``P_Q`` and the cooperation list."""

    ALL = "all"
    PRECISION = "precision"
    RECALL = "recall"


@dataclass
class DomainQueryOutcome:
    """Result of processing a query inside one domain."""

    domain_id: str
    relevant_peers: Set[str] = field(default_factory=set)
    contacted_peers: Set[str] = field(default_factory=set)
    responding_peers: Set[str] = field(default_factory=set)
    false_positives: Set[str] = field(default_factory=set)
    false_negatives: Set[str] = field(default_factory=set)
    messages: int = 0

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
class QueryRequest:
    """One query of a batch posed through ``pose_queries`` / ``query_batch``.

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


class QueryRouter:
    """Routes queries inside domains and accounts for every message.

    :meth:`route_in_domain` and :meth:`flooding_cost` leave the counter
    updated when they return.  :meth:`outcome_in_domain` and
    :meth:`flooding_messages` are the same computations uncounted, for a caller
    (``SummaryManagementSystem.pose_query``) that tallies a whole query's
    messages once.
    """

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        counter: Optional[MessageCounter] = None,
    ) -> None:
        self._config = config or ProtocolConfig()
        self._counter = counter if counter is not None else MessageCounter()
        #: ``flooding_messages``' memo: peer -> its online neighbours, valid for
        #: one version of one overlay (any status or structural change drops
        #: the lot), so it never holds more entries than the overlay has peers.
        self._online_neighbours: Dict[str, Set[str]] = {}
        self._neighbours_stamp: Tuple[Optional[Overlay], int] = (None, -1)
        #: Metrics+trace hook (installed by the owning system); None keeps
        #: routing on the uninstrumented path.
        self.observability = None

    @property
    def counter(self) -> MessageCounter:
        return self._counter

    # -- single-domain processing ----------------------------------------------------------

    def route_in_domain(
        self,
        query_id: int,
        domain: Domain,
        content: ContentModel,
        proposition: Optional[Proposition] = None,
        policy: RoutingPolicy = RoutingPolicy.ALL,
        online_peers: Optional[Set[str]] = None,
        charge_summary_peer_hop: bool = True,
        described_partners: Optional[Set[str]] = None,
        faults: Optional[object] = None,
        max_retries: int = 0,
    ) -> DomainQueryOutcome:
        """Process a query inside ``domain`` and account for its messages.

        ``online_peers`` restricts ground-truth matching and response traffic
        to currently reachable peers (an offline relevant peer produces no
        response — it is a false positive if contacted).  ``described_partners``
        restricts the scope the global summary can designate as relevant: a
        partner that joined after the last reconciliation is not yet described
        by the global summary, so it cannot appear in ``P_Q`` even though it
        sits in the cooperation list.

        ``faults`` (a :class:`~repro.network.faults.FaultInjector`) makes the
        summary-peer → partner hops fallible: a contacted partner on a lossy
        link is retried up to ``max_retries`` times (each retransmission is a
        charged QUERY message); a partner the faults keep unreachable never
        responds and becomes a false positive.  Partition-separated partners
        are cut deterministically without consuming randomness.
        """
        partners = domain.cooperation.partner_set
        outcome = self.outcome_in_domain(
            query_id,
            domain,
            content,
            proposition,
            policy,
            partners if described_partners is None else partners & described_partners,
            partners if online_peers is None else partners & online_peers,
            online_peers,
            charge_summary_peer_hop,
            faults,
            max_retries,
        )
        self._counter.record_type(MessageType.QUERY, outcome.messages - outcome.results)
        self._counter.record_type(MessageType.QUERY_RESPONSE, outcome.results)
        return outcome

    def outcome_in_domain(
        self,
        query_id: int,
        domain: Domain,
        content: ContentModel,
        proposition: Optional[Proposition],
        policy: RoutingPolicy,
        scope: Set[str],
        candidates: Set[str],
        online_peers: Optional[Set[str]],
        charge_summary_peer_hop: bool,
        faults: Optional[object],
        max_retries: int,
    ) -> DomainQueryOutcome:
        """:meth:`route_in_domain` on sets the caller already holds, uncounted.

        ``scope`` is ``partners ∩ described`` and ``candidates`` is
        ``partners ∩ online``; both are only read.  QUERY and QUERY_RESPONSE
        are left for the caller to record: ``outcome.results`` responses and
        ``outcome.messages - outcome.results`` queries.  Drops and retries,
        which only faults produce, are recorded here.
        """
        arguments = (
            query_id,
            domain,
            content,
            proposition,
            policy,
            scope,
            candidates,
            online_peers,
            charge_summary_peer_hop,
            faults,
            max_retries,
        )
        obs = self.observability
        # Per-domain metrics are recorded at the query level (from the domain
        # outcomes) so this inner loop stays free of registry traffic; only
        # detail-mode tracing pays a span here.
        if obs is None or not obs.detail:
            return self._outcome_in_domain(*arguments)
        with obs.span(
            "route-domain", {"domain": domain.summary_peer_id, "query_id": query_id}
        ) as span:
            outcome = self._outcome_in_domain(*arguments)
            span.attrs.update(messages=outcome.messages, results=outcome.results)
        return outcome

    def _outcome_in_domain(
        self,
        query_id: int,
        domain: Domain,
        content: ContentModel,
        proposition: Optional[Proposition],
        policy: RoutingPolicy,
        scope: Set[str],
        candidates: Set[str],
        online_peers: Optional[Set[str]],
        charge_summary_peer_hop: bool,
        faults: Optional[object],
        max_retries: int,
    ) -> DomainQueryOutcome:
        obs = self.observability
        if obs is None or not obs.detail:
            relevant = content.relevant_partners(
                query_id, scope, domain.global_summary, proposition
            )
        else:
            with obs.span(
                "hierarchy-selection",
                {"domain": domain.summary_peer_id, "scope": len(scope)},
            ) as selection:
                relevant = content.relevant_partners(
                    query_id, scope, domain.global_summary, proposition
                )
                selection.attrs["relevant"] = len(relevant)

        contacted = self._routing_set(domain, relevant, policy)
        reachable = contacted.copy() if online_peers is None else contacted & online_peers
        # The originator (or the forwarding summary peer) sends the query to
        # this domain's summary peer, which sends one to each contacted peer.
        messages = len(contacted) + (1 if charge_summary_peer_hop else 0)

        if faults is not None:
            sp_id = domain.summary_peer_id
            if faults.partitioned:
                # Partners on the far side of a partition cannot be reached:
                # deterministic cut, no randomness consumed.
                cut = {p for p in reachable if not faults.reachable(sp_id, p)}
                if cut:
                    reachable -= cut
                    self._counter.record_dropped("partitioned", len(cut))
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
                    self._counter.record_retry(retransmissions)
                    messages += retransmissions
                    if obs is not None:
                        obs.inc("repro_query_retries_total", retransmissions)
                if dropped:
                    self._counter.record_dropped("link loss", dropped)
                    if obs is not None:
                        obs.inc(
                            "repro_fault_dropped_total", dropped, reason="link loss"
                        )
                reachable -= lost

        # One response message per matching peer.
        responding = content.matching_among(query_id, reachable)
        # False negatives: partners holding matching data that were not contacted.
        return DomainQueryOutcome(
            domain_id=domain.summary_peer_id,
            relevant_peers=set(relevant),
            contacted_peers=contacted,
            responding_peers=responding,
            false_positives=contacted - responding,
            false_negatives=content.matching_among(query_id, candidates - contacted),
            messages=messages + len(responding),
        )

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

    def flooding_cost(
        self,
        overlay: Overlay,
        domain: Domain,
        responding_peers: Iterable[str],
        originator: str,
        known_summary_peers: Collection[str] = (),
        target_domains: int = 1,
    ) -> int:
        """Messages of one inter-domain flooding round started from ``domain``.

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
        request_messages, flood_messages = self.flooding_messages(
            overlay, domain, responding_peers, originator, known_summary_peers, target_domains
        )
        self._counter.record_type(MessageType.FLOOD_REQUEST, request_messages)
        self._counter.record_type(MessageType.FLOOD_QUERY, flood_messages)
        return request_messages + flood_messages

    def flooding_messages(
        self,
        overlay: Overlay,
        domain: Domain,
        responding_peers: Iterable[str],
        originator: str,
        known_summary_peers: Collection[str],
        target_domains: int,
    ) -> Tuple[int, int]:
        """:meth:`flooding_cost` as ``(FLOOD_REQUEST, FLOOD_QUERY)`` counts, uncounted."""
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
                if peer_id not in overlay.graph:
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
