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
    """Routes queries inside domains and accounts for every message."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        counter: Optional[MessageCounter] = None,
    ) -> None:
        self._config = config or ProtocolConfig()
        self._counter = counter if counter is not None else MessageCounter()
        #: ``flooding_cost``'s memo: (summary peer, initiator) -> (overlay
        #: version, domain membership version, extra-domain neighbour count),
        #: so any overlay or partner-set mutation invalidates.
        self._flood_cache: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
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
        obs = self.observability
        # Per-domain metrics are recorded at the query level (from the domain
        # outcomes) so this inner loop stays free of registry traffic; only
        # detail-mode tracing pays a span here.
        if obs is None or not obs.detail:
            return self._route_in_domain(
                query_id,
                domain,
                content,
                proposition,
                policy,
                online_peers,
                charge_summary_peer_hop,
                described_partners,
                faults,
                max_retries,
            )
        with obs.span(
            "route-domain", {"domain": domain.summary_peer_id, "query_id": query_id}
        ) as span:
            outcome = self._route_in_domain(
                query_id,
                domain,
                content,
                proposition,
                policy,
                online_peers,
                charge_summary_peer_hop,
                described_partners,
                faults,
                max_retries,
            )
            span.attrs.update(messages=outcome.messages, results=outcome.results)
        return outcome

    def _route_in_domain(
        self,
        query_id: int,
        domain: Domain,
        content: ContentModel,
        proposition: Optional[Proposition],
        policy: RoutingPolicy,
        online_peers: Optional[Set[str]],
        charge_summary_peer_hop: bool,
        described_partners: Optional[Set[str]],
        faults: Optional[object],
        max_retries: int,
    ) -> DomainQueryOutcome:
        obs = self.observability
        outcome = DomainQueryOutcome(domain_id=domain.summary_peer_id)

        if charge_summary_peer_hop:
            # The originator (or the forwarding summary peer) sends the query
            # to this domain's summary peer.
            self._counter.record_type(MessageType.QUERY)
            outcome.messages += 1

        partners = set(domain.partner_ids)
        scope = partners if described_partners is None else (partners & described_partners)
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
        outcome.relevant_peers = set(relevant)

        contacted = self._routing_set(domain, relevant, policy)
        if online_peers is not None:
            reachable = contacted & online_peers
        else:
            reachable = set(contacted)
        outcome.contacted_peers = set(contacted)

        # One query message per contacted peer.
        self._counter.record_type(MessageType.QUERY, len(contacted))
        outcome.messages += len(contacted)

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
                    self._counter.record_type(MessageType.QUERY, retransmissions)
                    self._counter.record_retry(retransmissions)
                    outcome.messages += retransmissions
                    if obs is not None:
                        obs.inc("repro_query_retries_total", retransmissions)
                if dropped:
                    self._counter.record_dropped("link loss", dropped)
                    if obs is not None:
                        obs.inc(
                            "repro_fault_dropped_total", dropped, reason="link loss"
                        )
                reachable -= lost

        outcome.responding_peers = content.matching_among(query_id, reachable)
        outcome.false_positives = outcome.contacted_peers - outcome.responding_peers

        # One response message per matching peer.
        self._counter.record_type(MessageType.QUERY_RESPONSE, len(outcome.responding_peers))
        outcome.messages += len(outcome.responding_peers)

        # False negatives: partners holding matching data that were not contacted.
        candidates = partners if online_peers is None else partners & online_peers
        uncontacted = candidates - outcome.contacted_peers
        outcome.false_negatives = content.matching_among(query_id, uncontacted)
        return outcome

    def _routing_set(
        self, domain: Domain, relevant: Set[str], policy: RoutingPolicy
    ) -> Set[str]:
        if policy is RoutingPolicy.ALL:
            return set(relevant)
        fresh = set(domain.fresh_partners())
        old = set(domain.old_partners())
        if policy is RoutingPolicy.PRECISION:
            return relevant & fresh
        return relevant | old

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
        responders = set(responding_peers)
        initiators = responders | {originator}
        request_messages = len(initiators)
        self._counter.record_type(MessageType.FLOOD_REQUEST, request_messages)

        flood_messages = 0
        domain_members: Optional[Set[str]] = None
        cache_tag = (overlay.version, domain.membership_version)
        for peer_id in sorted(initiators):
            key = (domain.summary_peer_id, peer_id)
            entry = self._flood_cache.get(key)
            if entry is not None and entry[:2] == cache_tag:
                flood_messages += entry[2]
                continue
            if peer_id not in overlay.graph:
                self._flood_cache[key] = cache_tag + (0,)
                continue
            if domain_members is None:
                domain_members = set(domain.partner_ids) | {domain.summary_peer_id}
            outside = [
                neighbour
                for neighbour in overlay.neighbors(peer_id)
                if neighbour not in domain_members
            ]
            # One hop per extra-domain neighbour: the probe stops as soon as it
            # lands in another domain, and with high-degree superpeers almost
            # every extra-domain neighbour already belongs to one.
            self._flood_cache[key] = cache_tag + (len(outside),)
            flood_messages += len(outside)
        # Long-range links: the known summary peers (distinct ids) but its own.
        own = domain.summary_peer_id in known_summary_peers
        flood_messages += min(len(known_summary_peers) - own, max(0, target_domains))
        self._counter.record_type(MessageType.FLOOD_QUERY, flood_messages)
        return request_messages + flood_messages
