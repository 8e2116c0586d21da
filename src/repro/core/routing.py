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

Per domain a routed query pays only for its set algebra — ``P_Q``, ``V``, who
was reached, who of the online partners matches, and the extra-domain
neighbours of the flooding round — about a dozen operations on sets of a few
peers; everything query-invariant (the plan or query registry, the policy,
the fault injector, the online set, the trace row list, the neighbour memo's
stamp) is looked up once per query by :class:`_RoutePass`.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Collection, Dict, Iterable, List, NamedTuple, Optional, Set,
    Tuple,
)

from repro.core.content import ContentModel
from repro.core.cooperation import CooperationList
from repro.core.domain import Domain
from repro.exceptions import ProtocolError
from repro.network.messages import MessageType
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


def check_query_limits(
    required_results: Optional[int], max_domains: Optional[int]
) -> None:
    """Raise :class:`ProtocolError` for a negative query limit (None is no limit)."""
    for name, limit in (
        ("required_results", required_results), ("max_domains", max_domains)
    ):
        if limit is not None and limit < 0:
            raise ProtocolError(f"{name} must be at least 0, got {limit!r}")


#: Attr names of the two trace rows a domain records (values in the same order).
_SELECTION_ATTRS = ("domain", "scope", "relevant")
_DOMAIN_ATTRS = ("domain", "query_id", "messages", "results")


class _RoutePass:
    """One query's routing, with every query-invariant bound once.

    The plan (or the query registry and proposition), the policy, the fault
    injector, the online set and the trace row list are looked up when the
    pass is made; per domain, :meth:`outcome` is left with the set algebra.
    The pass lives for one query: nothing it binds may move while the query
    is routed.
    """

    __slots__ = (
        "query_id", "bound", "policy", "online", "faults", "counter", "obs",
        "rows", "max_retries", "hop",
    )

    def __init__(
        self,
        router: QueryRouter,
        query_id: int,
        scratch: QueryScratch,
        proposition: Optional[Proposition],
        policy: RoutingPolicy,
        online_peers: Optional[Set[str]],
        charge_summary_peer_hop: bool,
        max_retries: int,
    ) -> None:
        self.query_id = query_id
        self.bound = scratch.content.bind_query(query_id, proposition)
        self.policy = policy
        self.online = online_peers
        self.faults = scratch.faults
        self.counter = scratch.counter
        self.max_retries = max_retries
        self.hop = 1 if charge_summary_peer_hop else 0
        obs = self.obs = router.observability
        # Per-domain metrics are recorded at the query level (from the domain
        # outcomes) so the domain loop stays free of registry traffic.  Detail-
        # mode tracing pays two rows per domain, appended to the span this
        # thread has open (the ``query`` span) and listed by readers as a
        # ``route-domain`` span with its ``hierarchy-selection`` child.
        self.rows = obs.tracer.open_rows() if obs is not None and obs.detail else None

    def outcome(
        self, domain: Domain, scope: Set[str], candidates: Set[str]
    ) -> DomainQueryOutcome:
        """The query inside ``domain`` (see :meth:`QueryRouter.outcome_in_domain`)."""
        rows = self.rows
        if rows is not None:
            # Three clock reads: selection is the first thing a domain does,
            # so the two rows share a start.
            started = time.time()
        bound = self.bound
        relevant = bound.relevant(scope, domain)
        if rows is not None:
            selected = time.time()

        # V, a set of its own: P_Q, P_Q ∩ P_fresh or P_Q ∪ P_old.
        policy = self.policy
        if policy is RoutingPolicy.ALL:
            contacted = relevant.copy()
        elif policy is RoutingPolicy.PRECISION:
            cooperation = domain.cooperation
            contacted = (relevant & cooperation.partner_set) - cooperation.old_set
        else:
            contacted = relevant | domain.cooperation.old_set
        online = self.online
        reachable = contacted if online is None else contacted & online
        # The originator (or the forwarding summary peer) sends the query to
        # this domain's summary peer, which sends one to each contacted peer.
        messages = len(contacted) + self.hop

        faults = self.faults
        if faults is not None:
            reachable, _missed, retries, _lost = faults.send(
                domain.summary_peer_id, reachable, self.max_retries, self.counter,
                self.obs, "repro_query_retries_total",
            )
            messages += retries  # each retry is one more QUERY on the wire

        # One ground-truth lookup: who of those that could answer holds
        # matching data.  Everyone reached is among them (V ⊆ partners), so
        # the reached ones respond (one message each) and the ones not
        # contacted are the false negatives.
        answerable = bound.matching(candidates)
        responding = answerable & reachable
        outcome = DomainQueryOutcome(
            domain.summary_peer_id,
            relevant,
            contacted,
            responding,
            answerable - contacted,
            messages + len(responding),
        )
        if rows is not None:
            sp_id = domain.summary_peer_id
            rows.append((
                "hierarchy-selection", started, selected, 1, _SELECTION_ATTRS,
                sp_id, len(scope), len(relevant),
            ))
            rows.append((
                "route-domain", started, time.time(), 0, _DOMAIN_ATTRS,
                sp_id, self.query_id, outcome.messages, len(responding),
            ))
        return outcome


def _flood_cost(
    memo: Dict[str, Set[str]],
    links: Dict[str, Dict[str, float]],
    online: Set[str],
    domain: Domain,
    responding_peers: Iterable[str],
    originator: str,
    known_summary_peers: Collection[str],
    target_domains: int,
) -> Tuple[int, int]:
    """:meth:`QueryRouter.flooding_messages` on a memo already checked current
    for the overlay whose ``links`` and ``online_ids`` are passed."""
    partners = domain.cooperation.partner_set
    sp_id = domain.summary_peer_id
    initiators = {originator, *responding_peers}
    flood_messages = 0
    for peer_id in initiators:
        neighbours = memo.get(peer_id)
        if neighbours is None:
            adjacent = links.get(peer_id)
            if adjacent is None:
                continue
            neighbours = memo[peer_id] = adjacent.keys() & online
        # One hop per extra-domain neighbour: the probe stops as soon as it
        # lands in another domain, and with high-degree superpeers almost
        # every extra-domain neighbour already belongs to one.
        outside = neighbours - partners
        flood_messages += len(outside) - (sp_id in outside)
    # Long-range links: the known summary peers (distinct ids) but its own,
    # at most ``target_domains`` of them.
    long_range = len(known_summary_peers) - (sp_id in known_summary_peers)
    if long_range > target_domains:
        long_range = target_domains if target_domains > 0 else 0
    return len(initiators), flood_messages + long_range


class QueryRouter:
    """Routes queries inside domains and prices inter-domain flooding.

    One function per step, each returning what the step put on the wire:
    :meth:`outcome_in_domain` (``outcome.results`` responses,
    ``outcome.messages - outcome.results`` queries) and
    :meth:`flooding_messages` (requests, probes).  A routed query takes both
    steps through one :class:`_RoutePass` and one neighbour memo, so the
    per-query lookups are made once, not once per domain.  The router keeps
    no counter: the drops and retries that faults produce are tallied on the
    :class:`QueryScratch` the caller hands in, where the caller also records
    a whole query's messages once.
    """

    def __init__(self) -> None:
        #: ``flooding_messages``' memo: peer -> its online neighbours, valid for
        #: one version of one overlay (any status change drops the lot), so it
        #: never holds more entries than the overlay has peers.
        self._online_neighbours: Dict[str, Set[str]] = {}
        self._neighbours_stamp: Tuple[Optional[Overlay], int] = (None, -1)
        #: Metrics+trace hook (installed by the owning system); None keeps
        #: routing on the uninstrumented path.
        self.observability = None

    def online_neighbours(self, overlay: Overlay) -> Dict[str, Set[str]]:
        """The neighbour memo, emptied first if ``overlay`` moved since it was filled."""
        stamp = (overlay, overlay.version)
        if self._neighbours_stamp != stamp:
            self._online_neighbours.clear()
            self._neighbours_stamp = stamp
        return self._online_neighbours

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
        ``partners ∩ online``, who could have answered (all partners without
        ``online_peers``).  ``online_peers`` restricts response traffic to
        currently reachable peers (an offline relevant peer produces no
        response — it is a false positive if contacted).  All three are only
        read.

        ``scratch.faults`` makes the summary-peer → partner hops fallible: a
        contacted partner on a lossy link is retried up to ``max_retries``
        times (each retransmission is a charged QUERY message); a partner the
        faults keep unreachable never responds and becomes a false positive.
        Partition-separated partners are cut deterministically without
        consuming randomness.
        """
        route = _RoutePass(
            self, query_id, scratch, proposition, policy, online_peers,
            charge_summary_peer_hop, max_retries,
        )
        return route.outcome(domain, scope, candidates)

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
        return _flood_cost(
            self.online_neighbours(overlay), overlay.links, overlay.online_ids, domain,
            responding_peers, originator, known_summary_peers, target_domains,
        )


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
    #: ``cooperation.membership_version`` at derivation.
    membership_version: int
    #: ``overlay.version`` at derivation.
    overlay_version: int
    #: ``partners ∩ described``: whom the global summary can designate.
    scope: Set[str]
    #: ``partners ∩ online``: who could have answered.
    online_partners: Set[str]


class _QueryProcessing:
    """Query processing (Section 5) of :class:`SummaryManagementSystem`."""

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
            query, proposition = self._flexible_form(query, self._background)
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
        itself.  A negative ``required_results`` or ``max_domains`` is a
        :class:`ProtocolError`, raised before anything is advanced.
        """
        scratch = self._own_unless(scratch)
        if query is not None and query_id is not None:
            raise ProtocolError(
                "pose_query accepts either query or query_id, not both: a real "
                "query is assigned a fresh id when it is registered"
            )
        check_query_limits(required_results, max_domains)
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

        # Everything the domain loop would otherwise look up once per domain.
        counter = scratch.counter
        faults = scratch.faults
        partition_active = faults is not None and faults.partitioned
        overlay = self._overlay
        overlay_version = overlay.version
        links = overlay.links
        online = overlay.online_ids
        max_retries = self._config.query_max_retries
        route: Optional[_RoutePass] = None
        memo = self._router.online_neighbours(overlay)
        known = self._domains.keys()
        domain_sets = self._domain_sets
        outcomes = result.domain_outcomes
        if max_domains is None:
            max_domains = len(ordered_domains)
        previous_outcome: Optional[DomainQueryOutcome] = None
        previous: Optional[Domain] = None
        results_gathered = 0  # running count: avoids re-summing per domain
        visited = 0  # domains actually reached (equals the index when merged)
        flood_requests = flood_queries = 0
        for domain in ordered_domains:
            if visited >= max_domains:
                break
            if partition_active and not faults.reachable(
                originator, domain.summary_peer_id
            ):
                # The summary peer sits across the partition: the probe (and
                # its bounded retries) go unanswered, the domain contributes
                # nothing, and the answer is marked degraded instead of the
                # query wedging or failing.
                sp_id = domain.summary_peer_id
                *_, lost = faults.send(
                    originator, [sp_id], max_retries, counter, self._obs,
                    retry_partitioned=True,
                )
                result.unreachable_probe_messages += lost
                result.unreachable_domains.append(sp_id)
                continue
            visited += 1
            if previous is None:
                # The first domain reached binds the query (a planned query
                # draws its plan here, not before: a query that reaches no
                # domain draws none).
                route = _RoutePass(
                    self._router, query_id, scratch, proposition, policy, online,
                    True, max_retries,
                )
            else:
                # Moving past the previous domain requires an inter-domain
                # flooding round started from it (its responders, the
                # originator and the summary peer probe further domains).
                requests, floods = _flood_cost(
                    memo, links, online, previous, previous_outcome.responding_peers,
                    originator, known, 1,
                )
                flood_requests += requests
                flood_queries += floods
            sets = domain_sets(domain, overlay_version)
            outcome = route.outcome(domain, sets.scope, sets.online_partners)
            outcomes.append(outcome)
            results_gathered += len(outcome.responding_peers)
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

    def _domain_sets(
        self, domain: Domain, overlay_version: Optional[int] = None
    ) -> _DomainSets:
        """``domain``'s derived routing sets, rebuilt only when a stamp moved.

        ``overlay_version`` is the overlay's current version, when the caller
        has already read it (default: read here).
        """
        if overlay_version is None:
            overlay_version = self._overlay.version
        sp_id = domain.summary_peer_id
        cooperation = domain.cooperation
        described = self._described.get(sp_id)
        sets = self._derived_sets.get(sp_id)
        if (
            sets is None
            or sets.overlay_version != overlay_version
            or sets.membership_version != cooperation.membership_version
            or sets.cooperation is not cooperation
            or sets.described is not described
        ):
            partners = cooperation.partner_set
            # Assigned whole: threads racing to derive it write equal values.
            sets = self._derived_sets[sp_id] = _DomainSets(
                cooperation,
                described,
                cooperation.membership_version,
                overlay_version,
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
