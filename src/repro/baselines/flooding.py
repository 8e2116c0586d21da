"""Pure flooding baseline (no index).

The query is broadcast from the originator to all its neighbours, which
forward it to their own neighbours (excluding the sender), and so on until the
TTL expires (the paper limits it to 3).  Every peer holding matching data
answers with one response message.  This is the "very used in real life"
baseline whose cost Figure 7 compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.core.content import ContentModel
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay


@dataclass
class FloodingOutcome:
    """Result and cost of one flooded query."""

    originator: str
    ttl: int
    reached_peers: Set[str] = field(default_factory=set)
    responding_peers: Set[str] = field(default_factory=set)
    query_messages: int = 0
    response_messages: int = 0

    @property
    def total_messages(self) -> int:
        return self.query_messages + self.response_messages


class FloodingSearch:
    """Runs TTL-bounded flooding over an overlay and accounts for its traffic."""

    def __init__(
        self, ttl: int = 3, counter: Optional[MessageCounter] = None
    ) -> None:
        if ttl < 1:
            raise ValueError("flooding TTL must be at least 1")
        self._ttl = ttl
        self._counter = counter if counter is not None else MessageCounter()

    @property
    def ttl(self) -> int:
        return self._ttl

    @property
    def counter(self) -> MessageCounter:
        return self._counter

    def query(
        self,
        overlay: Overlay,
        originator: str,
        content: ContentModel,
        query_id: int,
        required_results: Optional[int] = None,
    ) -> FloodingOutcome:
        """Flood one query from ``originator`` and collect the responses.

        Without ``required_results`` this is a plain TTL-bounded flood.  With
        it, the flood keeps expanding ring after ring (the "broadcast until a
        stop condition is satisfied" behaviour of the paper's baseline) until
        enough matching peers have been reached or the network is exhausted —
        the stop condition the summary-querying algorithm also uses for
        partial/total-lookup queries, which makes the message counts directly
        comparable.
        """
        outcome = FloodingOutcome(originator=originator, ttl=self._ttl)

        visited: Set[str] = {originator}
        frontier = [(originator, None)]
        hop = 0
        results = 0
        while frontier:
            if required_results is None and hop >= self._ttl:
                break
            if required_results is not None and results >= required_results:
                break
            hop += 1
            next_frontier = []
            for node, received_from in frontier:
                for neighbour in overlay.neighbors(node):
                    if neighbour == received_from:
                        continue
                    outcome.query_messages += 1
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append((neighbour, node))
                        if content.truly_matching(query_id, neighbour):
                            results += 1
            frontier = next_frontier

        outcome.reached_peers = visited - {originator}
        for peer_id in outcome.reached_peers:
            if content.truly_matching(query_id, peer_id):
                outcome.responding_peers.add(peer_id)
        outcome.response_messages = len(outcome.responding_peers)

        self._counter.record_type(MessageType.FLOOD_QUERY, outcome.query_messages)
        self._counter.record_type(MessageType.QUERY_RESPONSE, outcome.response_messages)
        return outcome


def flooding_query_cost(
    average_degree: float, ttl: int, responders: int = 0
) -> float:
    """Analytical flooding cost: ``sum_{i=1..TTL} k^i`` query messages + responses.

    This is the expression the paper's cost model uses for the flooding
    component (with ``k`` the average degree, e.g. 3.5 for Gnutella-like
    graphs).
    """
    if ttl < 1:
        return float(responders)
    queries = sum(average_degree**i for i in range(1, ttl + 1))
    return queries + responders
