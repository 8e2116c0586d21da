"""The hybrid (superpeer) overlay.

An :class:`Overlay` holds two things: a topology and the set of peers that
are online.  A peer is its id; which domain it belongs to is the system's
record (its assignment and the domains' cooperation lists), not the
overlay's.  It answers the structural questions the protocols ask —
neighbours, latencies, TTL-bounded broadcast reach — and implements the
*selective walk* used to discover a summary peer: a random walk that always
forwards to the highest-degree neighbour (Adamic et al. 2001, as cited by the
paper).

The topology is one insertion-ordered mapping, peer → neighbour → link latency,
each link under both its ends (:attr:`Overlay.links`).  Both orders are
protocol-visible (equal-degree superpeer ranking, selective-walk tie-breaks):
:meth:`Overlay.generate` copies them off the generated graph, a checkpoint
writes and reads them as they stand, and no graph library is imported here.

Latency cost model.  A peer switches summary peers "only if the new SP is
closer", so the construction asks :meth:`Overlay.latency` about every (peer,
summary peer) pair a ``sumpeer`` broadcast reaches and maintenance keeps
asking about the same summary peers.  Two neighbours answer with their link's
own latency.  Anything else costs one O(E log V) Dijkstra pass per *distinct
destination* — a stdlib ``heapq`` pass over an integer-indexed adjacency read
off the links once — whose result, a list of distances by peer index, is kept;
every later question about that destination is one dict lookup and one list
read.  The links are fixed once the overlay is built (peers go offline and
come back, but none is added or removed), so the index, the adjacency and
the tables are built on the first miss (never at construction or restore),
kept for the overlay's life and never checkpointed.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.exceptions import NetworkError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.network.topology import TopologyConfig


class Overlay:
    """A symmetric link mapping plus the set of online peers."""

    def __init__(
        self, links: Dict[str, Dict[str, float]], rng: Optional[random.Random] = None
    ) -> None:
        if not links:
            raise NetworkError("cannot build an overlay over an empty topology")
        for peer_id, neighbours in links.items():
            for neighbour, latency in neighbours.items():
                if neighbour not in links:
                    raise NetworkError(f"unknown neighbour {neighbour!r}")
                if neighbour == peer_id or links[neighbour].get(peer_id) != latency:
                    raise NetworkError(
                        f"link {peer_id!r} -> {neighbour!r} is a self-link, "
                        "one-sided or unequal"
                    )
        # Held, not copied: the overlay owns the mapping from here on.
        self._links = links
        # Every peer starts online, added one at a time in link order (a
        # restore then discards the offline ids).  Not ``set(links)``: that
        # presizes the table and would change the set's iteration order.
        self._online_ids: Set[str] = set()
        for peer_id in links:
            self._online_ids.add(peer_id)
        # Bumped on every online-status change; caches derived from the
        # overlay (e.g. per-peer extra-domain neighbour counts for
        # flooding-cost accounting) key their entries on it to invalidate
        # without listeners of their own.
        self._version = 0
        # The overlay's own tie-breaking RNG: selective walks invoked without
        # an explicit rng draw from this shared, advancing stream instead of a
        # fresh Random(0) per call (which replayed identical tie-breaks and
        # biased repeated walks on regular graphs).
        self._rng = rng if rng is not None else random.Random(0)
        # Derived latency state (module notes): per-destination distance lists by
        # peer index (``inf`` = unreachable), and the index and adjacency the
        # passes run over; built on the first miss, dropped together.
        self._latency_cache: Dict[str, List[float]] = {}
        self._peer_index: Dict[str, int] = {}
        self._adjacency: List[List[Tuple[int, float]]] = []

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def generate(cls, config: TopologyConfig) -> "Overlay":
        from repro.network.topology import power_law_topology

        return cls(
            {
                peer_id: {nbr: edge["latency"] for nbr, edge in neighbours.items()}
                for peer_id, neighbours in power_law_topology(config).adj.items()
            }
        )

    # -- accessors -----------------------------------------------------------------

    @property
    def links(self) -> Dict[str, Dict[str, float]]:
        """Peer → neighbour → link latency: the live mapping, to read only."""
        return self._links

    @property
    def rng(self) -> random.Random:
        """The overlay's default tie-breaking RNG (checkpointed with sessions)."""
        return self._rng

    @property
    def peer_ids(self) -> List[str]:
        return list(self._links)

    @property
    def size(self) -> int:
        return len(self._links)

    def is_online(self, peer_id: str) -> bool:
        if peer_id not in self._links:
            raise NetworkError(f"unknown peer {peer_id!r}")
        return peer_id in self._online_ids

    def set_online(self, peer_id: str, online: bool) -> None:
        """Bring ``peer_id`` online or take it offline (bumps :attr:`version`)."""
        if peer_id not in self._links:
            raise NetworkError(f"unknown peer {peer_id!r}")
        self._version += 1
        if online:
            self._online_ids.add(peer_id)
        else:
            self._online_ids.discard(peer_id)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on any online-status change."""
        return self._version

    @property
    def online_ids(self) -> Set[str]:
        """The ids of the currently online peers.

        This is the live set (O(1) to obtain, updated by join/leave/churn
        events as they happen) — treat it as read-only and do not hold it
        across simulation events; copy it if you need a stable snapshot.
        """
        return self._online_ids

    def neighbors(self, peer_id: str, online_only: bool = True) -> List[str]:
        try:
            neighbours = list(self._links[peer_id])
        except KeyError as exc:
            raise NetworkError(f"unknown peer {peer_id!r}") from exc
        if online_only:
            online = self._online_ids
            neighbours = [n for n in neighbours if n in online]
        return neighbours

    def degree(self, peer_id: str) -> int:
        return len(self._links[peer_id])

    def latency(self, source: str, destination: str) -> float:
        """End-to-end latency between two peers.

        The link's own latency when the two are neighbours (even where a
        detour through a third peer would be cheaper), else the latency along
        the cheapest path.
        """
        if source == destination:
            return 0.0
        direct = self._links.get(source, {}).get(destination)
        if direct is not None:
            return direct
        distances = self._latency_cache.get(destination)
        if distances is None:
            distances = self._distances_to(destination)
        index = self._peer_index.get(source)
        if index is None:
            raise NetworkError(f"unknown peer {source!r}")
        distance = distances[index]
        if distance == inf:
            raise NetworkError(f"no path between {source!r} and {destination!r}")
        return distance

    def _distances_to(self, destination: str) -> List[float]:
        """Dijkstra from ``destination``: cheapest-path latency to every peer."""
        if not self._adjacency:
            index = self._peer_index = {
                peer_id: position for position, peer_id in enumerate(self._links)
            }
            self._adjacency = [
                [(index[nbr], latency) for nbr, latency in neighbours.items()]
                for neighbours in self._links.values()
            ]
        origin = self._peer_index.get(destination)
        if origin is None:
            raise NetworkError(f"unknown peer {destination!r}")
        adjacency = self._adjacency
        distances = [inf] * len(adjacency)
        distances[origin] = 0.0
        heap = [(0.0, origin)]
        while heap:
            distance, node = heappop(heap)
            if distance > distances[node]:
                continue  # superseded by a cheaper entry pushed later
            for neighbour, weight in adjacency[node]:
                candidate = distance + weight
                if candidate < distances[neighbour]:
                    distances[neighbour] = candidate
                    heappush(heap, (candidate, neighbour))
        self._latency_cache[destination] = distances
        return distances

    def average_degree(self) -> float:
        return sum(map(len, self._links.values())) / len(self._links)

    # -- superpeer election ----------------------------------------------------------

    def elect_superpeers(
        self,
        count: Optional[int] = None,
        fraction: Optional[float] = None,
    ) -> List[str]:
        """The highest-degree nodes, to be the summary peers.

        Exactly one of ``count`` / ``fraction`` may be given; the default is a
        1/16 fraction (so a 16-node network has a single domain, matching the
        smallest configuration of Table 3).
        """
        if count is not None and fraction is not None:
            raise NetworkError("give either count or fraction, not both")
        if count is None:
            fraction = fraction if fraction is not None else 1.0 / 16.0
            count = max(1, round(fraction * self.size))
        count = min(count, self.size)
        return sorted(self._links, key=self.degree, reverse=True)[:count]

    # -- reachability ------------------------------------------------------------------

    def within_ttl(self, origin: str, ttl: int, online_only: bool = True) -> Dict[str, int]:
        """Peers reachable from ``origin`` in at most ``ttl`` hops (excluding origin).

        Returns a mapping ``peer_id -> hop count``; used both by the `sumpeer`
        broadcast of the construction protocol and by the flooding baseline.
        """
        if ttl < 0:
            raise NetworkError("TTL must be non-negative")
        reached: Dict[str, int] = {origin: 0}
        frontier = [origin]
        for hop in range(1, ttl + 1):
            next_frontier: List[str] = []
            for node in frontier:
                for neighbour in self.neighbors(node, online_only=online_only):
                    if neighbour not in reached:
                        reached[neighbour] = hop
                        next_frontier.append(neighbour)
            frontier = next_frontier
            if not frontier:
                break
        reached.pop(origin, None)
        return reached

    def flood_message_count(self, origin: str, ttl: int, online_only: bool = True) -> int:
        """Number of query messages generated by a TTL-bounded flood from ``origin``.

        Every reached node forwards the message to all of its neighbours except
        the one it received it from (Gnutella-style), until the TTL runs out.
        """
        if ttl <= 0:
            return 0
        messages = 0
        visited: Set[str] = {origin}
        frontier: List[Tuple[str, Optional[str]]] = [(origin, None)]
        for _hop in range(ttl):
            next_frontier: List[Tuple[str, Optional[str]]] = []
            for node, received_from in frontier:
                for neighbour in self.neighbors(node, online_only=online_only):
                    if neighbour == received_from:
                        continue
                    messages += 1
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append((neighbour, node))
            frontier = next_frontier
            if not frontier:
                break
        return messages

    # -- selective walk -----------------------------------------------------------------

    def selective_walk(
        self,
        origin: str,
        stop_condition: Callable[[str], bool],
        max_hops: int = 64,
        rng: Optional[random.Random] = None,
    ) -> Tuple[Optional[str], int]:
        """Walk the overlay, always choosing the highest-degree unvisited neighbour.

        Stops when ``stop_condition(peer_id)`` holds (returning that peer and
        the number of hops walked) or when ``max_hops`` is exhausted (returning
        ``(None, hops)``).  Ties on degree are broken at random to avoid
        pathological loops on regular graphs; without an explicit ``rng`` the
        overlay's own advancing RNG is used, so repeated default walks from
        the same origin explore different tie-breaks instead of replaying one.
        """
        rng = rng if rng is not None else self._rng
        if stop_condition(origin):
            return origin, 0
        visited: Set[str] = {origin}
        current = origin
        for hop in range(1, max_hops + 1):
            candidates = [
                neighbour
                for neighbour in self.neighbors(current)
                if neighbour not in visited
            ]
            if not candidates:
                candidates = self.neighbors(current)
                if not candidates:
                    return None, hop
            best_degree = max(self.degree(candidate) for candidate in candidates)
            best = [c for c in candidates if self.degree(c) == best_degree]
            current = rng.choice(best)
            visited.add(current)
            if stop_condition(current):
                return current, hop
        return None, max_hops

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Overlay({self.size} peers, avg degree {self.average_degree():.2f})"
