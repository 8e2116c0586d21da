"""The hybrid (superpeer) overlay.

An :class:`Overlay` couples a topology with per-node state
(:class:`~repro.network.peer.PeerNode`).  It answers the structural questions
the protocols ask — neighbours, latencies, TTL-bounded broadcast reach — and
implements the *selective walk* used to discover a summary peer: a random walk
that always forwards to the highest-degree neighbour (Adamic et al. 2001, as
cited by the paper).

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
read.  The index, the adjacency and the tables are derived state: built on the
first miss (never at construction or restore), dropped by :meth:`add_peer` and
:meth:`remove_peer` — the only ways the links change — and never checkpointed.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from math import inf
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import NetworkError
from repro.network.peer import PeerNode, PeerRole
from repro.network.topology import TopologyConfig, power_law_topology


class Overlay:
    """A symmetric link mapping plus the per-node protocol-visible state."""

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
        self._peers: Dict[str, PeerNode] = {
            peer_id: PeerNode(peer_id=peer_id) for peer_id in links
        }
        # Incrementally tracked set of online peer ids.  Maintained by a
        # status listener on every node (join/leave/churn/restore all funnel
        # through ``PeerNode.online``), so per-query "who is reachable"
        # questions stop scanning the whole population.  Like the latency
        # cache it is derived state: checkpoints persist the per-peer flags
        # and the set re-derives itself on restore.
        self._online_ids: Set[str] = set()
        # Bumped on every structural or online-status change; caches derived
        # from the overlay (e.g. per-peer extra-domain neighbour counts for
        # flooding-cost accounting) key their entries on it to invalidate
        # without listeners of their own.
        self._version = 0
        for peer in self._peers.values():
            peer.bind_status_listener(self._track_status)
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
        return list(self._peers)

    @property
    def size(self) -> int:
        return len(self._peers)

    def peer(self, peer_id: str) -> PeerNode:
        try:
            return self._peers[peer_id]
        except KeyError as exc:
            raise NetworkError(f"unknown peer {peer_id!r}") from exc

    def peers(self) -> List[PeerNode]:
        return list(self._peers.values())

    def _track_status(self, peer_id: str, online: bool) -> None:
        self._version += 1
        if online:
            self._online_ids.add(peer_id)
        else:
            self._online_ids.discard(peer_id)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on any membership or status change."""
        return self._version

    @property
    def online_ids(self) -> Set[str]:
        """The ids of the currently online peers, tracked incrementally.

        This is the live set (O(1) to obtain, updated by join/leave/churn
        events as they happen) — treat it as read-only and do not hold it
        across simulation events; copy it if you need a stable snapshot.
        """
        return self._online_ids

    def online_peers(self) -> List[PeerNode]:
        return [peer for peer in self._peers.values() if peer.online]

    def superpeers(self) -> List[PeerNode]:
        return [peer for peer in self._peers.values() if peer.is_superpeer]

    def neighbors(self, peer_id: str, online_only: bool = True) -> List[str]:
        try:
            neighbours = list(self._links[peer_id])
        except KeyError as exc:
            raise NetworkError(f"unknown peer {peer_id!r}") from exc
        if online_only:
            neighbours = [n for n in neighbours if self._peers[n].online]
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

    def _drop_latency_state(self) -> None:
        self._latency_cache = {}
        self._peer_index = {}
        self._adjacency = []

    def average_degree(self) -> float:
        return sum(map(len, self._links.values())) / len(self._links)

    # -- superpeer election ----------------------------------------------------------

    def elect_superpeers(
        self,
        count: Optional[int] = None,
        fraction: Optional[float] = None,
    ) -> List[str]:
        """Promote the highest-degree nodes to superpeers.

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
        elected = sorted(self._links, key=self.degree, reverse=True)[:count]
        superpeers = set(elected)
        for peer in self._peers.values():
            peer.role = (
                PeerRole.SUPERPEER if peer.peer_id in superpeers else PeerRole.PEER
            )
        return elected

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

    # -- membership changes ----------------------------------------------------------------

    def add_peer(
        self,
        peer_id: str,
        neighbors: Iterable[str],
        latency_ms: float = 50.0,
    ) -> PeerNode:
        """Add a brand-new node connected to ``neighbors``."""
        if peer_id in self._peers:
            raise NetworkError(f"peer {peer_id!r} already exists")
        # Validated before anything moves (a self-link is unknown too: no key yet).
        new_links = dict.fromkeys(neighbors, float(latency_ms))
        for neighbour in new_links:
            if neighbour not in self._links:
                raise NetworkError(f"unknown neighbour {neighbour!r}")
        self._version += 1
        self._drop_latency_state()
        self._links[peer_id] = new_links
        for neighbour, latency in new_links.items():
            self._links[neighbour][peer_id] = latency
        node = PeerNode(peer_id=peer_id)
        self._peers[peer_id] = node
        node.bind_status_listener(self._track_status)
        return node

    def remove_peer(self, peer_id: str) -> None:
        """Remove a node entirely (used to model permanent departures)."""
        self.peer(peer_id).bind_status_listener(None)  # raises on unknown peer
        self._version += 1
        self._online_ids.discard(peer_id)
        self._drop_latency_state()
        for neighbour in self._links.pop(peer_id):
            del self._links[neighbour][peer_id]
        del self._peers[peer_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Overlay({self.size} peers, avg degree {self.average_degree():.2f})"
