"""Power-law overlay topology generation (BRITE substitute).

The paper simulates "a power law P2P network, with an average degree of 4"
generated with BRITE.  Here topologies are generated with either

* Barabási–Albert preferential attachment (``m = 2`` gives an average degree
  close to 4 and a power-law degree distribution), or
* a Waxman random graph (BRITE's other flat router model),

both returned as :mod:`networkx` graphs with per-edge latencies.  A helper
verifies the small-world/power-law characteristics the paper relies on
(group-locality arguments in Section 5.2.2).

Only this module imports :mod:`networkx` (318 modules, once a third of a
daemon's start-up), and only inside the functions that generate: restoring a
checkpoint generates nothing.  It stays because every golden recording depends
on its generators' exact draws — and, in tests, as the shortest-path oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.exceptions import NetworkError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the generated overlay.

    Attributes
    ----------
    peer_count:
        Number of nodes (the paper sweeps 16–5000).
    average_degree:
        Target average degree (the paper uses ~4; flooding assumes 3.5).
    model:
        ``"barabasi_albert"`` or ``"waxman"``.
    latency_range_ms:
        Uniform range for per-edge latency in milliseconds.
    seed:
        Seed for reproducible generation.
    """

    peer_count: int
    average_degree: float = 4.0
    model: str = "barabasi_albert"
    latency_range_ms: Tuple[float, float] = (10.0, 150.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.peer_count < 2:
            raise NetworkError("a topology needs at least two peers")
        if self.average_degree < 1.0:
            raise NetworkError("average degree must be at least 1")
        if self.model not in {"barabasi_albert", "waxman"}:
            raise NetworkError(f"unknown topology model {self.model!r}")


def power_law_topology(config: TopologyConfig) -> nx.Graph:
    """Generate a connected overlay graph following ``config``.

    Nodes are labelled ``"p0" ... "p{n-1}"``; every edge carries a ``latency``
    attribute in milliseconds.
    """
    import networkx as nx
    rng = random.Random(config.seed)
    if config.model == "barabasi_albert":
        graph = _barabasi_albert(config, rng)
    else:
        graph = _waxman(config, rng)

    _ensure_connected(graph, rng)
    _assign_latencies(graph, config.latency_range_ms, rng)
    return nx.relabel_nodes(graph, {node: f"p{node}" for node in graph.nodes})


def _barabasi_albert(config: TopologyConfig, rng: random.Random) -> nx.Graph:
    import networkx as nx
    # Each new node attaches with m edges; the average degree converges to 2m.
    attachments = max(1, round(config.average_degree / 2))
    attachments = min(attachments, config.peer_count - 1)
    return nx.barabasi_albert_graph(
        config.peer_count, attachments, seed=rng.randint(0, 2**31 - 1)
    )


def _waxman(config: TopologyConfig, rng: random.Random) -> nx.Graph:
    import networkx as nx
    # Calibrate alpha so the expected degree roughly matches the target; beta
    # fixed at 0.4 (a common BRITE default). The expected number of edges of a
    # Waxman graph is hard to pin analytically, so generate and thin/densify.
    graph = nx.waxman_graph(
        config.peer_count,
        beta=0.4,
        alpha=0.25,
        seed=rng.randint(0, 2**31 - 1),
    )
    # Capped at the complete graph, which the densifying loop could never pass.
    complete = config.peer_count * (config.peer_count - 1) // 2
    target_edges = min(round(config.peer_count * config.average_degree / 2), complete)
    edges = list(graph.edges)
    rng.shuffle(edges)
    if len(edges) > target_edges:
        for edge in edges[target_edges:]:
            graph.remove_edge(*edge)
    else:
        nodes = list(graph.nodes)
        while graph.number_of_edges() < target_edges:
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v)
    return graph


def _ensure_connected(graph: nx.Graph, rng: random.Random) -> None:
    """Connect stray components by linking them to the giant component."""
    import networkx as nx
    components = sorted(nx.connected_components(graph), key=len, reverse=True)
    if len(components) <= 1:
        return
    giant = list(components[0])
    for component in components[1:]:
        source = rng.choice(list(component))
        destination = rng.choice(giant)
        graph.add_edge(source, destination)


def _assign_latencies(
    graph: nx.Graph, latency_range_ms: Tuple[float, float], rng: random.Random
) -> None:
    low, high = latency_range_ms
    if high < low:
        raise NetworkError(f"invalid latency range {latency_range_ms}")
    for edge in graph.edges:
        graph.edges[edge]["latency"] = rng.uniform(low, high)


# -- topology diagnostics -------------------------------------------------------


def degree_statistics(graph: nx.Graph) -> Dict[str, float]:
    """Average/max degree and a crude power-law tail exponent estimate."""
    degrees = [degree for _node, degree in graph.degree()]
    if not degrees:
        raise NetworkError("cannot compute statistics of an empty graph")
    average = sum(degrees) / len(degrees)
    return {
        "average_degree": average,
        "max_degree": float(max(degrees)),
        "min_degree": float(min(degrees)),
        "power_law_exponent": _estimate_power_law_exponent(degrees),
    }


def _estimate_power_law_exponent(degrees: List[int]) -> float:
    """Maximum-likelihood (Hill) estimator of the degree-tail exponent."""
    d_min = max(1, min(degrees))
    tail = [degree for degree in degrees if degree >= d_min]
    if len(tail) < 2:
        return float("nan")
    log_sum = sum(math.log(degree / d_min) for degree in tail if degree > 0)
    if log_sum <= 0:
        return float("inf")
    return 1.0 + len(tail) / log_sum

