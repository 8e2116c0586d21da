"""Property: ``Overlay.latency`` is bit-equal to the library pass it replaced.

``latency`` runs its own ``heapq`` Dijkstra over an index and an adjacency the
overlay derives from its link mapping.  ``networkx``'s
``single_source_dijkstra_path_length`` — what it called until then — lives on
here as the oracle, run over a graph each test builds from ``overlay.links``
(the overlay itself holds no graph object): over drawn topologies of both models, every answer equals
the oracle's with float ``==`` (no tolerance: the construction compares these
doubles with ``<``), a neighbour answers with the link's own latency, and a
peer the oracle cannot reach raises ``NetworkError``.  The same must hold
across two components and on an overlay restored from a checkpoint payload.
"""

import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.store.checkpoint import _overlay_from_payload, _overlay_payload

seeds = st.integers(min_value=0, max_value=2**31 - 1)
topology_configs = st.builds(
    TopologyConfig,
    peer_count=st.integers(min_value=2, max_value=200),
    model=st.sampled_from(["barabasi_albert", "waxman"]),
    seed=seeds,
)
#: (source, destination) draws, reduced modulo the population at use.
pair_draws = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
    min_size=1,
    max_size=12,
)


def pairs_of(overlay, draws):
    ids = overlay.peer_ids
    return [(ids[s % len(ids)], ids[d % len(ids)]) for s, d in draws]


def graph_of(overlay):
    """The oracle's view: an ``nx.Graph`` of the overlay's links as they stand."""
    graph = nx.Graph()
    graph.add_nodes_from(overlay.links)
    graph.add_edges_from(
        (peer_id, neighbour, {"latency": latency})
        for peer_id, neighbours in overlay.links.items()
        for neighbour, latency in neighbours.items()
    )
    return graph


def assert_latency_matches_oracle(overlay, graph, source, destination):
    if source == destination:
        assert overlay.latency(source, destination) == 0.0
    elif graph.has_edge(source, destination):
        expected = graph.edges[source, destination]["latency"]
        assert overlay.latency(source, destination) == expected
    else:
        oracle = nx.single_source_dijkstra_path_length(
            graph, destination, weight="latency"
        )
        if source in oracle:
            assert overlay.latency(source, destination) == oracle[source]
        else:
            with pytest.raises(NetworkError, match="no path"):
                overlay.latency(source, destination)


@given(topology_configs, pair_draws)
@settings(max_examples=60, deadline=None)
def test_latency_equals_the_networkx_pass(config, draws):
    overlay = Overlay.generate(config)
    graph = graph_of(overlay)
    for source, destination in pairs_of(overlay, draws):
        assert_latency_matches_oracle(overlay, graph, source, destination)


@given(topology_configs, topology_configs, pair_draws)
@settings(max_examples=30, deadline=None)
def test_no_path_across_two_components(left, right, draws):
    overlay = Overlay(
        {
            prefix + peer_id: {prefix + nbr: ms for nbr, ms in neighbours.items()}
            for prefix, config in (("a-", left), ("b-", right))
            for peer_id, neighbours in Overlay.generate(config).links.items()
        }
    )
    graph = graph_of(overlay)
    for source, destination in pairs_of(overlay, draws):
        assert_latency_matches_oracle(overlay, graph, source, destination)
        if source[0] != destination[0]:
            with pytest.raises(NetworkError, match="no path"):
                overlay.latency(source, destination)
            with pytest.raises(NetworkError, match="no path"):
                overlay.latency(destination, source)


@given(topology_configs, pair_draws)
@settings(max_examples=30, deadline=None)
def test_restored_overlay_answers_as_the_live_one(config, draws):
    live = Overlay.generate(config)
    restored = _overlay_from_payload(json.loads(json.dumps(_overlay_payload(live))))
    assert [(p, list(n.items())) for p, n in restored.links.items()] == [
        (p, list(n.items())) for p, n in live.links.items()
    ]
    graph = graph_of(live)
    for source, destination in pairs_of(live, draws):
        assert_latency_matches_oracle(restored, graph, source, destination)
        for peer_id in live.peer_ids:  # the destination's whole table
            assert restored.latency(peer_id, destination) == live.latency(
                peer_id, destination
            )
