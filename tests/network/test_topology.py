"""Unit tests for topology generation (BRITE substitute)."""

import networkx as nx
import pytest

from repro.exceptions import NetworkError
from repro.network.topology import (
    TopologyConfig,
    degree_statistics,
    power_law_topology,
)


class TestTopologyConfig:
    def test_too_few_peers_raise(self):
        with pytest.raises(NetworkError):
            TopologyConfig(peer_count=1)

    def test_invalid_degree_raises(self):
        with pytest.raises(NetworkError):
            TopologyConfig(peer_count=10, average_degree=0.5)

    def test_unknown_model_raises(self):
        with pytest.raises(NetworkError):
            TopologyConfig(peer_count=10, model="ring")


class TestBarabasiAlbert:
    def test_node_count_and_labels(self):
        graph = power_law_topology(TopologyConfig(peer_count=50, seed=1))
        assert graph.number_of_nodes() == 50
        assert all(node.startswith("p") for node in graph.nodes)

    def test_connected(self):
        graph = power_law_topology(TopologyConfig(peer_count=200, seed=2))
        assert nx.is_connected(graph)

    def test_average_degree_close_to_target(self):
        graph = power_law_topology(TopologyConfig(peer_count=500, seed=3))
        stats = degree_statistics(graph)
        assert 3.0 <= stats["average_degree"] <= 5.0

    def test_power_law_tail(self):
        graph = power_law_topology(TopologyConfig(peer_count=500, seed=3))
        stats = degree_statistics(graph)
        # Hubs exist: the max degree is far above the average.
        assert stats["max_degree"] > 4 * stats["average_degree"]

    def test_latencies_assigned_in_range(self):
        config = TopologyConfig(peer_count=50, seed=4, latency_range_ms=(5, 10))
        graph = power_law_topology(config)
        for _u, _v, data in graph.edges(data=True):
            assert 5 <= data["latency"] <= 10

    def test_reproducible_with_seed(self):
        first = power_law_topology(TopologyConfig(peer_count=60, seed=9))
        second = power_law_topology(TopologyConfig(peer_count=60, seed=9))
        assert set(first.edges) == set(second.edges)

    def test_different_seeds_differ(self):
        first = power_law_topology(TopologyConfig(peer_count=60, seed=1))
        second = power_law_topology(TopologyConfig(peer_count=60, seed=2))
        assert set(first.edges) != set(second.edges)


class TestWaxman:
    def test_waxman_generation(self):
        config = TopologyConfig(peer_count=100, model="waxman", seed=5)
        graph = power_law_topology(config)
        assert graph.number_of_nodes() == 100
        assert nx.is_connected(graph)

    def test_waxman_average_degree(self):
        config = TopologyConfig(peer_count=200, model="waxman", seed=5)
        graph = power_law_topology(config)
        stats = degree_statistics(graph)
        assert 3.0 <= stats["average_degree"] <= 5.5

    @pytest.mark.parametrize("peer_count", [2, 3, 4])
    def test_waxman_below_five_peers_returns(self, peer_count):
        """Regression: the edge target exceeded the complete graph and spun."""
        config = TopologyConfig(peer_count=peer_count, model="waxman", seed=5)
        graph = power_law_topology(config)
        assert graph.number_of_nodes() == peer_count
        assert graph.number_of_edges() == peer_count * (peer_count - 1) // 2


class TestHelpers:
    def test_degree_statistics_keys(self):
        graph = power_law_topology(TopologyConfig(peer_count=30, seed=8))
        stats = degree_statistics(graph)
        assert {"average_degree", "max_degree", "min_degree", "power_law_exponent"} <= set(stats)
