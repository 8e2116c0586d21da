"""Unit tests for the superpeer overlay."""

import random

import pytest

from repro.exceptions import NetworkError
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig, power_law_topology


def complete_links(size, latency=10.0):
    """The complete graph on ``p0 … p{size-1}`` as an overlay's link mapping."""
    return {
        f"p{i}": {f"p{j}": latency for j in range(size) if j != i}
        for i in range(size)
    }


class TestBasicAccess:
    def test_size_and_peer_ids(self, small_overlay):
        assert small_overlay.size == 32
        assert len(small_overlay.peer_ids) == 32

    def test_peer_lookup(self, small_overlay):
        assert "p0" in small_overlay.peer_ids
        assert small_overlay.is_online("p0")

    def test_unknown_peer_raises(self, small_overlay):
        with pytest.raises(NetworkError):
            small_overlay.is_online("p999")

    def test_neighbors_are_symmetric(self, small_overlay):
        for peer_id in small_overlay.peer_ids[:10]:
            for neighbour in small_overlay.neighbors(peer_id):
                assert peer_id in small_overlay.neighbors(neighbour)

    def test_neighbors_exclude_offline(self, small_overlay):
        peer_id = small_overlay.peer_ids[0]
        neighbours = small_overlay.neighbors(peer_id)
        victim = neighbours[0]
        small_overlay.set_online(victim, False)
        assert victim not in small_overlay.neighbors(peer_id)
        assert victim in small_overlay.neighbors(peer_id, online_only=False)

    def test_degree_and_average_degree(self, small_overlay):
        degrees = [small_overlay.degree(p) for p in small_overlay.peer_ids]
        assert min(degrees) >= 1
        assert small_overlay.average_degree() == pytest.approx(
            sum(degrees) / len(degrees)
        )

    def test_latency_direct_and_multi_hop(self, small_overlay):
        source = small_overlay.peer_ids[0]
        neighbour = small_overlay.neighbors(source)[0]
        assert small_overlay.latency(source, neighbour) > 0
        assert small_overlay.latency(source, source) == 0.0
        far = small_overlay.peer_ids[-1]
        assert small_overlay.latency(source, far) >= 0

    def test_neighbours_answer_with_their_link_even_past_a_cheaper_detour(self):
        overlay = Overlay(
            {
                "a": {"b": 100.0, "c": 10.0},
                "b": {"a": 100.0, "c": 10.0, "d": 10.0},
                "c": {"a": 10.0, "b": 10.0},
                "d": {"b": 10.0},
            }
        )
        assert overlay.latency("a", "b") == 100.0  # the link, not a-c-b = 20
        assert overlay.latency("b", "a") == 100.0
        assert overlay.latency("a", "d") == 30.0  # a path does take the detour

    def test_latency_to_or_from_an_unknown_peer_raises_network_error(
        self, small_overlay
    ):
        with pytest.raises(NetworkError, match="unknown peer 'nope'"):
            small_overlay.latency("p1", "nope")
        with pytest.raises(NetworkError, match="unknown peer 'nope'"):
            small_overlay.latency("nope", "p1")


class TestLinks:
    def test_empty_mapping_raises(self):
        with pytest.raises(NetworkError, match="empty"):
            Overlay({})

    def test_unknown_neighbour_raises(self):
        with pytest.raises(NetworkError, match="unknown neighbour 'c'"):
            Overlay({"a": {"b": 10.0, "c": 10.0}, "b": {"a": 10.0}})

    def test_self_link_raises(self):
        with pytest.raises(NetworkError, match="self-link"):
            Overlay({"a": {"a": 10.0, "b": 10.0}, "b": {"a": 10.0}})

    def test_one_sided_link_raises(self):
        with pytest.raises(NetworkError, match="one-sided or unequal"):
            Overlay({"a": {"b": 10.0}, "b": {}})

    def test_unequal_link_raises(self):
        with pytest.raises(NetworkError, match="one-sided or unequal"):
            Overlay({"a": {"b": 10.0}, "b": {"a": 20.0}})

    @pytest.mark.parametrize("model", ["barabasi_albert", "waxman"])
    def test_generate_copies_the_generated_adjacency_in_its_order(self, model):
        config = TopologyConfig(peer_count=60, model=model, seed=11)
        expected = [
            (node, [(nbr, edge["latency"]) for nbr, edge in neighbours.items()])
            for node, neighbours in power_law_topology(config).adj.items()
        ]
        links = Overlay.generate(config).links
        assert [
            (node, list(neighbours.items())) for node, neighbours in links.items()
        ] == expected


class TestSuperpeerElection:
    def test_elect_by_fraction(self, medium_overlay):
        elected = medium_overlay.elect_superpeers(fraction=1 / 16)
        assert len(elected) == round(120 / 16)

    def test_elect_by_count(self, medium_overlay):
        elected = medium_overlay.elect_superpeers(count=5)
        assert len(elected) == 5

    def test_elected_are_highest_degree(self, medium_overlay):
        elected = medium_overlay.elect_superpeers(count=3)
        degrees = {p: medium_overlay.degree(p) for p in medium_overlay.peer_ids}
        threshold = sorted(degrees.values(), reverse=True)[2]
        assert all(degrees[sp] >= threshold for sp in elected)

    def test_elected_are_returned_in_rank_order(self, medium_overlay):
        elected = medium_overlay.elect_superpeers(count=8)
        # Highest degree first, equal degrees in peer order (a stable sort).
        ranked = sorted(
            medium_overlay.peer_ids, key=medium_overlay.degree, reverse=True
        )
        assert elected == ranked[:8]

    def test_count_and_fraction_together_raise(self, medium_overlay):
        with pytest.raises(NetworkError):
            medium_overlay.elect_superpeers(count=3, fraction=0.1)

    def test_election_only_ranks(self, medium_overlay):
        version = medium_overlay.version
        first = medium_overlay.elect_superpeers(count=5)
        assert medium_overlay.elect_superpeers(count=2) == first[:2]
        assert medium_overlay.version == version
        assert medium_overlay.online_ids == set(medium_overlay.peer_ids)


class TestReachability:
    def test_within_ttl_excludes_origin(self, small_overlay):
        origin = small_overlay.peer_ids[0]
        reached = small_overlay.within_ttl(origin, 2)
        assert origin not in reached
        assert all(1 <= hops <= 2 for hops in reached.values())

    def test_within_ttl_grows_with_ttl(self, medium_overlay):
        origin = medium_overlay.peer_ids[0]
        assert len(medium_overlay.within_ttl(origin, 1)) <= len(
            medium_overlay.within_ttl(origin, 3)
        )

    def test_within_ttl_zero_is_empty(self, small_overlay):
        assert small_overlay.within_ttl(small_overlay.peer_ids[0], 0) == {}

    def test_negative_ttl_raises(self, small_overlay):
        with pytest.raises(NetworkError):
            small_overlay.within_ttl(small_overlay.peer_ids[0], -1)

    def test_flood_message_count_at_least_reached(self, medium_overlay):
        origin = medium_overlay.peer_ids[0]
        messages = medium_overlay.flood_message_count(origin, 3)
        reached = len(medium_overlay.within_ttl(origin, 3))
        assert messages >= reached

    def test_flood_zero_ttl_is_zero(self, small_overlay):
        assert small_overlay.flood_message_count(small_overlay.peer_ids[0], 0) == 0


class TestSelectiveWalk:
    def test_walk_finds_target(self, medium_overlay):
        rng = random.Random(0)
        target_set = set(medium_overlay.elect_superpeers(count=3))
        origin = next(
            p for p in medium_overlay.peer_ids if p not in target_set
        )
        found, hops = medium_overlay.selective_walk(
            origin, lambda p: p in target_set, rng=rng
        )
        assert found in target_set
        assert hops >= 1

    def test_walk_stops_immediately_if_origin_matches(self, small_overlay):
        origin = small_overlay.peer_ids[0]
        found, hops = small_overlay.selective_walk(origin, lambda p: True)
        assert found == origin
        assert hops == 0

    def test_walk_gives_up_after_max_hops(self, small_overlay):
        found, hops = small_overlay.selective_walk(
            small_overlay.peer_ids[0], lambda p: False, max_hops=5
        )
        assert found is None
        assert hops == 5

    def test_default_walks_can_diverge_on_ties(self):
        """Regression: default-RNG walks used to replay identical tie-breaks.

        On a regular graph every hop is a degree tie.  With a fresh
        ``Random(0)`` per call, two default walks from the same origin were
        forced down the same path forever; drawing from the overlay's shared,
        advancing RNG lets repeated walks explore different tie-breaks.
        """
        overlay = Overlay(complete_links(8))

        def traced_walk():
            path = []

            def record(peer_id):
                path.append(peer_id)
                return False

            overlay.selective_walk("p0", record, max_hops=6)
            return path

        first, second = traced_walk(), traced_walk()
        assert first[0] == second[0] == "p0"
        assert first != second

    def test_explicit_rng_still_reproducible(self):
        overlay = Overlay(complete_links(8))
        walks = [
            overlay.selective_walk(
                "p0", lambda p: False, max_hops=6, rng=random.Random(7)
            )
            for _ in range(2)
        ]
        assert walks[0] == walks[1]

    def test_walk_prefers_high_degree_neighbours(self, medium_overlay):
        origin = min(medium_overlay.peer_ids, key=medium_overlay.degree)
        rng = random.Random(1)
        found, hops = medium_overlay.selective_walk(
            origin, lambda p: p != origin, max_hops=1, rng=rng
        )
        assert hops == 1
        neighbour_degrees = [
            medium_overlay.degree(n) for n in medium_overlay.neighbors(origin)
        ]
        assert medium_overlay.degree(found) == max(neighbour_degrees)
