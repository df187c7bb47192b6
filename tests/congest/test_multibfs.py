"""Tests for pipelined multi-source BFS (Lemma 20 substrate)."""

from repro.congest import topologies
from repro.congest.algorithms.bfs import bfs_with_echo
from repro.congest.algorithms.multibfs import (
    eccentricities_of_sources,
    multi_source_bfs,
)


class TestDistances:
    def test_all_sources_get_exact_distances(self, grid45):
        sources = [0, 5, 11, 19]
        result = multi_source_bfs(grid45, sources, seed=1)
        for s in sources:
            assert result.dist[s] == grid45.distances_from(s)

    def test_single_source_reduces_to_bfs(self, path8):
        result = multi_source_bfs(path8, [0], seed=1)
        assert result.dist[0] == path8.distances_from(0)

    def test_duplicate_sources_deduplicated(self, path8):
        result = multi_source_bfs(path8, [2, 2, 2], seed=1)
        assert result.sources == [2]

    def test_all_nodes_as_sources(self, petersen):
        result = multi_source_bfs(petersen, list(petersen.nodes()), seed=1)
        for s in petersen.nodes():
            assert result.dist[s] == petersen.distances_from(s)

    def test_eccentricity_helper(self, grid45):
        result = multi_source_bfs(grid45, [0, 7], seed=1)
        assert result.eccentricity(0) == grid45.eccentricities[0]
        assert result.eccentricity(7) == grid45.eccentricities[7]


class TestRoundComplexity:
    def test_rounds_at_most_sources_plus_diameter(self):
        """The [HW12] pipelining bound |S| + D + O(1), measured."""
        net = topologies.grid(6, 6)
        for count in [1, 4, 8, 16]:
            sources = list(range(count))
            result = multi_source_bfs(net, sources, seed=2)
            assert result.rounds <= count + net.diameter + 3, (
                f"{count} sources took {result.rounds} rounds"
            )

    def test_pipelining_beats_sequential(self):
        """Simultaneous BFS must be much cheaper than count × diameter."""
        net = topologies.path(40)
        sources = list(range(0, 40, 4))
        result = multi_source_bfs(net, sources, seed=3)
        sequential = len(sources) * net.diameter
        assert result.rounds < sequential / 2

    def test_rounds_grow_with_source_count(self):
        net = topologies.cycle(30)
        few = multi_source_bfs(net, [0, 10], seed=4).rounds
        many = multi_source_bfs(net, list(range(0, 30, 2)), seed=4).rounds
        assert many >= few


class TestEccentricitiesOfSources:
    def test_values_correct(self, grid45):
        tree = bfs_with_echo(grid45, 0)
        sources = [0, 3, 12, 19]
        eccs, rounds = eccentricities_of_sources(grid45, sources, tree, seed=5)
        for s in sources:
            assert eccs[s] == grid45.eccentricities[s]

    def test_rounds_linear_in_sources_plus_diameter(self):
        """Lemma 20: O(|S| + D) including aggregation and broadcast."""
        net = topologies.grid(5, 5)
        tree = bfs_with_echo(net, 0)
        for count in [2, 8, 16]:
            sources = list(range(count))
            _, rounds = eccentricities_of_sources(net, sources, tree, seed=6)
            assert rounds <= 4 * (count + net.diameter) + 10

    def test_works_on_star(self):
        net = topologies.star(12)
        tree = bfs_with_echo(net, 0)
        eccs, _ = eccentricities_of_sources(net, [0, 1, 5], tree, seed=7)
        assert eccs[0] == 1
        assert eccs[1] == 2
