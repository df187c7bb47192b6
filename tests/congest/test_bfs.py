"""Tests for BFS with echo: distances, parents, eccentricity, round count."""

from repro.congest import topologies
from repro.congest.algorithms.bfs import bfs_with_echo


class TestCorrectness:
    def test_distances_match_ground_truth(self, small_network):
        result = bfs_with_echo(small_network, 0)
        assert result.dist == small_network.distances_from(0)

    def test_eccentricity_matches(self, small_network):
        result = bfs_with_echo(small_network, 0)
        assert result.eccentricity == small_network.eccentricities[0]

    def test_all_roots_on_grid(self, grid45):
        for root in range(grid45.n):
            result = bfs_with_echo(grid45, root)
            assert result.eccentricity == grid45.eccentricities[root]

    def test_parents_form_valid_tree(self, grid45):
        result = bfs_with_echo(grid45, 3)
        for v, parent in result.parent.items():
            if v == 3:
                assert parent is None
            else:
                assert grid45.has_edge(v, parent)
                assert result.dist[v] == result.dist[parent] + 1

    def test_children_inverse_of_parents(self, grid45):
        result = bfs_with_echo(grid45, 0)
        kids = result.children()
        for v, parent in result.parent.items():
            if parent is not None:
                assert v in kids[parent]

    def test_single_node_network(self):
        net = topologies.path(1)
        result = bfs_with_echo(net, 0)
        assert result.eccentricity == 0
        assert result.rounds == 0


class TestRoundComplexity:
    def test_rounds_linear_in_eccentricity(self):
        """BFS + echo should finish within ~3·ecc + O(1) rounds."""
        for n in [8, 16, 32, 64]:
            net = topologies.path(n)
            result = bfs_with_echo(net, 0)
            ecc = net.eccentricities[0]
            assert result.rounds <= 3 * ecc + 4

    def test_rounds_small_on_low_diameter(self, petersen):
        result = bfs_with_echo(petersen, 0)
        assert result.rounds <= 3 * 2 + 4

    def test_star_constant_rounds(self):
        for n in [5, 50, 200]:
            net = topologies.star(n)
            result = bfs_with_echo(net, 0)
            assert result.rounds <= 7

    def test_rounds_do_not_scale_with_n_at_fixed_diameter(self):
        small = bfs_with_echo(topologies.star(10), 1).rounds
        large = bfs_with_echo(topologies.star(200), 1).rounds
        assert large <= small + 2


class TestRobustness:
    def test_root_with_max_id(self, grid45):
        result = bfs_with_echo(grid45, grid45.n - 1)
        assert result.dist == grid45.distances_from(grid45.n - 1)

    def test_dense_graph(self):
        net = topologies.complete(8)
        result = bfs_with_echo(net, 4)
        assert result.eccentricity == 1
        assert all(d == 1 for v, d in result.dist.items() if v != 4)

    def test_cycle_graph_even_odd(self):
        for n in [6, 7]:
            net = topologies.cycle(n)
            result = bfs_with_echo(net, 0)
            assert result.eccentricity == n // 2
