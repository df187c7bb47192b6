"""Tests for triangle finding (the Corollary 26 subroutine)."""

import networkx as nx
import pytest

from repro.apps.triangles import (
    classical_triangle_bound,
    detect_triangle_local,
    detect_triangle_quantum,
    find_triangle_truth,
    quantum_triangle_bound,
    quantum_triangle_bound_igm,
)
from repro.congest import topologies


class TestGroundTruth:
    def test_complete_graph(self):
        assert find_triangle_truth(nx.complete_graph(4)) == (0, 1, 2)

    def test_triangle_free(self):
        assert find_triangle_truth(nx.petersen_graph()) is None
        assert find_triangle_truth(nx.cycle_graph(8)) is None
        assert find_triangle_truth(nx.grid_2d_graph(3, 3)) is None

    def test_single_triangle(self):
        g = nx.path_graph(6)
        g.add_edge(2, 4)
        assert find_triangle_truth(g) == (2, 3, 4)


class TestLocalProtocol:
    @pytest.mark.parametrize("maker,expected", [
        (lambda: topologies.complete(6), True),
        (lambda: topologies.petersen(), False),
        (lambda: topologies.grid(4, 4), False),
        (lambda: topologies.lollipop(5, 4), True),
        (lambda: topologies.cycle(9), False),
    ])
    def test_exact_detection(self, maker, expected):
        net = maker()
        result = detect_triangle_local(net, seed=1)
        assert result.found == expected

    def test_reported_triangle_is_real(self):
        net = topologies.random_regular(30, 4, seed=3)
        result = detect_triangle_local(net, seed=3)
        if result.found:
            a, b, c = result.triangle
            assert net.has_edge(a, b) and net.has_edge(b, c) and net.has_edge(a, c)

    def test_rounds_track_max_degree(self):
        for maker in [
            lambda: topologies.star(20),
            lambda: topologies.complete(10),
            lambda: topologies.cycle(15),
        ]:
            net = maker()
            result = detect_triangle_local(net, seed=2)
            max_deg = max(net.degree(v) for v in net.nodes())
            assert result.rounds <= max_deg + 3

    def test_rounds_independent_of_n_at_fixed_degree(self):
        small = detect_triangle_local(topologies.cycle(10), seed=4).rounds
        large = detect_triangle_local(topologies.cycle(60), seed=4).rounds
        assert abs(small - large) <= 1


class TestQuantumEmulation:
    def test_one_sided_no_false_positives(self):
        net = topologies.petersen()
        for seed in range(10):
            assert not detect_triangle_quantum(net, seed=seed).found

    def test_detects_reliably(self):
        net = topologies.complete(7)
        hits = sum(
            detect_triangle_quantum(net, seed=s).found for s in range(12)
        )
        assert hits >= 8

    def test_rounds_sublinear(self):
        net = topologies.random_regular(60, 4, seed=1)
        result = detect_triangle_quantum(net, seed=1)
        assert result.rounds <= 8 * 60 ** 0.25


class TestBounds:
    def test_ordering(self):
        n = 10**6
        assert quantum_triangle_bound(n) < quantum_triangle_bound_igm(n)
        assert quantum_triangle_bound_igm(n) < classical_triangle_bound(n)

    def test_sublinearity(self):
        assert quantum_triangle_bound(10**10) < (10**10) ** 0.5
