"""Tests for exact even-cycle detection (post-Lemma-25 remark)."""

import networkx as nx
import pytest

from repro.apps.even_cycles import (
    classical_even_cycle_bound,
    detect_even_cycle,
    has_cycle_of_exact_length,
    quantum_even_cycle_bound,
)
from repro.congest import topologies


class TestGroundTruth:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_cycle_graph_has_only_its_length(self, k):
        g = nx.cycle_graph(k)
        assert has_cycle_of_exact_length(g, k)
        for other in [3, 4, 5, 6, 8, 10]:
            if other != k:
                assert not has_cycle_of_exact_length(g, other)

    def test_tree_has_no_cycles(self):
        g = nx.balanced_tree(2, 3)
        for k in [3, 4, 6]:
            assert not has_cycle_of_exact_length(g, k)

    def test_complete_graph_has_all_lengths(self):
        g = nx.complete_graph(6)
        for k in [3, 4, 5, 6]:
            assert has_cycle_of_exact_length(g, k)

    def test_chorded_hexagon(self):
        g = nx.cycle_graph(6)
        g.add_edge(0, 3)  # chord splits C6 into two C4s
        assert has_cycle_of_exact_length(g, 4)
        assert has_cycle_of_exact_length(g, 6)
        assert not has_cycle_of_exact_length(g, 5)

    def test_petersen_even_cycles(self):
        g = nx.petersen_graph()  # girth 5; contains C5, C6, C8, C9...
        assert not has_cycle_of_exact_length(g, 4)
        assert has_cycle_of_exact_length(g, 6)
        assert has_cycle_of_exact_length(g, 8)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            has_cycle_of_exact_length(nx.cycle_graph(4), 2)


class TestDetection:
    def test_detects_planted_even_cycle(self):
        net = topologies.planted_cycle(60, 6, seed=1)
        hits = sum(
            detect_even_cycle(net, 6, seed=s).found for s in range(10)
        )
        assert hits >= 7

    def test_never_false_positive(self):
        net = topologies.planted_cycle(60, 7, seed=2)  # only odd cycle
        for s in range(8):
            result = detect_even_cycle(net, 6, seed=s)
            assert not result.found
            assert result.sound

    def test_supported_lengths_only(self, grid45):
        with pytest.raises(ValueError):
            detect_even_cycle(grid45, 5)
        with pytest.raises(ValueError):
            detect_even_cycle(grid45, 12)

    def test_rounds_charged_sublinear(self):
        net = topologies.planted_cycle(100, 6, seed=3)
        result = detect_even_cycle(net, 6, seed=3)
        assert result.rounds <= 8 * (net.n ** 0.5)


class TestBounds:
    def test_quantum_below_classical(self):
        for k in [4, 6, 8, 10]:
            assert quantum_even_cycle_bound(10**6, k) < classical_even_cycle_bound(10**6)

    def test_exponent_approaches_half(self):
        assert quantum_even_cycle_bound(10**6, 10) > quantum_even_cycle_bound(10**6, 4)
