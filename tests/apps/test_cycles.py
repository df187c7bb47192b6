"""Tests for Lemmas 23–25: bounded-length cycle detection."""

import pytest

from repro.analysis.graphtruth import girth as true_girth
from repro.apps.cycles import (
    balanced_beta,
    detect_cycle,
    detect_cycle_clustered,
    heavy_cycle_search,
    light_cycle_scan,
    quantum_cycle_bound,
)
from repro.congest import topologies


class TestLightScan:
    def test_finds_light_cycle(self):
        net = topologies.cycle(8)  # all degrees 2: light for any β
        length, rounds = light_cycle_scan(net, 8, beta=0.5)
        assert length == 8
        assert rounds > 0

    def test_misses_cycle_above_bound(self):
        net = topologies.cycle(12)
        length, _ = light_cycle_scan(net, 6, beta=0.5)
        assert length is None

    def test_heavy_cycle_invisible_to_light_scan(self):
        # A triangle on the hub of a big star: hub degree is huge.
        net = topologies.star(30)
        g = net.graph.copy()
        g.add_edge(1, 2)  # triangle 0-1-2 through the hub
        net2 = topologies.Network(g) if hasattr(topologies, "Network") else None
        from repro.congest.network import Network

        net2 = Network(g)
        length, _ = light_cycle_scan(net2, 4, beta=0.3)
        assert length is None  # hub (degree 30) exceeds n^0.3


class TestHeavySearch:
    def test_finds_cycle_through_heavy_vertex(self):
        from repro.congest.network import Network

        g = topologies.star(20).graph.copy()
        g.add_edge(1, 2)
        net = Network(g)
        found = False
        for seed in range(6):
            length, _ = heavy_cycle_search(net, 4, beta=0.3, seed=seed)
            if length == 3:
                found = True
                break
        assert found

    def test_acyclic_reports_none(self):
        net = topologies.balanced_tree(2, 3)
        length, _ = heavy_cycle_search(net, 5, beta=0.4, seed=1)
        assert length is None


class TestDetectCycle:
    def test_finds_planted_cycle_reliably(self):
        net = topologies.planted_cycle(40, 5, seed=1)
        hits = 0
        for seed in range(10):
            result = detect_cycle(net, 6, seed=seed)
            hits += result.length == 5
        assert hits >= 7

    def test_one_sided_soundness(self):
        """Any reported length is ≥ the true girth and ≤ k."""
        net = topologies.planted_cycle(40, 6, seed=2)
        truth = true_girth(net.graph)
        for seed in range(6):
            result = detect_cycle(net, 8, seed=seed)
            if result.length is not None:
                assert truth <= result.length <= 8

    def test_no_short_cycle_reports_none(self):
        net = topologies.cycle(20)  # girth 20
        result = detect_cycle(net, 6, seed=3)
        assert result.length is None

    def test_k_too_small_rejected(self, grid45):
        with pytest.raises(ValueError):
            detect_cycle(grid45, 2)

    def test_beta_balanced_formula(self):
        beta = balanced_beta(n=10**4, diameter=10, k=6)
        assert 0 < beta <= 1
        # Larger k → smaller β (deeper light BFS must stay cheap).
        assert balanced_beta(10**4, 10, 12) < balanced_beta(10**4, 10, 4)

    def test_breakdown_reported(self):
        net = topologies.planted_cycle(30, 4, seed=4)
        result = detect_cycle(net, 6, seed=4)
        assert result.rounds == result.light_rounds + result.heavy_rounds


class TestClustered:
    def test_finds_cycle_in_clustered_mode(self):
        net = topologies.planted_cycle(50, 5, seed=5)
        hits = 0
        for seed in range(6):
            result = detect_cycle_clustered(net, 6, seed=seed)
            hits += result.length == 5
        assert hits >= 4

    def test_acyclic_clustered(self):
        net = topologies.balanced_tree(2, 4)
        result = detect_cycle_clustered(net, 6, seed=6)
        assert result.length is None

    def test_clustering_charge_included(self):
        net = topologies.planted_cycle(40, 4, seed=7)
        result = detect_cycle_clustered(net, 5, seed=7)
        assert result.detail["clustering"] > 0
        assert result.rounds >= result.detail["clustering"]


class TestBound:
    def test_bound_sublinear_in_n(self):
        assert quantum_cycle_bound(10**6, 4) < 10**6 ** 0.5 * 10

    def test_bound_exponent_grows_with_k(self):
        # Longer cycles → exponent approaches 1/2 from below.
        small_k = quantum_cycle_bound(10**6, 4)
        large_k = quantum_cycle_bound(10**6, 20)
        assert small_k < large_k
