"""Tests for the classical CONGEST baselines."""

import pytest

from repro.analysis.graphtruth import girth as true_girth
from repro.baselines.cycles import (
    classical_balanced_beta,
    classical_cycle_bound,
    compute_girth_classical,
    detect_cycle_classical,
)
from repro.baselines.streaming import (
    classical_streaming_bound,
    stream_to_leader,
)
from repro.congest import topologies
from repro.core.framework import DistributedInput
from repro.core.semigroup import sum_semigroup


class TestStreaming:
    def test_engine_streams_exact_aggregate(self, rng):
        net = topologies.grid(3, 3)
        vectors = {
            v: [int(rng.integers(0, 3)) for _ in range(7)] for v in net.nodes()
        }
        di = DistributedInput(vectors, sum_semigroup(3 * net.n))
        result = stream_to_leader(net, di, mode="engine", seed=1)
        assert result.aggregated == di.aggregated()

    def test_formula_matches_engine_values(self, rng):
        net = topologies.grid(3, 3)
        vectors = {
            v: [int(rng.integers(0, 2)) for _ in range(5)] for v in net.nodes()
        }
        di = DistributedInput(vectors, sum_semigroup(net.n))
        f = stream_to_leader(net, di, mode="formula", seed=2)
        e = stream_to_leader(net, di, mode="engine", seed=2)
        assert f.aggregated == e.aggregated

    def test_engine_rounds_linear_in_k(self, rng):
        net = topologies.path(10)

        def rounds_at(k):
            vectors = {v: [1] * k for v in net.nodes()}
            di = DistributedInput(vectors, sum_semigroup(net.n))
            return stream_to_leader(net, di, mode="engine", seed=3).rounds

        r64, r256 = rounds_at(64), rounds_at(256)
        # One extra round per extra slot (pipelined stream), on top of a
        # fixed setup cost: the slope, not the ratio, is the invariant.
        slope = (r256 - r64) / (256 - 64)
        assert 0.8 <= slope <= 1.5

    def test_bound_formula(self):
        assert classical_streaming_bound(1000, 10, 5, 1024) == 5 + 1000

    def test_leader_is_max_id(self, grid45, rng):
        vectors = {v: [0] for v in grid45.nodes()}
        di = DistributedInput(vectors, sum_semigroup(grid45.n))
        result = stream_to_leader(grid45, di, seed=4)
        assert result.leader == grid45.n - 1


class TestClassicalCycles:
    def test_detects_planted_cycle(self):
        net = topologies.planted_cycle(40, 5, seed=1)
        hits = 0
        for seed in range(8):
            result = detect_cycle_classical(net, 6, seed=seed)
            hits += result.length == 5
        assert hits >= 6

    def test_reports_none_when_absent(self):
        net = topologies.balanced_tree(2, 4)
        result = detect_cycle_classical(net, 8, seed=2)
        assert not result.found

    def test_soundness(self):
        net = topologies.planted_cycle(40, 6, seed=3)
        truth = true_girth(net.graph)
        for seed in range(5):
            result = detect_cycle_classical(net, 8, seed=seed)
            if result.found:
                assert result.length >= truth

    def test_k_validation(self, grid45):
        with pytest.raises(ValueError):
            detect_cycle_classical(grid45, 2)

    def test_beta_formula(self):
        assert 0 < classical_balanced_beta(10**4, 6) <= 1

    def test_bound_grows_with_k_exponent(self):
        assert classical_cycle_bound(10**6, 12) > classical_cycle_bound(10**6, 4)

    def test_classical_bound_above_quantum_bound(self):
        from repro.apps.cycles import quantum_cycle_bound

        n = 10**6
        for k in [4, 6, 8]:
            assert quantum_cycle_bound(n, k) < classical_cycle_bound(n, k)


class TestClassicalGirth:
    def test_girth_correct(self):
        net = topologies.petersen()
        g, rounds = compute_girth_classical(net, seed=4)
        assert g == 5
        assert rounds > 0

    def test_triangle_shortcut(self):
        net = topologies.complete(6)
        g, _ = compute_girth_classical(net, seed=5)
        assert g == 3

    def test_acyclic(self):
        net = topologies.balanced_tree(2, 3)
        g, _ = compute_girth_classical(net, seed=6, max_k=10)
        assert g is None
