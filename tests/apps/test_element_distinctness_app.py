"""Tests for Lemmas 12–15: distributed element distinctness."""

import numpy as np
import pytest

from repro.apps.element_distinctness import (
    classical_round_lower_bound,
    distinctness_between_nodes,
    distinctness_distributed_vector,
    quantum_round_bound_vector,
)
from repro.baselines.streaming import classical_element_distinctness
from repro.congest import topologies


def planted_vectors(net, k, rng, max_value=10**6, collide=True):
    """Spread a global vector with (or without) a collision across nodes."""
    base = list(rng.choice(max_value - 1, size=k, replace=False))
    if collide:
        i, j = rng.choice(k, size=2, replace=False)
        base[j] = base[i]
    vectors = {v: [0] * k for v in net.nodes()}
    for idx, value in enumerate(base):
        owner = int(rng.integers(0, net.n))
        vectors[owner][idx] = value
    return vectors, base


class TestDistributedVector:
    def test_finds_planted_collision_reliably(self):
        net = topologies.grid(3, 4)
        hits = 0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            vectors, base = planted_vectors(net, 60, rng)
            result = distinctness_distributed_vector(
                net, vectors, max_value=10**6, seed=seed
            )
            hits += result.correct_against(base)
        assert hits >= 10

    def test_reported_pair_is_real(self):
        net = topologies.grid(3, 3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vectors, base = planted_vectors(net, 40, rng)
            result = distinctness_distributed_vector(
                net, vectors, max_value=10**6, seed=seed
            )
            if result.pair is not None:
                i, j = result.pair
                assert base[i] == base[j] and i != j

    def test_distinct_input_reports_distinct(self):
        net = topologies.grid(3, 3)
        rng = np.random.default_rng(9)
        vectors, _ = planted_vectors(net, 40, rng, collide=False)
        result = distinctness_distributed_vector(
            net, vectors, max_value=10**6, seed=9
        )
        assert result.all_distinct

    def test_engine_mode_agrees(self):
        net = topologies.grid(3, 3)
        rng = np.random.default_rng(10)
        vectors, base = planted_vectors(net, 24, rng, max_value=1000)
        e = distinctness_distributed_vector(
            net, vectors, max_value=1000, mode="engine", seed=10
        )
        assert e.correct_against(base) or e.pair is None  # sound if found


class TestBetweenNodes:
    def test_collision_between_nodes_found(self):
        net = topologies.grid(4, 4)
        hits = 0
        for seed in range(10):
            values = {v: 100 + v for v in net.nodes()}
            values[11] = values[2]
            result = distinctness_between_nodes(
                net, values, max_value=200, seed=seed
            )
            hits += result.pair == (2, 11)
        assert hits >= 7

    def test_parallelism_one_on_a_complete_graph(self):
        """Regression: at p = D = 1 the walk's verify step used to query
        its pair as one batch of two and raise ParallelismViolation."""
        net = topologies.complete(6)
        values = {v: v for v in net.nodes()}
        values[5] = 0
        hits = 0
        for seed in range(40):
            result = distinctness_between_nodes(
                net, values, max_value=10, seed=seed
            )
            assert result.run.query_ledger.parallelism == 1
            assert result.pair in (None, (0, 5))
            hits += result.pair == (0, 5)
        assert hits >= 27  # the 2/3 guarantee

    def test_distinct_values_reported_distinct(self):
        net = topologies.grid(3, 3)
        values = {v: 50 + 3 * v for v in net.nodes()}
        result = distinctness_between_nodes(net, values, max_value=100, seed=1)
        assert result.all_distinct

    def test_rejects_missing_value(self, grid45):
        with pytest.raises(ValueError):
            distinctness_between_nodes(grid45, {0: 1}, max_value=10)

    def test_rejects_out_of_range(self, grid45):
        values = {v: 5 for v in grid45.nodes()}
        values[3] = 999
        with pytest.raises(ValueError):
            distinctness_between_nodes(grid45, values, max_value=10)


class TestSeparation:
    def test_quantum_beats_classical_at_large_k(self):
        net = topologies.path_with_endpoints(4)
        rng = np.random.default_rng(11)
        k = 4096
        vectors, _ = planted_vectors(net, k, rng)
        quantum = distinctness_distributed_vector(
            net, vectors, max_value=10**6, seed=11
        )
        _, classical_rounds = classical_element_distinctness(
            net, vectors, max_value=10**6, seed=11
        )
        assert quantum.rounds < classical_rounds

    def test_classical_baseline_exact(self):
        net = topologies.path(5)
        rng = np.random.default_rng(12)
        vectors, base = planted_vectors(net, 30, rng)
        pair, _ = classical_element_distinctness(
            net, vectors, max_value=10**6, seed=12
        )
        assert pair is not None
        assert base[pair[0]] == base[pair[1]]

    def test_bound_curves_cross(self):
        n, d = 512, 4
        k = 2**18
        assert quantum_round_bound_vector(k, d, n, 10**6) < (
            classical_round_lower_bound(k, d, n) * 50
        )
        # At very large k the k^{2/3} curve falls below even Ω(k/log n).
        k_big = 2**30
        assert quantum_round_bound_vector(k_big, d, n, 10**6) < (
            classical_round_lower_bound(k_big, d, n)
        )


class TestRoundScaling:
    def test_sublinear_in_k(self):
        """8× the input, round growth ≈ 8^{2/3} = 4, well below 8."""
        net = topologies.path_with_endpoints(4)

        def rounds_at(k):
            total = 0
            for seed in range(4):
                rng = np.random.default_rng(seed)
                vectors, _ = planted_vectors(net, k, rng)
                total += distinctness_distributed_vector(
                    net, vectors, max_value=10**6, seed=seed
                ).rounds
            return total / 4

        small = rounds_at(512)
        large = rounds_at(4096)
        assert large / small < 7.0
