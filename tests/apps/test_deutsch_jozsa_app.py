"""Tests for Theorem 17/18: distributed Deutsch–Jozsa."""

import numpy as np
import pytest

from repro.apps.deutsch_jozsa import (
    aggregated_input,
    classical_exact_lower_bound,
    quantum_round_bound,
    solve_distributed_dj,
)
from repro.baselines.streaming import classical_deutsch_jozsa
from repro.congest import topologies
from repro.quantum.deutsch_jozsa import PromiseViolation


def balanced_inputs(net, k, rng):
    """Random per-node strings whose XOR is balanced."""
    inputs = {v: [int(b) for b in rng.integers(0, 2, size=k)] for v in net.nodes()}
    xor = aggregated_input(inputs)
    # Repair node 0 so the aggregate is exactly balanced.
    target = [1] * (k // 2) + [0] * (k // 2)
    fix = [a ^ b for a, b in zip(xor, target, strict=True)]
    inputs[0] = [a ^ b for a, b in zip(inputs[0], fix, strict=True)]
    return inputs


def constant_inputs(net, k, rng, ones=False):
    inputs = {v: [int(b) for b in rng.integers(0, 2, size=k)] for v in net.nodes()}
    xor = aggregated_input(inputs)
    target = [1 if ones else 0] * k
    fix = [a ^ b for a, b in zip(xor, target, strict=True)]
    inputs[0] = [a ^ b for a, b in zip(inputs[0], fix, strict=True)]
    return inputs


class TestZeroError:
    """Theorem 17 claims probability 1 — every run must be correct."""

    @pytest.mark.parametrize("seed", range(8))
    def test_balanced_always_detected(self, seed):
        net = topologies.grid(3, 3)
        rng = np.random.default_rng(seed)
        inputs = balanced_inputs(net, 16, rng)
        result = solve_distributed_dj(net, inputs, seed=seed)
        assert result.balanced

    @pytest.mark.parametrize("seed", range(8))
    def test_constant_always_detected(self, seed):
        net = topologies.grid(3, 3)
        rng = np.random.default_rng(seed)
        inputs = constant_inputs(net, 16, rng, ones=bool(seed % 2))
        result = solve_distributed_dj(net, inputs, seed=seed)
        assert result.constant

    def test_exactly_two_batches(self, grid45, rng):
        inputs = constant_inputs(grid45, 8, rng)
        result = solve_distributed_dj(grid45, inputs, seed=1)
        assert result.batches == 2  # query + uncompute

    def test_promise_violation_raises(self, grid45):
        inputs = {v: [0] * 8 for v in grid45.nodes()}
        inputs[0] = [1, 0, 0, 0, 0, 0, 0, 0]
        with pytest.raises(PromiseViolation):
            solve_distributed_dj(grid45, inputs, seed=1)

    def test_odd_k_rejected(self, grid45):
        inputs = {v: [0] * 7 for v in grid45.nodes()}
        with pytest.raises(ValueError):
            solve_distributed_dj(grid45, inputs, seed=1)


class TestExponentialSeparation:
    def test_quantum_rounds_independent_of_k(self):
        """The k-dependence is only the ⌈log k/log n⌉ word factor."""
        net = topologies.path_with_endpoints(6)
        rng = np.random.default_rng(3)
        small = solve_distributed_dj(net, constant_inputs(net, 8, rng), seed=3)
        large = solve_distributed_dj(net, constant_inputs(net, 1024, rng), seed=3)
        assert large.rounds <= 4 * small.rounds

    def test_classical_rounds_linear_in_k(self):
        net = topologies.path_with_endpoints(6)
        rng = np.random.default_rng(4)
        _, small = classical_deutsch_jozsa(net, constant_inputs(net, 64, rng), seed=4)
        _, large = classical_deutsch_jozsa(net, constant_inputs(net, 1024, rng), seed=4)
        assert large > 8 * small

    def test_separation_at_moderate_k(self):
        net = topologies.path_with_endpoints(6)
        rng = np.random.default_rng(5)
        inputs = balanced_inputs(net, 2048, rng)
        quantum = solve_distributed_dj(net, inputs, seed=5)
        answer, classical_rounds = classical_deutsch_jozsa(net, inputs, seed=5)
        assert not answer  # balanced
        assert quantum.rounds * 10 < classical_rounds

    def test_classical_baseline_zero_error(self):
        net = topologies.grid(3, 3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            constant, _ = classical_deutsch_jozsa(
                net, constant_inputs(net, 32, rng), seed=seed
            )
            assert constant
            balanced, _ = classical_deutsch_jozsa(
                net, balanced_inputs(net, 32, rng), seed=seed
            )
            assert not balanced

    def test_bound_formulas(self):
        n, d, k = 256, 8, 2**20
        assert quantum_round_bound(k, d, n) < classical_exact_lower_bound(k, d, n)
