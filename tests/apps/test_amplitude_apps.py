"""Tests for Section 6 CONGEST amplitude techniques (Lemmas 27–30)."""

import numpy as np
import pytest

from repro.apps.amplitude_apps import (
    DistributedSubroutine,
    amplification_round_bound,
    amplify,
    amplitude_estimation_round_bound,
    estimate_amplitude_distributed,
    estimate_phase_distributed,
    iterate_rounds,
    phase_estimation_round_bound,
)
from repro.congest import topologies


@pytest.fixture
def net():
    return topologies.grid(4, 4)


class TestSubroutine:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedSubroutine(rounds=-1, success_probability=0.5)
        with pytest.raises(ValueError):
            DistributedSubroutine(rounds=1, success_probability=1.5)

    def test_iterate_rounds(self, net):
        sub = DistributedSubroutine(rounds=10, success_probability=0.1)
        assert iterate_rounds(net, sub) == 2 * 10 + 2 * net.diameter


class TestAmplification:
    def test_succeeds_reliably(self, net):
        sub = DistributedSubroutine(rounds=5, success_probability=0.02)
        hits = 0
        for seed in range(20):
            out = amplify(net, sub, delta=0.05, rng=np.random.default_rng(seed))
            hits += out.succeeded
        assert hits >= 17

    def test_handles_zero_probability(self, net, rng):
        sub = DistributedSubroutine(rounds=5, success_probability=0.0)
        out = amplify(net, sub, delta=0.1, rng=rng)
        assert not out.succeeded

    def test_rounds_scale_inverse_sqrt_p(self, net, rng):
        cheap = amplify(
            net, DistributedSubroutine(5, 0.25), delta=0.1, rng=rng
        )
        costly = amplify(
            net, DistributedSubroutine(5, 0.25 / 16), delta=0.1, rng=rng
        )
        # 16× smaller p → ~4× more iterations per attempt.
        assert costly.iterations >= 3 * max(cheap.iterations, 1)

    def test_rounds_within_bound(self, net):
        sub = DistributedSubroutine(rounds=8, success_probability=0.01)
        bound = amplification_round_bound(net, sub, delta=0.05)
        for seed in range(10):
            out = amplify(net, sub, delta=0.05, rng=np.random.default_rng(seed))
            assert out.rounds <= 6 * bound

    def test_delta_validation(self, net, rng):
        with pytest.raises(ValueError):
            amplify(net, DistributedSubroutine(1, 0.5), delta=0.0, rng=rng)


class TestPhaseEstimation:
    def test_estimate_within_epsilon(self, net):
        hits = 0
        for seed in range(15):
            out = estimate_phase_distributed(
                net, unitary_rounds=3, true_theta=0.321,
                epsilon=0.02, delta=0.05, rng=np.random.default_rng(seed),
            )
            err = min(abs(out.theta_estimate - 0.321),
                      1 - abs(out.theta_estimate - 0.321))
            hits += err <= 0.02
        assert hits >= 12

    def test_rounds_scale_with_inverse_epsilon(self, net, rng):
        loose = estimate_phase_distributed(
            net, 3, 0.3, epsilon=0.1, delta=0.1, rng=rng
        )
        tight = estimate_phase_distributed(
            net, 3, 0.3, epsilon=0.01, delta=0.1, rng=rng
        )
        assert tight.rounds > 4 * loose.rounds

    def test_bound_formula(self, net):
        assert phase_estimation_round_bound(net, 5, 0.01, 0.1) > (
            phase_estimation_round_bound(net, 5, 0.1, 0.1)
        )

    def test_validation(self, net, rng):
        with pytest.raises(ValueError):
            estimate_phase_distributed(net, 1, 0.5, epsilon=0.0, delta=0.1, rng=rng)
        with pytest.raises(ValueError):
            estimate_phase_distributed(net, 1, 0.5, epsilon=0.1, delta=1.0, rng=rng)


class TestAmplitudeEstimation:
    def test_estimate_close_to_truth(self, net):
        sub = DistributedSubroutine(rounds=4, success_probability=0.04)
        errors = []
        for seed in range(15):
            out = estimate_amplitude_distributed(
                net, sub, p_max=0.1, epsilon=0.01, delta=0.05,
                rng=np.random.default_rng(seed),
            )
            errors.append(abs(out.p_estimate - 0.04))
        assert sorted(errors)[7] <= 0.01  # median within ε

    def test_p_max_validation(self, net, rng):
        sub = DistributedSubroutine(rounds=4, success_probability=0.5)
        with pytest.raises(ValueError):
            estimate_amplitude_distributed(
                net, sub, p_max=0.1, epsilon=0.01, delta=0.1, rng=rng
            )

    def test_bound_scales_with_sqrt_pmax(self, net):
        sub = DistributedSubroutine(rounds=4, success_probability=0.01)
        small = amplitude_estimation_round_bound(net, sub, 0.01, 0.01, 0.1)
        large = amplitude_estimation_round_bound(net, sub, 0.25, 0.01, 0.1)
        assert large == pytest.approx(5 * small)
