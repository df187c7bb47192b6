"""Accuracy-vs-resources sweeps for the exact estimation primitives.

Phase estimation's error halves per extra ancilla and amplitude
estimation inherits it — the quantitative backbone of Lemmas 29/30.
"""

import math

import numpy as np

from repro.quantum.amplitude import estimate_amplitude, good_probability
from repro.quantum.circuits import qft_matrix
from repro.quantum.phase_estimation import estimate_phase


def median_error(fn, trials=15):
    errors = sorted(fn(seed) for seed in range(trials))
    return errors[len(errors) // 2]


class TestPhaseEstimationSweep:
    def test_error_halves_per_ancilla(self):
        theta = 0.2371
        u = np.diag([np.exp(2j * np.pi * theta), 1.0])

        def err_at(t):
            def one(seed):
                est = estimate_phase(
                    u, np.array([1, 0]), t, np.random.default_rng(seed)
                )
                return min(abs(est.theta - theta), 1 - abs(est.theta - theta))

            return median_error(one)

        errors = {t: err_at(t) for t in [3, 5, 7]}
        assert errors[5] <= errors[3]
        assert errors[7] <= errors[5]
        assert errors[7] <= 2 ** -6  # within two bins at t = 7

    def test_cost_doubles_per_ancilla(self, rng):
        u = np.diag([1.0, -1.0]).astype(complex)
        costs = {
            t: estimate_phase(u, np.array([1, 0]), t, rng).unitary_applications
            for t in [3, 4, 5]
        }
        assert costs[4] == 2 * costs[3] + 1
        assert costs[5] == 2 * costs[4] + 1


class TestAmplitudeEstimationSweep:
    def test_error_shrinks_with_ancillas(self):
        a = qft_matrix(3)
        good = {1, 4, 6}
        p = good_probability(a, good)

        def err_at(t):
            def one(seed):
                est = estimate_amplitude(a, good, t, np.random.default_rng(seed))
                return abs(est.p_estimate - p)

            return median_error(one)

        coarse, fine = err_at(4), err_at(8)
        assert fine <= coarse
        assert fine <= 0.02

    def test_bhmt_error_bound(self):
        """|p̂ − p| ≤ 2π√(p(1−p))/2^t + π²/4^t for the median estimate."""
        a = qft_matrix(3)
        good = {2}
        p = good_probability(a, good)
        t = 7
        bound = 2 * math.pi * math.sqrt(p * (1 - p)) / 2**t + math.pi**2 / 4**t
        errors = sorted(
            abs(
                estimate_amplitude(a, good, t, np.random.default_rng(seed)).p_estimate
                - p
            )
            for seed in range(25)
        )
        assert errors[12] <= 2 * bound  # median comfortably within
