"""Tests for Lemma 6: parallel mean estimation."""

import numpy as np
import pytest

from repro.queries.ledger import QueryLedger
from repro.queries.mean_estimation import batch_count, estimate_mean
from repro.queries.oracle import StringOracle


class TestBatchCount:
    def test_formula_positive(self):
        assert batch_count(1.0, 1, 0.1) >= 1

    def test_one_when_trivial(self):
        assert batch_count(0.01, 100, 0.5) == 1

    def test_decreases_with_p(self):
        assert batch_count(5.0, 100, 0.01) < batch_count(5.0, 1, 0.01)

    def test_sqrt_p_scaling(self):
        b1 = batch_count(10.0, 1, 0.001)
        b100 = batch_count(10.0, 100, 0.001)
        assert 6 <= b1 / b100 <= 40  # ideal 10, inflated by the log^{3/2} factor

    def test_inverse_epsilon_scaling(self):
        b_loose = batch_count(10.0, 4, 0.1)
        b_tight = batch_count(10.0, 4, 0.01)
        assert 8 <= b_tight / b_loose <= 60  # ideal 10 times polylog growth

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            batch_count(1.0, 1, 0.0)


class TestEstimateMean:
    def test_estimate_within_epsilon_reliably(self):
        hits = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            values = list(rng.uniform(0, 10, size=2000))
            mu = sum(values) / len(values)
            oracle = StringOracle(values, QueryLedger(32))
            est = estimate_mean(oracle, sigma=3.0, epsilon=0.2, rng=rng)
            hits += abs(est.estimate - mu) <= 0.2
        # The lemma guarantees ≥ 2/3; allow binomial noise on 40 trials.
        assert hits >= 22

    def test_batches_match_formula(self, rng):
        values = list(rng.uniform(0, 1, size=500))
        oracle = StringOracle(values, QueryLedger(16))
        est = estimate_mean(oracle, sigma=0.3, epsilon=0.01, rng=rng)
        assert est.batches_used == batch_count(0.3, 16, 0.01)

    def test_constant_input_exact(self, rng):
        values = [5.0] * 200
        oracle = StringOracle(values, QueryLedger(16))
        est = estimate_mean(oracle, sigma=1.0, epsilon=0.5, rng=rng)
        # σ-classical fallback kicks in or quantum path stays within ε.
        assert abs(est.estimate - 5.0) <= 0.5

    def test_classical_fallback_regime(self, rng):
        """Huge p and loose ε: the metered samples alone suffice."""
        values = list(rng.normal(2.0, 0.1, size=1000))
        oracle = StringOracle(values, QueryLedger(500))
        est = estimate_mean(oracle, sigma=0.1, epsilon=0.5, rng=rng)
        mu = sum(values) / len(values)
        assert abs(est.estimate - mu) <= 0.05

    def test_samples_counted(self, rng):
        values = list(rng.uniform(0, 1, size=300))
        oracle = StringOracle(values, QueryLedger(8))
        est = estimate_mean(oracle, sigma=0.3, epsilon=0.05, rng=rng)
        assert est.samples_queried == est.batches_used * 8
