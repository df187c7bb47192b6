"""Tests for Lemma 3: parallel minimum/maximum finding."""

import math

import numpy as np

from repro.queries import minimum
from repro.queries.ledger import QueryLedger
from repro.queries.minimum import expected_batches, find_maximum, find_minimum
from repro.queries.oracle import StringOracle


def oracle_for(values, p):
    return StringOracle(list(values), QueryLedger(p))


class TestFindMinimum:
    def test_finds_true_minimum_reliably(self):
        hits = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            values = list(rng.integers(10, 10**6, size=512))
            values[int(rng.integers(0, 512))] = 3
            out = find_minimum(oracle_for(values, 16), rng)
            hits += out.value == 3
        assert hits >= 20

    def test_index_matches_value(self, rng):
        values = [50, 40, 30, 20, 10, 60, 70, 80] * 16
        out = find_minimum(oracle_for(values, 8), rng)
        assert values[out.index] == out.value

    def test_full_coverage_when_p_ge_k(self, rng):
        values = [9, 2, 7, 5]
        out = find_minimum(oracle_for(values, 8), rng)
        assert out.value == 2 and out.index == 1
        assert out.batches_used == 1

    def test_constant_input(self, rng):
        out = find_minimum(oracle_for([4] * 64, 8), rng)
        assert out.value == 4

    def test_batches_respect_budget(self, rng):
        k, p = 2048, 16
        out = find_minimum(oracle_for(list(range(k)), p), rng)
        assert out.batches_used <= 10 * expected_batches(k, p) + 16

    def test_multiplicity_shrinks_budget(self):
        """Lemma 3 second part: ℓ duplicate minima cut batches by √ℓ."""
        k, p, ell = 4096, 8, 64

        def avg_batches(multiplicity, plant):
            total = 0
            for seed in range(10):
                rng = np.random.default_rng(seed)
                values = list(rng.integers(100, 10**6, size=k))
                for i in rng.choice(k, size=plant, replace=False):
                    values[i] = 1
                out = find_minimum(
                    oracle_for(values, p), rng, multiplicity=multiplicity
                )
                assert out.value == 1
                total += out.batches_used
            return total / 10

        with_mult = avg_batches(ell, ell)
        without = avg_batches(1, 1)
        assert with_mult < without / 2  # ideal √64 = 8

    def test_batches_scale_with_parallelism(self):
        def avg(p):
            total = 0
            for seed in range(15):
                rng = np.random.default_rng(seed)
                values = list(rng.permutation(2048))
                out = find_minimum(oracle_for(values, p), rng)
                total += out.batches_used
            return total / 15

        assert avg(64) < avg(4) / 1.8


class TestFindMaximum:
    def test_finds_true_maximum(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = list(rng.integers(0, 1000, size=256))
            out = find_maximum(oracle_for(values, 16), rng)
            hits += out.value == max(values)
        assert hits >= 16

    def test_negative_values(self, rng):
        values = [-5, -1, -30, -2] * 32
        out = find_maximum(oracle_for(values, 8), rng)
        assert out.value == -1

    def test_threshold_updates_counted(self, rng):
        values = list(range(1024, 0, -1))
        out = find_minimum(oracle_for(values, 32), rng)
        assert out.threshold_updates >= 1


class TestKeyScan:
    """The marked set is one array comparison exactly when it is exact."""

    def test_numeric_keys_compare_as_an_array(self):
        for keys in ([3, 1.5, math.inf, np.int64(2)], [-(2**53) + 1, 2**53 - 1],
                     [True, 0], [-math.inf, math.nan]):
            assert minimum._Keys(keys).array is not None, keys

    def test_other_keys_scan_one_by_one(self):
        for keys in ([2**60, 1.0], [2**53, 0], [2**70], [(1, 2), (0, 3)],
                     ["a", "b"], [None, 1]):
            assert minimum._Keys(keys).array is None, keys

    def test_either_way_the_ascending_indices_below(self):
        exact = minimum._Keys([5, 1, 4, 1.5, math.inf])
        inexact = minimum._Keys([5, 1, 4, 1.5, 2**60])
        for keys in (exact, inexact):
            assert list(keys.below(4)) == [1, 3]
            assert list(keys.below(1)) == []
        # A threshold past 2**53 falls back to the scalar comparison.
        assert list(exact.below(2**60)) == [0, 1, 2, 3]
        assert list(exact.below(math.inf)) == [0, 1, 2, 3]
