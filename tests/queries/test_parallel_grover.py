"""Tests for Lemma 2: parallel Grover search (find-one and find-all)."""

import math

import numpy as np
import pytest

from repro.queries.grover import (
    expected_batches_all,
    find_all,
    find_one,
    find_one_split,
    marked_subset_fraction,
)
from repro.queries.ledger import QueryLedger
from repro.queries.oracle import StringOracle


def make_oracle(k, marked, p):
    values = [1 if i in marked else 0 for i in range(k)]
    return StringOracle(values, QueryLedger(p))


IS_ONE = lambda v: v == 1


class TestMarkedSubsetFraction:
    def test_zero_when_no_marked(self):
        assert marked_subset_fraction(100, 0, 10) == 0.0

    def test_one_when_subset_must_hit(self):
        assert marked_subset_fraction(10, 8, 5) == 1.0

    def test_single_item_single_query(self):
        assert marked_subset_fraction(100, 1, 1) == pytest.approx(0.01)

    def test_monotone_in_p(self):
        values = [marked_subset_fraction(1000, 3, p) for p in [1, 10, 100]]
        assert values[0] < values[1] < values[2]

    def test_lower_bound_tp_over_ek(self):
        """f ≥ (1 − e⁻¹)·min(1, tp/k), the bound behind Lemma 2's analysis."""
        for k, t, p in [(1000, 2, 25), (500, 5, 10), (200, 1, 50)]:
            f = marked_subset_fraction(k, t, p)
            assert f >= (1 - math.exp(-1)) * min(1.0, t * p / k) - 1e-9


class TestFindOne:
    def test_finds_marked_reliably(self):
        hits = 0
        for seed in range(30):
            oracle = make_oracle(512, {100, 200}, 16)
            out = find_one(oracle, IS_ONE, np.random.default_rng(seed))
            hits += out.found and out.index in {100, 200}
        assert hits >= 24  # well above the 2/3 guarantee

    def test_reports_none_when_empty(self, rng):
        oracle = make_oracle(256, set(), 16)
        out = find_one(oracle, IS_ONE, rng)
        assert not out.found

    def test_none_case_batch_cutoff(self, rng):
        oracle = make_oracle(1024, set(), 16)
        out = find_one(oracle, IS_ONE, rng)
        assert out.batches_used <= 9 * math.sqrt(1024 / 16) + 8

    def test_found_value_returned(self, rng):
        oracle = make_oracle(128, {7}, 8)
        out = find_one(oracle, IS_ONE, rng)
        if out.found:
            assert out.value == 1

    def test_full_coverage_when_p_ge_k(self, rng):
        oracle = make_oracle(16, {3}, 32)
        out = find_one(oracle, IS_ONE, rng)
        assert out.found and out.index == 3
        assert out.batches_used == 1

    def test_batches_scale_with_sqrt_k_over_tp(self):
        """Averaged batch usage tracks √(k/(tp)) within constants."""
        def avg_batches(k, t, p, trials=25):
            total = 0
            for seed in range(trials):
                marked = set(range(t))
                oracle = make_oracle(k, marked, p)
                out = find_one(oracle, IS_ONE, np.random.default_rng(seed))
                total += out.batches_used
            return total / trials

        base = avg_batches(1024, 1, 4)
        more_parallel = avg_batches(1024, 1, 64)
        assert more_parallel < base / 1.8  # ideal ratio 4

    def test_ledger_respects_parallelism(self, rng):
        oracle = make_oracle(256, {1}, 8)
        find_one(oracle, IS_ONE, rng)
        assert all(r.size <= 8 for r in oracle.ledger.records)


class TestFindAll:
    def test_finds_every_marked(self):
        successes = 0
        for seed in range(10):
            marked = {3, 77, 150, 280}
            oracle = make_oracle(512, marked, 32)
            found, _ = find_all(
                oracle, IS_ONE, np.random.default_rng(seed), unmarked_value=0
            )
            successes += {f.index for f in found} == marked
        assert successes >= 7

    def test_empty_input(self, rng):
        oracle = make_oracle(128, set(), 16)
        found, batches = find_all(oracle, IS_ONE, rng, unmarked_value=0)
        assert found == []

    def test_rejects_marked_unmarked_value(self, rng):
        oracle = make_oracle(16, {0}, 4)
        with pytest.raises(ValueError):
            find_all(oracle, IS_ONE, rng, unmarked_value=1)

    def test_no_duplicates_in_found(self, rng):
        oracle = make_oracle(256, {10, 20, 30}, 16)
        found, _ = find_all(oracle, IS_ONE, rng, unmarked_value=0)
        indices = [f.index for f in found]
        assert len(indices) == len(set(indices))

    def test_batches_scale_with_bound(self):
        """Total batches within a constant of √(kt/p) + t."""
        k, t, p = 1024, 4, 32
        total = 0
        trials = 10
        for seed in range(trials):
            oracle = make_oracle(k, set(range(0, 4 * t, 4)), p)
            _, batches = find_all(
                oracle, IS_ONE, np.random.default_rng(seed), unmarked_value=0
            )
            total += batches
        avg = total / trials
        assert avg <= 40 * expected_batches_all(k, t, p)


class TestSplitBaseline:
    def test_split_finds_marked(self):
        hits = 0
        for seed in range(20):
            oracle = make_oracle(512, {70}, 8)
            out = find_one_split(oracle, IS_ONE, np.random.default_rng(seed))
            hits += out.found and out.index == 70
        assert hits >= 14

    def test_split_costs_more_than_subset_strategy(self):
        """The paper's approach beats Zalka/GR04 splitting (the log p)."""
        k, p = 2048, 32

        def avg(fn, trials=15):
            total = 0
            for seed in range(trials):
                oracle = make_oracle(k, {5}, p)
                out = fn(oracle, IS_ONE, np.random.default_rng(seed))
                total += out.batches_used
            return total / trials

        assert avg(find_one) < avg(find_one_split)
