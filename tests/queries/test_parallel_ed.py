"""Tests for Lemma 5: parallel element distinctness via the rebalanced walk."""

import numpy as np

from repro.queries.element_distinctness import (
    expected_batches,
    find_collision,
    walk_parameters,
)
from repro.queries.ledger import QueryLedger
from repro.queries.oracle import StringOracle


def planted_oracle(k, p, rng, collisions=1):
    values = list(rng.choice(10**9, size=k, replace=False))
    for c in range(collisions):
        i, j = rng.choice(k, size=2, replace=False)
        values[j] = values[i]
    return StringOracle(values, QueryLedger(p)), values


class TestWalkParameters:
    def test_balance_point(self):
        z, setup, steps = walk_parameters(1000, 10)
        assert abs(z - 1000 ** (2 / 3) * 10 ** (1 / 3)) <= z  # sane magnitude
        assert z > 10  # z > p required by the walk
        assert z <= 500  # z ≤ k/2 required for the spectral gap

    def test_setup_batches(self):
        z, setup, _ = walk_parameters(1000, 10)
        assert setup == -(-z // 10)

    def test_total_near_bound(self):
        for k, p in [(512, 4), (2048, 16), (8192, 32)]:
            z, setup, steps = walk_parameters(k, p)
            bound = expected_batches(k, p)
            assert setup + steps <= 8 * bound + 8

    def test_constraints_hold(self):
        """p < z and z ≤ k/2 across the parameter space (Lemma 5 proof)."""
        for k in [64, 500, 4096]:
            for p in [1, 2, k // 16 or 1]:
                if p >= k // 8:
                    continue
                z, _, _ = walk_parameters(k, p)
                assert p < z <= k // 2


class TestFindCollision:
    def test_finds_planted_collision_reliably(self):
        hits = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            oracle, values = planted_oracle(500, 8, rng)
            out = find_collision(oracle, rng)
            ok = (
                out.found
                and out.pair[0] != out.pair[1]
                and values[out.pair[0]] == values[out.pair[1]]
            )
            hits += ok
        assert hits >= 17  # the 2/3 guarantee with margin

    def test_pair_is_real_when_reported(self):
        """One-sided error: any reported pair must be a true collision."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            oracle, values = planted_oracle(300, 6, rng)
            out = find_collision(oracle, rng)
            if out.found:
                i, j = out.pair
                assert values[i] == values[j] and i != j

    def test_distinct_input_reports_none(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values = list(range(400))
            oracle = StringOracle(values, QueryLedger(8))
            out = find_collision(oracle, rng)
            assert not out.found

    def test_full_read_when_p_ge_k(self, rng):
        values = [1, 2, 3, 2]
        oracle = StringOracle(values, QueryLedger(8))
        out = find_collision(oracle, rng)
        assert out.found and out.pair == (1, 3)
        assert out.batches_used == 1

    def test_large_p_regime(self, rng):
        """p ≥ k/2: two batches read everything, zero error."""
        values = list(range(64))
        values[50] = values[10]
        oracle = StringOracle(values, QueryLedger(32))
        out = find_collision(oracle, rng)
        assert out.pair == (10, 50)
        assert oracle.ledger.batches == 2

    def test_mid_p_regime_uses_clamped_walk(self, rng):
        """k/8 ≤ p < k/2 flows through the walk with z = p+1 and stays
        within a constant batch budget while meeting the 2/3 guarantee."""
        hits = 0
        for seed in range(20):
            loc = np.random.default_rng(seed)
            values = list(loc.choice(10**6, size=64, replace=False))
            values[50] = values[10]
            oracle = StringOracle(values, QueryLedger(12))
            out = find_collision(oracle, loc)
            hits += out.found
            assert out.batches_used <= 25
        assert hits >= 14

    def test_verify_step_stays_within_parallelism_one(self):
        """Regression: when the walk misses, the emulated pair is re-checked
        in batches of at most p, not as one batch of two."""
        oracle = StringOracle([0, 0, 2, 3, 4], QueryLedger(1))
        out = find_collision(oracle, np.random.default_rng(145135))
        assert out.pair == (0, 1) and out.value == 0
        assert not out.found_classically
        assert oracle.ledger.signature()[-2:] == ((1, "ed-verify"),) * 2
        assert all(r.size == 1 for r in oracle.ledger.records)

    def test_batch_usage_tracks_bound(self):
        totals = {}
        for k, p in [(512, 8), (4096, 8)]:
            total = 0
            for seed in range(8):
                rng = np.random.default_rng(seed)
                oracle, _ = planted_oracle(k, p, rng)
                out = find_collision(oracle, rng)
                total += out.batches_used
            totals[k] = total / 8
        ratio = totals[4096] / totals[512]
        # bound ratio: (4096/512)^{2/3} = 4; allow generous slack.
        assert 2.0 < ratio < 8.0

    def test_many_collisions_found_faster(self):
        def avg(collisions):
            total = 0
            for seed in range(8):
                rng = np.random.default_rng(seed)
                oracle, _ = planted_oracle(1000, 8, rng, collisions=collisions)
                out = find_collision(oracle, rng)
                total += out.batches_used
            return total / 8

        assert avg(60) <= avg(1) + 1  # more collisions never slower on avg
