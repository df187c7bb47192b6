"""Tests for the Theorem 8 / Corollary 9 framework runner."""

import tracemalloc

import pytest

from repro.core.cost import CostModel
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    ValueComputer,
    run_framework,
)
from repro.core.semigroup import max_semigroup, sum_semigroup, xor_semigroup
from repro.queries import minimum as parallel_minimum
from repro.serve.session import build_profile


def sum_input(net, k, rng):
    vectors = {
        v: [int(rng.integers(0, 2)) for _ in range(k)] for v in net.nodes()
    }
    return DistributedInput(vectors, sum_semigroup(net.n))


class TestDistributedInput:
    def test_aggregated_sums(self, grid45, rng):
        di = sum_input(grid45, 6, rng)
        agg = di.aggregated()
        for j in range(6):
            assert agg[j] == sum(di.vectors[v][j] for v in grid45.nodes())

    def test_rejects_unequal_lengths(self, grid45):
        vectors = {v: [0] for v in grid45.nodes()}
        vectors[0] = [0, 1]
        with pytest.raises(ValueError):
            DistributedInput(vectors, sum_semigroup(10))

    def test_rejects_empty_vectors(self, grid45):
        vectors = {v: [] for v in grid45.nodes()}
        with pytest.raises(ValueError):
            DistributedInput(vectors, sum_semigroup(10))

    def test_xor_aggregation(self, path8):
        vectors = {v: [v & 1, 1] for v in path8.nodes()}
        di = DistributedInput(vectors, xor_semigroup(1))
        assert di.aggregated() == [0, 0]

    def test_fold_holds_no_n_by_k_matrix(self):
        """The fold's peak heap stays far below one n × k int64 matrix.

        At k = 2**15 on the 16-node serving profile that matrix is 4 MiB;
        the row-at-a-time fold holds an accumulator, one row and the
        result list.  numpy reports its buffers to tracemalloc.
        """
        _, cfg = build_profile(k=2**15)
        di = cfg.dist_input
        tracemalloc.start()
        try:
            truth = di.aggregated()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(truth) == 2**15
        assert peak < 1.5 * 2**20, f"fold peaked at {peak / 2**20:.2f} MiB"


class TestOracleSemantics:
    def test_values_are_aggregates(self, grid45, rng):
        di = sum_input(grid45, 10, rng)
        agg = di.aggregated()

        def algorithm(oracle, _rng):
            return oracle.query_batch([0, 3, 7])

        run = run_framework(grid45, algorithm, config=FrameworkConfig(
            parallelism=4, dist_input=di, seed=1,
        ))
        assert run.result == [agg[0], agg[3], agg[7]]

    def test_out_of_range_query_rejected(self, grid45, rng):
        di = sum_input(grid45, 4, rng)

        def algorithm(oracle, _rng):
            return oracle.query_batch([4])

        with pytest.raises(IndexError):
            run_framework(grid45, algorithm, config=FrameworkConfig(
                parallelism=2, dist_input=di, seed=1,
            ))

    def test_parallelism_enforced(self, grid45, rng):
        di = sum_input(grid45, 10, rng)

        def algorithm(oracle, _rng):
            return oracle.query_batch(list(range(5)))

        from repro.queries.ledger import ParallelismViolation

        with pytest.raises(ParallelismViolation):
            run_framework(grid45, algorithm, config=FrameworkConfig(
                parallelism=3, dist_input=di, seed=1,
            ))

    def test_needs_input_or_computer(self, grid45):
        def algorithm(oracle, _rng):
            return None

        with pytest.raises(ValueError):
            run_framework(grid45, algorithm, config=FrameworkConfig(
                parallelism=2, seed=1,
            ))


class TestRoundCharging:
    def test_setup_phase_charged(self, grid45, rng):
        di = sum_input(grid45, 8, rng)
        run = run_framework(
            grid45, lambda o, r: o.query_batch([0]),
            config=FrameworkConfig(parallelism=2, dist_input=di, seed=1),
        )
        phases = run.rounds.by_phase()
        assert "setup:leader-election" in phases
        assert "setup:bfs-tree" in phases

    def test_designated_leader_skips_election(self, grid45, rng):
        di = sum_input(grid45, 8, rng)
        run = run_framework(
            grid45, lambda o, r: o.query_batch([0]),
            config=FrameworkConfig(
                parallelism=2, dist_input=di, seed=1, leader=0,
            ),
        )
        assert "setup:leader-election" not in run.rounds.by_phase()
        assert run.leader == 0

    def test_formula_charge_matches_cost_model(self, grid45, rng):
        di = sum_input(grid45, 16, rng)
        cm = CostModel.for_network(grid45)
        p = 4

        def algorithm(oracle, _rng):
            oracle.query_batch([0, 1, 2, 3], label="t")
            return None

        run = run_framework(grid45, algorithm, config=FrameworkConfig(
            parallelism=p, dist_input=di, seed=1,
        ))
        expected = cm.batch_rounds(p, di.semigroup.bits, di.k)
        assert run.rounds.by_phase()["batch:t"] == expected

    def test_rounds_scale_with_batches(self, grid45, rng):
        di = sum_input(grid45, 16, rng)

        def algo_n(n):
            def algorithm(oracle, _rng):
                for _ in range(n):
                    oracle.query_batch([0, 1])
                return None
            return algorithm

        cfg = FrameworkConfig(parallelism=2, dist_input=di, seed=1)
        one = run_framework(grid45, algo_n(1), config=cfg)
        five = run_framework(grid45, algo_n(5), config=cfg)
        setup = one.total_rounds - one.rounds.by_phase().get("batch:query", 0)
        per_batch = one.rounds.by_phase()["batch:query"]
        assert five.total_rounds == setup + 5 * per_batch


class TestEngineMode:
    def test_engine_values_match_formula_values(self, grid45, rng):
        di = sum_input(grid45, 12, rng)

        def algorithm(oracle, _rng):
            return oracle.query_batch([1, 5, 9])

        cfg = FrameworkConfig(parallelism=3, dist_input=di, seed=2)
        f = run_framework(grid45, algorithm, config=cfg)
        e = run_framework(grid45, algorithm,
                          config=cfg.replace(mode="engine"))
        assert f.result == e.result

    def test_engine_rounds_within_constant_of_formula(self, grid45, rng):
        di = sum_input(grid45, 12, rng)

        def algorithm(oracle, _rng):
            oracle.query_batch(list(range(6)))
            oracle.query_batch(list(range(6, 12)))
            return None

        cfg = FrameworkConfig(parallelism=6, dist_input=di, seed=2)
        f = run_framework(grid45, algorithm, config=cfg)
        e = run_framework(grid45, algorithm,
                          config=cfg.replace(mode="engine"))
        assert e.total_rounds <= 4 * f.total_rounds
        assert f.total_rounds <= 4 * e.total_rounds

    def test_engine_phase_breakdown(self, grid45, rng):
        di = sum_input(grid45, 8, rng)
        run = run_framework(
            grid45, lambda o, r: o.query_batch([0, 1]),
            config=FrameworkConfig(
                parallelism=2, dist_input=di, mode="engine", seed=2,
            ),
        )
        phases = run.rounds.by_phase()
        for phase in ("index-distribute", "value-upcast",
                      "value-uncompute", "index-uncompute"):
            assert phases[phase] > 0

    def test_invalid_mode_rejected(self, grid45, rng):
        di = sum_input(grid45, 4, rng)
        with pytest.raises(ValueError):
            run_framework(grid45, lambda o, r: None, config=FrameworkConfig(
                parallelism=1, dist_input=di, mode="quantum", seed=1,
            ))


class FixedComputer(ValueComputer):
    """Test computer: x_j = j², contributed by node j mod n."""

    def __init__(self, net, k, alpha_value=7):
        self.net = net
        self.k = k
        self.alpha_value = alpha_value
        self.calls = 0

    def compute(self, indices):
        self.calls += 1
        return {j: {j % self.net.n: j * j} for j in indices}, self.alpha_value

    def alpha(self, p):
        return self.alpha_value


class TestOnTheFly:
    def test_computed_values_served(self, grid45):
        computer = FixedComputer(grid45, 30)

        def algorithm(oracle, _rng):
            return oracle.query_batch([2, 5])

        run = run_framework(
            grid45, algorithm, config=FrameworkConfig(
                parallelism=2, computer=computer, k=30, seed=1,
                semigroup=max_semigroup(1000),
            ),
        )
        assert run.result == [4, 25]

    def test_alpha_charged_every_batch(self, grid45):
        computer = FixedComputer(grid45, 30, alpha_value=11)
        cm = CostModel.for_network(grid45)

        def algorithm(oracle, _rng):
            oracle.query_batch([1], label="q")
            oracle.query_batch([1], label="q")  # cached value, α still due
            return None

        run = run_framework(
            grid45, algorithm, config=FrameworkConfig(
                parallelism=1, computer=computer, k=30, seed=1,
                semigroup=max_semigroup(1000),
            ),
        )
        per_batch = cm.batch_rounds(1, max_semigroup(1000).bits, 30, alpha=11)
        assert run.rounds.by_phase()["batch:q"] == 2 * per_batch
        assert computer.calls == 1  # value itself computed once

    def test_peek_all_computes_everything(self, grid45):
        computer = FixedComputer(grid45, 10)

        def algorithm(oracle, _rng):
            return list(oracle.peek_all())

        run = run_framework(
            grid45, algorithm, config=FrameworkConfig(
                parallelism=1, computer=computer, k=10, seed=1,
                semigroup=max_semigroup(1000),
            ),
        )
        assert run.result == [j * j for j in range(10)]

    def test_minimum_over_computed_values(self, grid45):
        computer = FixedComputer(grid45, 40)

        def algorithm(oracle, rng):
            return parallel_minimum.find_minimum(oracle, rng)

        run = run_framework(
            grid45, algorithm, config=FrameworkConfig(
                parallelism=5, computer=computer, k=40, seed=3,
                semigroup=max_semigroup(10**4),
            ),
        )
        assert run.result.value == 0
