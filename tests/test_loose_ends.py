"""Loose-end coverage: small behaviours not exercised elsewhere."""

from repro.analysis.report import ExperimentTable, _fmt
from repro.apps.amplitude_apps import DistributedSubroutine, amplify
from repro.apps.girth import compute_girth
from repro.congest import topologies
from repro.congest.algorithms.bfs import bfs_with_echo
from repro.congest.algorithms.leader import elect_leader
from repro.congest.algorithms.multibfs import multi_source_bfs
from repro.core.state_transfer import distribute_register


class TestReportFormatting:
    def test_large_float_scientific(self):
        assert _fmt(1234567.0) == "1.23e+06"

    def test_tiny_float_scientific(self):
        assert _fmt(0.00123) == "0.00123"

    def test_zero(self):
        assert _fmt(0.0) == "0"

    def test_trailing_zeros_trimmed(self):
        assert _fmt(2.500) == "2.5"

    def test_int_passthrough(self):
        assert _fmt(42) == "42"

    def test_bool_words(self):
        assert _fmt(True) == "yes"
        assert _fmt(False) == "no"

    def test_show_prints(self, capsys):
        table = ExperimentTable("EX", "demo", ["a"])
        table.add_row(1)
        table.show()
        assert "EX" in capsys.readouterr().out


class TestProtocolEdges:
    def test_leader_election_on_two_stars(self):
        net = topologies.two_stars(5, 5)
        result = elect_leader(net, seed=1)
        assert result.leader == net.n - 1

    def test_multibfs_empty_source_list(self, grid45):
        result = multi_source_bfs(grid45, [], seed=1)
        assert result.sources == []
        assert result.rounds == 0

    def test_state_transfer_single_bit(self, path8):
        tree = bfs_with_echo(path8, 0)
        result = distribute_register(path8, tree, 1, 1)
        assert result.chunks == 1
        assert result.rounds <= tree.eccentricity + 2

    def test_bfs_tree_children_of_leaf_empty(self, path8):
        tree = bfs_with_echo(path8, 0)
        assert tree.children()[path8.n - 1] == []


class TestAppEdges:
    def test_girth_max_k_below_girth_returns_none(self):
        net = topologies.known_girth(9, copies=1, tail=2)
        result = compute_girth(net, seed=1, max_k=6)
        assert result.girth is None

    def test_amplify_with_certain_subroutine(self, rng):
        net = topologies.grid(3, 3)
        sub = DistributedSubroutine(rounds=2, success_probability=1.0)
        out = amplify(net, sub, delta=0.1, rng=rng)
        assert out.succeeded
        assert out.iterations == 0  # already certain, no amplification

    def test_subroutine_zero_rounds_allowed(self):
        DistributedSubroutine(rounds=0, success_probability=0.5)

    def test_even_cycle_success_probability_override(self):
        from repro.apps.even_cycles import detect_even_cycle

        net = topologies.planted_cycle(40, 6, seed=1)
        always = detect_even_cycle(net, 6, seed=1, success_probability=1.0)
        assert always.found
        never = detect_even_cycle(net, 6, seed=1, success_probability=0.0)
        assert not never.found


class TestOracleProtocolCompliance:
    def test_congest_oracle_satisfies_protocol(self, grid45, rng):
        """CongestBatchOracle structurally satisfies BatchOracle."""
        from repro.core.framework import (
            DistributedInput,
            FrameworkConfig,
            run_framework,
        )
        from repro.core.semigroup import sum_semigroup
        from repro.queries.oracle import BatchOracle

        vectors = {v: [0, 1] for v in grid45.nodes()}
        di = DistributedInput(vectors, sum_semigroup(grid45.n))
        captured = {}

        def algorithm(oracle, _rng):
            captured["oracle"] = oracle
            return None

        run_framework(grid45, algorithm, config=FrameworkConfig(
            parallelism=1, dist_input=di, seed=1, leader=0,
        ))
        assert isinstance(captured["oracle"], BatchOracle)

    def test_string_oracle_satisfies_protocol(self):
        from repro.queries.ledger import QueryLedger
        from repro.queries.oracle import BatchOracle, StringOracle

        oracle = StringOracle([1, 2], QueryLedger(1))
        assert isinstance(oracle, BatchOracle)
