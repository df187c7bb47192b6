"""Tests for semigroups and the cost model / round ledger."""

import pytest

from repro.congest import topologies
from repro.core.cost import CostModel, RoundLedger
from repro.core.semigroup import (
    and_semigroup,
    max_semigroup,
    min_semigroup,
    or_semigroup,
    sum_semigroup,
    xor_semigroup,
)


class TestSemigroups:
    @pytest.mark.parametrize("sg,values,expected", [
        (sum_semigroup(100), [3, 4, 5], 12),
        (xor_semigroup(4), [0b1010, 0b0110], 0b1100),
        (max_semigroup(50), [7, 40, 2], 40),
        (min_semigroup(50), [7, 40, 2], 2),
        (and_semigroup(), [1, 1, 0], 0),
        (or_semigroup(), [0, 0, 1], 1),
    ])
    def test_fold(self, sg, values, expected):
        assert sg.fold(values) == expected

    def test_fold_empty_uses_identity(self):
        assert sum_semigroup(10).fold([]) == 0
        assert min_semigroup(10).fold([]) == 10

    def test_bits_of_sum(self):
        assert sum_semigroup(255).bits == 8
        assert sum_semigroup(256).bits == 9

    def test_bits_of_xor(self):
        assert xor_semigroup(12).bits == 12

    @pytest.mark.parametrize("sg", [
        sum_semigroup(1000), xor_semigroup(8), max_semigroup(99),
        min_semigroup(99), and_semigroup(), or_semigroup(),
    ])
    def test_identity_is_neutral(self, sg):
        for v in [0, 1, min(5, (sg.domain_size or 2) - 1)]:
            assert sg.combine(sg.identity, v) == v
            assert sg.combine(v, sg.identity) == v

    @pytest.mark.parametrize("sg", [
        sum_semigroup(1000), xor_semigroup(8), max_semigroup(99), min_semigroup(99),
    ])
    def test_commutative_and_associative_samples(self, sg):
        samples = [0, 1, 5, 17]
        for a in samples:
            for b in samples:
                assert sg.combine(a, b) == sg.combine(b, a)
                for c in samples:
                    assert sg.combine(sg.combine(a, b), c) == sg.combine(
                        a, sg.combine(b, c)
                    )


class TestCostModel:
    @pytest.fixture
    def cm(self):
        return CostModel(n=1024, diameter=10, word_bits=10)

    def test_words(self, cm):
        assert cm.words(10) == 1
        assert cm.words(11) == 2
        assert cm.words(1) == 1

    def test_index_words(self, cm):
        assert cm.index_words(1024) == 1
        assert cm.index_words(2**20) == 2

    def test_state_distribution_pipelined(self, cm):
        assert cm.state_distribution_rounds(100) == 10 + 10

    def test_state_distribution_naive(self, cm):
        assert cm.state_distribution_rounds(100, pipelined=False) == 100

    def test_batch_rounds_formula(self, cm):
        # (D + p)·⌈q/w⌉ + p·⌈log k/w⌉ + α
        assert cm.batch_rounds(p=10, q_bits=10, k=1024, alpha=5) == (
            (10 + 10) * 1 + 10 * 1 + 5
        )

    def test_framework_rounds(self, cm):
        batch = cm.batch_rounds(p=10, q_bits=10, k=1024)
        assert cm.framework_rounds(b=3, p=10, q_bits=10, k=1024) == 10 + 3 * batch

    def test_for_network(self):
        net = topologies.grid(4, 5)
        cm = CostModel.for_network(net)
        assert cm.n == 20
        assert cm.diameter == 7
        assert cm.word_bits == 5

    def test_clustering_rounds_scale(self, cm):
        assert cm.clustering_rounds(8) == 2 * cm.clustering_rounds(4)

    def test_triangle_rounds_sublinear(self):
        small = CostModel(100, 5, 7).quantum_triangle_rounds()
        large = CostModel(100000, 5, 17).quantum_triangle_rounds()
        assert large < 100000 ** 0.5  # far below √n


class TestRoundLedger:
    def test_total(self):
        ledger = RoundLedger()
        ledger.charge("a", 5)
        ledger.charge("b", 7)
        assert ledger.total == 12

    def test_by_phase_merges_same_label(self):
        ledger = RoundLedger()
        ledger.charge("x", 1)
        ledger.charge("x", 2)
        ledger.charge("y", 3)
        assert ledger.by_phase() == {"x": 3, "y": 3}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("bad", -1)
