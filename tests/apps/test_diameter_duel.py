"""Tests for the PR 8 diameter workload family (quantum vs classical)."""

import pytest

from repro.apps.diameter import (
    DiameterDuel,
    crossover_n,
    diameter_duel,
    sweep_diameter,
)
from repro.congest import topologies
from repro.congest.errors import CongestError


class TestDiameterDuel:
    def test_duel_is_exact_and_bounded(self):
        net = topologies.diameter_controlled(100, 6, seed=0)
        duel = diameter_duel(net, trials=2, seed=0)
        assert duel.n == 100
        assert duel.diameter == net.diameter
        assert duel.accuracy == 1.0
        assert duel.classical_rounds == duel.classical_bound
        assert duel.quantum_rounds > 0

    def test_rejects_non_congest_network(self):
        with pytest.raises(CongestError, match="CONGEST workload"):
            diameter_duel(topologies.clique(16))

    def test_rejects_zero_trials(self):
        net = topologies.cycle(12)
        with pytest.raises(CongestError, match="trials"):
            diameter_duel(net, trials=0)

    def test_sweep_slopes_separate(self):
        duels = sweep_diameter([100, 400], trials=2, seed=0)
        assert [d.n for d in duels] == [100, 400]
        # The quantum side grows strictly slower than the classical side
        # over a 4x size step (≈ x^0.5 vs ≈ x^1).
        q_ratio = duels[1].quantum_rounds / duels[0].quantum_rounds
        c_ratio = duels[1].classical_rounds / duels[0].classical_rounds
        assert q_ratio < c_ratio

    def test_crossover_semantics(self):
        def duel(n, wins):
            return DiameterDuel(
                n=n, diameter=6, quantum_rounds=1.0 if wins else 100.0,
                classical_rounds=10, quantum_bound=1.0,
                classical_bound=10.0, accuracy=1.0,
            )

        assert crossover_n([duel(10, False), duel(20, True)]) == 20
        assert crossover_n([duel(10, True), duel(20, False)]) is None
        assert crossover_n([]) is None

    def test_speedup_ratio(self):
        d = DiameterDuel(
            n=8, diameter=2, quantum_rounds=5.0, classical_rounds=20,
            quantum_bound=4.0, classical_bound=22.0, accuracy=1.0,
        )
        assert d.quantum_wins
