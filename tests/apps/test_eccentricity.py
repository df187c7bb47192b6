"""Tests for Lemmas 20–22: diameter, radius, average eccentricity."""

import pytest

from repro.apps.eccentricity import (
    compute_diameter,
    compute_radius,
    estimate_average_eccentricity,
    quantum_avg_ecc_bound,
    quantum_diameter_bound,
)
from repro.baselines.diameter import (
    classical_all_eccentricities,
    classical_diameter_bound,
)
from repro.congest import topologies


class TestDiameterRadius:
    def test_diameter_reliably_correct(self):
        net = topologies.grid(4, 4)
        hits = 0
        for seed in range(12):
            result = compute_diameter(net, seed=seed)
            hits += result.value == net.diameter
        assert hits >= 9

    def test_radius_reliably_correct(self):
        net = topologies.lollipop(5, 6)
        hits = 0
        for seed in range(12):
            result = compute_radius(net, seed=seed)
            hits += result.value == net.radius
        assert hits >= 9

    @pytest.mark.parametrize("maker", [
        lambda: topologies.path(12),
        lambda: topologies.cycle(14),
        lambda: topologies.star(15),
        lambda: topologies.petersen(),
    ])
    def test_value_is_some_true_eccentricity(self, maker):
        """Soundness: the reported value is always a real eccentricity."""
        net = maker()
        result = compute_diameter(net, seed=0)
        assert result.value in set(net.eccentricities.values())

    def test_witness_attains_value(self, grid45):
        result = compute_diameter(grid45, seed=1)
        if result.witness is not None:
            assert grid45.eccentricities[result.witness] == result.value

    def test_engine_mode_measures_alpha(self):
        net = topologies.grid(3, 3)
        result = compute_diameter(net, mode="engine", seed=2)
        assert result.value == net.diameter or result.value in set(
            net.eccentricities.values()
        )
        assert result.rounds > 0


class TestRoundScaling:
    def test_sublinear_at_fixed_diameter(self):
        """√(nD): at fixed D, 4× nodes should cost ≲ 3× rounds."""

        def rounds_at(n_extra):
            net = topologies.diameter_controlled(n_extra, 8, seed=1)
            total = 0
            for seed in range(3):
                total += compute_diameter(net, seed=seed).rounds
            return total / 3

        small = rounds_at(64)
        large = rounds_at(256)
        assert large / small < 3.2  # ideal 2 = √4

    def test_beats_classical_on_low_diameter_large_n(self):
        """The √(nD)-vs-n crossover: constants put it near n ≈ 1300 at D = 6."""
        net = topologies.diameter_controlled(1600, 6, seed=2)
        quantum = compute_diameter(net, seed=3)
        classical = classical_all_eccentricities(net)
        assert quantum.rounds < classical.rounds

    def test_classical_engine_baseline_correct(self):
        net = topologies.grid(3, 4)
        result = classical_all_eccentricities(net, mode="engine", seed=4)
        assert result.eccentricities == dict(net.eccentricities)
        assert result.diameter == net.diameter
        assert result.radius == net.radius

    def test_classical_engine_rounds_linear(self):
        net = topologies.grid(4, 4)
        result = classical_all_eccentricities(net, mode="engine", seed=5)
        assert result.rounds <= 6 * (net.n + net.diameter)

    def test_bound_formulas(self):
        assert quantum_diameter_bound(10000, 10) < classical_diameter_bound(10000, 10)


class TestAverageEccentricity:
    def test_estimate_within_epsilon_reliably(self):
        net = topologies.grid(4, 4)
        truth = net.average_eccentricity
        hits = 0
        for seed in range(12):
            result = estimate_average_eccentricity(net, epsilon=0.75, seed=seed)
            hits += abs(result.estimate - truth) <= 0.75
        assert hits >= 8

    def test_rejects_bad_epsilon(self, grid45):
        with pytest.raises(ValueError):
            estimate_average_eccentricity(grid45, epsilon=0.0)

    def test_rounds_grow_as_epsilon_shrinks(self):
        net = topologies.grid(4, 4)
        loose = estimate_average_eccentricity(net, epsilon=2.0, seed=1).rounds
        tight = estimate_average_eccentricity(net, epsilon=0.2, seed=1).rounds
        assert tight > loose

    def test_cheaper_than_exact_diameter_for_loose_epsilon(self):
        """Õ(D^{3/2}/ε) ≪ √(nD) when D is small and n large."""
        net = topologies.diameter_controlled(300, 4, seed=6)
        avg = estimate_average_eccentricity(net, epsilon=1.0, seed=7)
        diam = compute_diameter(net, seed=7)
        assert avg.rounds < diam.rounds

    def test_bound_formula_scales(self):
        assert quantum_avg_ecc_bound(16, 0.1) > quantum_avg_ecc_bound(16, 1.0)
        assert quantum_avg_ecc_bound(64, 0.5) > quantum_avg_ecc_bound(4, 0.5)
