"""Focused tests for Corollary 9's on-the-fly value computation."""

from repro.apps.eccentricity import EccentricityComputer
from repro.congest import topologies
from repro.core.framework import FrameworkConfig, run_framework
from repro.core.semigroup import max_semigroup


class TestEccentricityComputer:
    def test_formula_mode_values_exact(self, grid45):
        computer = EccentricityComputer(grid45, mode="formula")
        values, rounds = computer.compute([0, 5, 12])
        for j in (0, 5, 12):
            assert values[j] == {j: grid45.eccentricities[j]}
        assert rounds == 3 + 2 * grid45.diameter

    def test_engine_mode_values_exact(self):
        net = topologies.grid(3, 3)
        computer = EccentricityComputer(net, mode="engine", seed=1)
        values, rounds = computer.compute([0, 4, 8])
        for j in (0, 4, 8):
            assert values[j] == {j: net.eccentricities[j]}
        assert rounds > 0

    def test_engine_alpha_reflects_measurement(self):
        net = topologies.grid(3, 3)
        computer = EccentricityComputer(net, mode="engine", seed=2)
        computer.compute([0, 1])
        assert computer.alpha(2) == computer.measured_alpha[-1]

    def test_formula_alpha_is_lemma20_bound(self, grid45):
        computer = EccentricityComputer(grid45, mode="formula")
        assert computer.alpha(5) == 5 + 2 * grid45.diameter
        assert computer.alpha(1) < computer.alpha(10)


class TestOnTheFlyFrameworkIntegration:
    def test_alpha_appears_in_batch_charge(self):
        net = topologies.grid(3, 4)
        computer = EccentricityComputer(net, mode="formula")

        def algorithm(oracle, _rng):
            oracle.query_batch([0, 1], label="probe")
            return None

        with_alpha = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=2, computer=computer, k=net.n, seed=1, leader=0,
            semigroup=max_semigroup(2 * net.n),
        ))
        from repro.core.cost import CostModel

        cm = CostModel.for_network(net)
        charged = with_alpha.rounds.by_phase()["batch:probe"]
        base = cm.batch_rounds(2, max_semigroup(2 * net.n).bits, net.n)
        assert charged == base + computer.alpha(2)

    def test_values_served_through_semigroup_fold(self):
        """Sparse per-node contributions fold correctly under max."""
        net = topologies.grid(3, 3)
        computer = EccentricityComputer(net, mode="formula")

        def algorithm(oracle, _rng):
            return oracle.query_batch(list(range(net.n)))

        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=net.n, computer=computer, k=net.n, seed=1, leader=0,
            semigroup=max_semigroup(2 * net.n),
        ))
        assert run.result == [net.eccentricities[j] for j in range(net.n)]

    def test_engine_mode_end_to_end(self):
        net = topologies.grid(3, 3)
        computer = EccentricityComputer(net, mode="engine", seed=3)

        def algorithm(oracle, _rng):
            return oracle.query_batch([2, 6])

        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=2, computer=computer, k=net.n, mode="engine",
            seed=3, leader=0, semigroup=max_semigroup(2 * net.n),
        ))
        assert run.result == [net.eccentricities[2], net.eccentricities[6]]
