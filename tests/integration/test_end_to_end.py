"""Integration tests: full stacks, engine-vs-formula agreement, separations."""

import numpy as np
import pytest

from repro.apps.cycles import detect_cycle
from repro.apps.deutsch_jozsa import solve_distributed_dj
from repro.apps.eccentricity import compute_diameter, compute_radius
from repro.apps.element_distinctness import distinctness_distributed_vector
from repro.apps.girth import compute_girth, verify_girth
from repro.apps.meeting import schedule_meeting
from repro.baselines.cycles import detect_cycle_classical
from repro.baselines.streaming import classical_meeting
from repro.congest import topologies
from repro.core.cost import CostModel
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    run_framework,
)
from repro.core.semigroup import sum_semigroup


class TestEngineVsFormula:
    """The central fidelity claim: charged formulas track measured engines."""

    @pytest.mark.parametrize("maker", [
        lambda: topologies.path(10),
        lambda: topologies.grid(3, 4),
        lambda: topologies.star(12),
        lambda: topologies.petersen(),
    ])
    def test_batch_costs_agree_within_constants(self, maker, rng):
        net = maker()
        k = 16
        vectors = {
            v: [int(rng.integers(0, 2)) for _ in range(k)] for v in net.nodes()
        }
        di = DistributedInput(vectors, sum_semigroup(net.n))
        p = max(net.diameter, 2)

        def algorithm(oracle, _rng):
            for start in range(0, k, p):
                oracle.query_batch(list(range(start, min(start + p, k))))
            return None

        cfg = FrameworkConfig(parallelism=p, dist_input=di, seed=1)
        f = run_framework(net, algorithm, config=cfg)
        e = run_framework(net, algorithm, config=cfg.replace(mode="engine"))
        assert e.total_rounds <= 4 * f.total_rounds + 20
        assert f.total_rounds <= 4 * e.total_rounds + 20

    def test_full_app_agrees_across_modes(self, rng):
        net = topologies.grid(3, 3)
        cal = {
            v: [int(rng.random() < 0.5) for _ in range(10)] for v in net.nodes()
        }
        f = schedule_meeting(net, cal, mode="formula", seed=5)
        e = schedule_meeting(net, cal, mode="engine", seed=5)
        assert f.best_slot == e.best_slot
        assert f.batches == e.batches


class TestTheorem8Formula:
    def test_total_rounds_match_theorem_formula(self, rng):
        """D + b·((D+p)⌈q/logn⌉ + p⌈log k/log n⌉) exactly, in formula mode."""
        net = topologies.grid(4, 5)
        k, p, b = 64, 5, 3
        vectors = {
            v: [int(rng.integers(0, 2)) for _ in range(k)] for v in net.nodes()
        }
        di = DistributedInput(vectors, sum_semigroup(net.n))
        cm = CostModel.for_network(net)

        def algorithm(oracle, _rng):
            for i in range(b):
                oracle.query_batch(list(range(i * p, (i + 1) * p)), label="x")
            return None

        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=p, dist_input=di, seed=2, leader=0,
        ))
        batch_total = run.rounds.by_phase()["batch:x"]
        assert batch_total == b * cm.batch_rounds(p, di.semigroup.bits, k)


class TestFullPipelines:
    def test_diameter_and_radius_consistent(self):
        net = topologies.lollipop(6, 8)
        d = compute_diameter(net, seed=1)
        r = compute_radius(net, seed=2)
        assert r.value <= d.value
        assert d.value <= 2 * r.value  # metric fact: D ≤ 2R

    def test_girth_pipeline_sound_on_many_graphs(self):
        for seed, g in [(1, 4), (2, 5), (3, 7)]:
            net = topologies.planted_cycle(30, g, seed=seed)
            result = compute_girth(net, seed=seed)
            assert verify_girth(net, result)

    def test_quantum_and_classical_cycle_agree(self):
        net = topologies.planted_cycle(36, 5, seed=4)
        quantum_lengths = {detect_cycle(net, 6, seed=s).length for s in range(4)}
        classical_lengths = {
            detect_cycle_classical(net, 6, seed=s).length for s in range(4)
        }
        assert 5 in quantum_lengths
        assert 5 in classical_lengths

    def test_three_separations_on_one_gadget(self):
        """One path gadget, three quantum-vs-classical round comparisons."""
        net = topologies.path_with_endpoints(6)
        rng = np.random.default_rng(6)
        k = 8192  # comfortably past the √(kD)-vs-k/log n crossover

        cal = {v: [int(rng.random() < 0.5) for _ in range(k)] for v in net.nodes()}
        q_meeting = schedule_meeting(net, cal, seed=6).rounds
        c_meeting = classical_meeting(net, cal, seed=6)[2]
        assert q_meeting < c_meeting

        vectors = {v: [0] * k for v in net.nodes()}
        vectors[0] = list(rng.choice(10**6, size=k, replace=False))
        vectors[0][9] = vectors[0][99]  # plant one collision
        q_ed = distinctness_distributed_vector(net, vectors, 10**6, seed=6).rounds
        from repro.baselines.streaming import classical_element_distinctness

        _, c_ed = classical_element_distinctness(net, vectors, 10**6, seed=6)
        assert q_ed < c_ed  # both pay the same ⌈log N/log n⌉ word factor

        inputs = {v: [0] * k for v in net.nodes()}
        inputs[0] = [1, 0] * (k // 2)
        q_dj = solve_distributed_dj(net, inputs, seed=6).rounds
        assert q_dj * 50 < c_meeting


class TestReproducibility:
    def test_identical_seeds_identical_runs(self):
        net = topologies.grid(3, 4)
        rng = np.random.default_rng(7)
        cal = {v: [int(rng.random() < 0.4) for _ in range(30)] for v in net.nodes()}
        a = schedule_meeting(net, cal, seed=42)
        b = schedule_meeting(net, cal, seed=42)
        assert a.best_slot == b.best_slot
        assert a.rounds == b.rounds
        assert a.batches == b.batches

    def test_different_seeds_may_differ_but_stay_correct(self):
        net = topologies.grid(3, 4)
        rng = np.random.default_rng(8)
        cal = {v: [int(rng.random() < 0.4) for _ in range(30)] for v in net.nodes()}
        results = [schedule_meeting(net, cal, seed=s) for s in range(6)]
        correct = sum(r.correct_against(cal) for r in results)
        assert correct >= 4
