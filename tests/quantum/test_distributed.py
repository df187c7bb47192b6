"""Tests for the exact distributed quantum state module (Lemma 7 / Thm 17)."""

import numpy as np
import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import bfs_with_echo
from repro.quantum.distributed import (
    DistributedRegisters,
    apply_local_phase_oracle,
    distributed_deutsch_jozsa_exact,
    is_shared_state,
    load_leader_state,
    share_register,
    unshare_register,
)


def random_state(rng, q):
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    return amps / np.linalg.norm(amps)


class TestRegisters:
    def test_all_zero_start(self):
        regs = DistributedRegisters.all_zero(3, 2)
        assert regs.state.probability_of(0) == pytest.approx(1.0)

    def test_qubit_budget_enforced(self):
        with pytest.raises(ValueError):
            DistributedRegisters.all_zero(12, 2)

    def test_node_qubit_ownership(self):
        regs = DistributedRegisters.all_zero(3, 2)
        assert regs.node_qubits(0) == [0, 1]
        assert regs.node_qubits(2) == [4, 5]

    def test_load_leader_state(self, rng):
        regs = DistributedRegisters.all_zero(3, 2)
        amps = random_state(rng, 2)
        load_leader_state(regs, 1, amps)
        marginal = regs.node_marginal(1)
        assert np.allclose(marginal, np.abs(amps) ** 2)

    def test_load_rejects_unnormalized(self):
        regs = DistributedRegisters.all_zero(2, 1)
        with pytest.raises(ValueError):
            load_leader_state(regs, 0, [1.0, 1.0])


class TestLemma7Exact:
    @pytest.mark.parametrize("maker,root", [
        (lambda: topologies.path(5), 0),
        (lambda: topologies.path(5), 2),
        (lambda: topologies.star(5), 0),
        (lambda: topologies.cycle(5), 1),
    ])
    def test_share_produces_ghz_extension(self, maker, root, rng):
        net = maker()
        tree = bfs_with_echo(net, root)
        amps = random_state(rng, 2)
        regs = DistributedRegisters.all_zero(net.n, 2)
        load_leader_state(regs, root, amps)
        share_register(regs, tree)
        assert is_shared_state(regs, amps)

    def test_share_layers_equal_depth(self, rng):
        net = topologies.path(6)
        tree = bfs_with_echo(net, 0)
        regs = DistributedRegisters.all_zero(net.n, 1)
        load_leader_state(regs, 0, random_state(rng, 1))
        assert share_register(regs, tree) == tree.eccentricity

    def test_unshare_inverts_share(self, rng):
        net = topologies.star(6)
        tree = bfs_with_echo(net, 0)
        amps = random_state(rng, 2)
        regs = DistributedRegisters.all_zero(net.n, 2)
        load_leader_state(regs, 0, amps)
        share_register(regs, tree)
        unshare_register(regs, tree)
        reference = DistributedRegisters.all_zero(net.n, 2)
        load_leader_state(reference, 0, amps)
        assert np.allclose(regs.state.data, reference.state.data, atol=1e-9)

    def test_marginal_of_shared_state_uniform_copy(self, rng):
        """Every node's local marginal equals the leader's distribution."""
        net = topologies.path(4)
        tree = bfs_with_echo(net, 0)
        amps = random_state(rng, 2)
        regs = DistributedRegisters.all_zero(net.n, 2)
        load_leader_state(regs, 0, amps)
        share_register(regs, tree)
        for v in net.nodes():
            assert np.allclose(regs.node_marginal(v), np.abs(amps) ** 2)


class TestLocalPhaseOracle:
    def test_phase_applied_to_basis_state(self):
        regs = DistributedRegisters.all_zero(2, 1)
        load_leader_state(regs, 0, [0.0, 1.0])  # leader in |1>
        apply_local_phase_oracle(regs, 0, [0, 1])
        # amplitude of |1>_0 |0>_1 = index 0b10 got a minus sign
        assert regs.state.data[0b10].real == pytest.approx(-1.0)

    def test_wrong_length_rejected(self):
        regs = DistributedRegisters.all_zero(2, 1)
        with pytest.raises(ValueError):
            apply_local_phase_oracle(regs, 0, [0, 1, 0])

    def test_phases_multiply_across_nodes(self, rng):
        """XOR semantics: two nodes flipping the same index cancel."""
        net = topologies.path(3)
        tree = bfs_with_echo(net, 0)
        inputs = {v: [0, 0] for v in net.nodes()}
        inputs[1] = [0, 1]
        inputs[2] = [0, 1]  # cancels node 1 -> constant-zero aggregate
        out = distributed_deutsch_jozsa_exact(net, tree, inputs)
        assert out.constant


class TestTheorem17Exact:
    @pytest.mark.parametrize("seed", range(5))
    def test_balanced_exact_zero(self, seed):
        net = topologies.path(4)
        tree = bfs_with_echo(net, 1)
        rng = np.random.default_rng(seed)
        k = 4
        inputs = {v: [int(b) for b in rng.integers(0, 2, size=k)]
                  for v in net.nodes()}
        xor = [0] * k
        for vec in inputs.values():
            xor = [a ^ b for a, b in zip(xor, vec, strict=True)]
        target = [1, 1, 0, 0]
        inputs[0] = [a ^ b ^ c for a, b, c in zip(inputs[0], xor, target, strict=True)]
        out = distributed_deutsch_jozsa_exact(net, tree, inputs)
        assert not out.constant
        assert out.leader_zero_probability == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ones", [False, True])
    def test_constant_exact_one(self, ones):
        net = topologies.star(5)
        tree = bfs_with_echo(net, 0)
        k = 4
        inputs = {v: [0] * k for v in net.nodes()}
        if ones:
            inputs[3] = [1] * k
        out = distributed_deutsch_jozsa_exact(net, tree, inputs)
        assert out.constant
        assert out.leader_zero_probability == pytest.approx(1.0)

    def test_matches_level_s_decision(self):
        """The exact circuit and the emulated app agree on the same input."""
        from repro.apps.deutsch_jozsa import solve_distributed_dj

        net = topologies.path(4)
        tree = bfs_with_echo(net, 0)
        inputs = {v: [0, 0, 0, 0] for v in net.nodes()}
        inputs[2] = [1, 0, 1, 0]
        exact = distributed_deutsch_jozsa_exact(net, tree, inputs)
        emulated = solve_distributed_dj(net, inputs, seed=1)
        assert exact.constant == emulated.constant

    def test_non_power_of_two_rejected(self):
        net = topologies.path(3)
        tree = bfs_with_echo(net, 0)
        inputs = {v: [0, 0, 0] for v in net.nodes()}
        with pytest.raises(ValueError):
            distributed_deutsch_jozsa_exact(net, tree, inputs)


class TestDistributedGroverExact:
    """The full Theorem 8 loop as a genuine quantum computation."""

    def _inputs(self, net, k, marked_positions):
        inputs = {v: [0] * k for v in net.nodes()}
        # Spread the marking over two nodes so the XOR matters.
        for pos in marked_positions:
            inputs[1][pos] ^= 1
        inputs[2][0] ^= 1
        inputs[1][0] ^= 1  # cancels: index 0 unmarked
        return inputs

    @pytest.mark.parametrize("iterations", [0, 1, 2])
    def test_success_probability_matches_law(self, iterations):
        from repro.quantum.distributed import distributed_grover_exact
        from repro.quantum.grover import theoretical_success_probability

        net = topologies.path(4)
        tree = bfs_with_echo(net, 0)
        k = 8
        inputs = self._inputs(net, k, marked_positions=[2, 5])
        out = distributed_grover_exact(
            net, tree, inputs, iterations=iterations,
            rng=np.random.default_rng(0),
        )
        law = theoretical_success_probability(k, 2, iterations)
        assert out.success_probability == pytest.approx(law, abs=1e-9)

    def test_optimal_iterations_find_marked(self):
        from repro.quantum.distributed import distributed_grover_exact
        from repro.quantum.grover import optimal_iterations

        net = topologies.star(4)
        tree = bfs_with_echo(net, 0)
        k = 8
        inputs = {v: [0] * k for v in net.nodes()}
        inputs[3] = [0, 0, 0, 0, 0, 0, 1, 0]  # single marked index 6
        j = optimal_iterations(k, 1)
        hits = 0
        for seed in range(10):
            out = distributed_grover_exact(
                net, tree, inputs, iterations=j,
                rng=np.random.default_rng(seed),
            )
            hits += out.marked and out.measured_index == 6
        assert hits >= 8  # p_success = sin²((2·2+1)·asin(√(1/8))) ≈ 0.88

    def test_share_layers_equal_tree_depth(self):
        from repro.quantum.distributed import distributed_grover_exact

        net = topologies.path(4)
        tree = bfs_with_echo(net, 1)
        inputs = {v: [0, 1] * 2 for v in net.nodes()}
        out = distributed_grover_exact(
            net, tree, inputs, iterations=1, rng=np.random.default_rng(1)
        )
        assert out.share_layers_per_query == tree.eccentricity

    def test_rejects_bad_k(self):
        from repro.quantum.distributed import distributed_grover_exact

        net = topologies.path(3)
        tree = bfs_with_echo(net, 0)
        inputs = {v: [0, 1, 0] for v in net.nodes()}
        with pytest.raises(ValueError):
            distributed_grover_exact(net, tree, inputs, iterations=1)
