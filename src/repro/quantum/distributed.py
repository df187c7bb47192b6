"""Exact distributed quantum states: Lemma 7 and Theorem 17, literally.

Everywhere else in this repository the quantum CONGEST protocols are
*emulated* (Level S) — metered classical processes following the exact
amplitude laws.  This module is the Level-E counterpart for the heart of
the paper: it simulates the actual joint quantum state of a small network,
with every node owning a q-qubit register inside one global statevector,
and executes the paper's circuits on it:

* :func:`share_register` — Lemma 7's forward map
  Σᵢ αᵢ|i⟩_leader ⊗ |0⟩^{rest}  →  Σᵢ αᵢ|i⟩^{⊗n},
  implemented exactly as the proof says: transversal CNOTs from parent to
  child registers, one BFS-tree layer at a time.  (No cloning is involved
  — the result is a GHZ-like entangled state, not n independent copies.)
* :func:`unshare_register` — the reverse ("run the same algorithm in
  reverse"), returning the state to the leader.
* :func:`apply_local_phase_oracle` — each node applies its private phase
  |i⟩_v → (−1)^{x^{(v)}_i}|i⟩_v, so the shared state picks up the product
  phase (−1)^{⊕_v x^{(v)}_i}: the distributed query of Theorem 8 for the
  XOR semigroup, with *zero communication*.
* :func:`distributed_deutsch_jozsa_exact` — Theorem 17 end to end:
  H^{⊗q} at the leader, share, local phases, unshare, H^{⊗q}, measure.
  Deterministically correct, verified against the promise.

Memory is the real n·q-qubit Hilbert space (2^{nq} amplitudes), so this
is for small networks — exactly its purpose: the ground truth the scaled
emulation is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.algorithms.bfs import BFSResult
from ..congest.network import Network
from . import gates
from .statevector import Statevector


@dataclass
class DistributedRegisters:
    """An n-node network state where node v owns qubits [v·q, (v+1)·q)."""

    num_nodes: int
    qubits_per_node: int
    state: Statevector

    @staticmethod
    def all_zero(num_nodes: int, qubits_per_node: int) -> "DistributedRegisters":
        total = num_nodes * qubits_per_node
        if total > 22:
            raise ValueError(
                f"{num_nodes} nodes × {qubits_per_node} qubits = {total} "
                "qubits exceeds the exact-simulation budget (22)"
            )
        return DistributedRegisters(
            num_nodes=num_nodes,
            qubits_per_node=qubits_per_node,
            state=Statevector(total),
        )

    def node_qubits(self, v: int) -> List[int]:
        q = self.qubits_per_node
        return list(range(v * q, (v + 1) * q))

    def apply_on_node(self, v: int, matrix: np.ndarray) -> None:
        self.state.apply(matrix, self.node_qubits(v))

    def node_marginal(self, v: int) -> np.ndarray:
        return self.state.marginal_probabilities(self.node_qubits(v))


def load_leader_state(
    registers: DistributedRegisters, leader: int, amplitudes: Sequence[complex]
) -> None:
    """Initialize the leader's register to Σᵢ αᵢ|i⟩ (others stay |0⟩)."""
    q = registers.qubits_per_node
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.shape != (1 << q,):
        raise ValueError(f"need {1 << q} amplitudes for a {q}-qubit register")
    norm = np.linalg.norm(amplitudes)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("leader state must be normalized")
    total = registers.state.num_qubits
    full = np.zeros(1 << total, dtype=np.complex128)
    shift = total - (leader + 1) * q
    for i, amp in enumerate(amplitudes):
        full[i << shift] = amp
    registers.state.data = full


def _copy_register(
    registers: DistributedRegisters, src: int, dst: int
) -> None:
    """Transversal CNOTs: |i⟩_src |j⟩_dst → |i⟩_src |j ⊕ i⟩_dst."""
    for offset in range(registers.qubits_per_node):
        control = registers.node_qubits(src)[offset]
        target = registers.node_qubits(dst)[offset]
        registers.state.apply(gates.CNOT, [control, target])


def _tree_layers(tree: BFSResult) -> List[List[Tuple[int, int]]]:
    """Tree edges grouped by depth of the parent, shallow first."""
    by_depth: Dict[int, List[Tuple[int, int]]] = {}
    for v, parent in tree.parent.items():
        if parent is None:
            continue
        by_depth.setdefault(tree.dist[parent], []).append((parent, v))
    return [by_depth[d] for d in sorted(by_depth)]


def share_register(
    registers: DistributedRegisters, tree: BFSResult
) -> int:
    """Lemma 7 forward: spread the leader's register to every node.

    Returns the number of CNOT layers applied (= tree depth), which is
    the round count for q ≤ log n; the pipelined chunked schedule for
    larger q is measured by :mod:`repro.core.state_transfer`.
    """
    layers = _tree_layers(tree)
    for layer in layers:
        for parent, child in layer:
            _copy_register(registers, parent, child)
    return len(layers)


def unshare_register(
    registers: DistributedRegisters, tree: BFSResult
) -> int:
    """Lemma 7 reverse: uncompute all copies back into the leader."""
    layers = _tree_layers(tree)
    for layer in reversed(layers):
        for parent, child in layer:
            _copy_register(registers, parent, child)  # CNOT is self-inverse
    return len(layers)


def is_shared_state(
    registers: DistributedRegisters, amplitudes: Sequence[complex]
) -> bool:
    """Does the global state equal Σᵢ αᵢ|i⟩^{⊗n}?"""
    q = registers.qubits_per_node
    n = registers.num_nodes
    expected = np.zeros(registers.state.dim, dtype=np.complex128)
    for i, amp in enumerate(np.asarray(amplitudes, dtype=np.complex128)):
        index = 0
        for _ in range(n):
            index = (index << q) | i
        expected[index] = amp
    return bool(np.allclose(registers.state.data, expected, atol=1e-9))


def _register_view(
    registers: DistributedRegisters, node: int
) -> np.ndarray:
    """The statevector reshaped to ``(left, 2^q, right)`` around node's register.

    Node v's qubits are the contiguous block ``[v·q, (v+1)·q)`` and qubit 0
    is the most significant index bit, so the register's basis index is a
    middle axis of a plain reshape — no ``moveaxis``, no copy.  Diagonal
    and mean-reflection updates then broadcast along that axis.
    """
    q = registers.qubits_per_node
    total = registers.state.num_qubits
    left = 1 << (node * q)
    right = 1 << (total - (node + 1) * q)
    return registers.state.data.reshape(left, 1 << q, right)


def apply_local_phase_oracle(
    registers: DistributedRegisters, node: int, bits: Sequence[int]
) -> None:
    """Node applies |i⟩ → (−1)^{bits[i]}|i⟩ on its own register, locally.

    Column-major fast path (PR 7): the phase is diagonal in the node's
    register index, so it is a broadcast multiply on the reshaped
    statevector — O(2^{nq}) scalar multiplies instead of a 2^q × 2^q
    matrix product through the generic gate path.  Each amplitude is
    multiplied by exactly the same ±1 the dense diagonal would have
    contributed, so the result is bit-identical to
    :func:`apply_local_phase_oracle_dense` (the kernel-equivalence tests
    pin this).
    """
    q = registers.qubits_per_node
    if len(bits) != (1 << q):
        raise ValueError(f"need {1 << q} oracle bits, got {len(bits)}")
    diag = np.array([(-1.0) ** b for b in bits], dtype=np.complex128)
    view = _register_view(registers, node)
    view *= diag[None, :, None]


def apply_local_phase_oracle_dense(
    registers: DistributedRegisters, node: int, bits: Sequence[int]
) -> None:
    """Reference oracle: the same local phase via an explicit diagonal
    matrix through the generic gate path.  Kept as the ground truth the
    vectorized :func:`apply_local_phase_oracle` is tested against."""
    q = registers.qubits_per_node
    if len(bits) != (1 << q):
        raise ValueError(f"need {1 << q} oracle bits, got {len(bits)}")
    diag = np.array([(-1.0) ** b for b in bits], dtype=np.complex128)
    registers.apply_on_node(node, np.diag(diag))


@dataclass
class ExactGroverOutcome:
    measured_index: int
    marked: bool
    success_probability: float
    iterations: int
    share_layers_per_query: int


def distributed_grover_exact(
    network: Network,
    tree: BFSResult,
    inputs: Dict[int, List[int]],
    iterations: int,
    rng: Optional[np.random.Generator] = None,
) -> ExactGroverOutcome:
    """Grover search over the network's XOR-aggregated input, exactly.

    The target predicate is f(j) = ⊕_v x^{(v)}_j: because the phase
    (−1)^{f(j)} factorizes into Π_v (−1)^{x^{(v)}_j}, each oracle call of
    Grover's algorithm is implemented *exactly* as Theorem 8 prescribes —
    share the index register (Lemma 7), let every node apply its local
    phase, unshare — with the diffusion applied at the leader.  This is
    the smallest end-to-end instance of the paper's framework that is
    simulable as a genuine quantum computation.

    Returns the measured index and the exact success probability, which
    tests compare against the sin²((2j+1)θ) law.
    """
    k = len(next(iter(inputs.values())))
    if k < 2 or k & (k - 1):
        raise ValueError("k must be a power of two >= 2 for the exact circuit")
    q = k.bit_length() - 1
    leader = tree.root
    rng = rng if rng is not None else np.random.default_rng()

    aggregated = [0] * k
    for vec in inputs.values():
        if len(vec) != k:
            raise ValueError("all nodes must hold length-k inputs")
        aggregated = [a ^ b for a, b in zip(aggregated, vec, strict=True)]
    marked = {j for j, bit in enumerate(aggregated) if bit}

    registers = DistributedRegisters.all_zero(network.n, q)
    uniform = np.full(1 << q, 1.0 / math.sqrt(1 << q), dtype=np.complex128)
    load_leader_state(registers, leader, uniform)
    layers = 0
    leader_qubits = registers.node_qubits(leader)

    for _ in range(iterations):
        # Oracle: Lemma 7 share, local phases, Lemma 7 unshare.
        layers = share_register(registers, tree)
        for v in network.nodes():
            apply_local_phase_oracle(registers, v, inputs[v])
        unshare_register(registers, tree)
        # Diffusion on the leader's register (local computation).
        _leader_diffusion(registers, leader_qubits)

    marginal = registers.node_marginal(leader)
    success = float(sum(marginal[j] for j in marked))
    outcome = int(rng.choice(1 << q, p=marginal / marginal.sum()))
    return ExactGroverOutcome(
        measured_index=outcome,
        marked=outcome in marked,
        success_probability=success,
        iterations=iterations,
        share_layers_per_query=layers,
    )


def _leader_diffusion(
    registers: DistributedRegisters, leader_qubits: List[int]
) -> None:
    """2|s><s| − I on the leader register, leaving other registers alone.

    Matrix-free mean reflection (PR 7): for each fixed setting of the
    other registers, every leader amplitude maps to ``2·mean − a`` —
    one reduction and one broadcast over the reshaped statevector,
    instead of a dense 2^q × 2^q matrix through the generic gate path.
    Numerically this changes only the summation order inside the mean
    (the tests bound the difference from
    :func:`_leader_diffusion_dense` at ~1e-12).
    """
    q = len(leader_qubits)
    lo = leader_qubits[0]
    if leader_qubits != list(range(lo, lo + q)):  # pragma: no cover
        _leader_diffusion_dense(registers, leader_qubits)
        return
    view = registers.state.data.reshape(1 << lo, 1 << q, -1)
    mean = view.mean(axis=1, keepdims=True)
    view *= -1.0
    view += 2.0 * mean


def _leader_diffusion_dense(
    registers: DistributedRegisters, leader_qubits: List[int]
) -> None:
    """Reference oracle: the same diffusion as an explicit dense matrix."""
    q = len(leader_qubits)
    dim = 1 << q
    diffusion = 2.0 / dim * np.ones((dim, dim), dtype=np.complex128) - np.eye(dim)
    registers.state.apply(diffusion, leader_qubits)


@dataclass
class ExactDJOutcome:
    constant: bool
    leader_zero_probability: float
    share_layers: int
    total_qubits: int


def distributed_deutsch_jozsa_exact(
    network: Network,
    tree: BFSResult,
    inputs: Dict[int, List[int]],
) -> ExactDJOutcome:
    """Theorem 17 as a genuine quantum circuit over the whole network.

    Args:
        network: a small network (n·log₂k ≤ 22 qubits).
        tree: BFS tree rooted at the designated leader.
        inputs: per-node x^{(v)} ∈ {0,1}^k with k a power of two and the
            XOR promise (constant or balanced) holding.

    Returns:
        the deterministic classification plus the exact probability of
        the leader measuring |0...0⟩ (1.0 for constant, 0.0 for balanced).
    """
    k = len(next(iter(inputs.values())))
    if k < 2 or k & (k - 1):
        raise ValueError("k must be a power of two >= 2 for the exact circuit")
    q = k.bit_length() - 1
    leader = tree.root

    registers = DistributedRegisters.all_zero(network.n, q)
    uniform = np.full(1 << q, 1.0 / math.sqrt(1 << q), dtype=np.complex128)
    load_leader_state(registers, leader, uniform)

    layers = share_register(registers, tree)
    if not is_shared_state(registers, uniform):
        raise AssertionError("Lemma 7 sharing produced the wrong state")

    for v in network.nodes():
        apply_local_phase_oracle(registers, v, inputs[v])

    unshare_register(registers, tree)

    # Final H^{⊗q} on the leader, then read the |0⟩ probability.
    for qubit in registers.node_qubits(leader):
        registers.state.apply(gates.H, [qubit])
    marginal = registers.node_marginal(leader)
    p_zero = float(marginal[0])
    return ExactDJOutcome(
        constant=p_zero > 0.5,
        leader_zero_probability=p_zero,
        share_layers=layers,
        total_qubits=registers.state.num_qubits,
    )
