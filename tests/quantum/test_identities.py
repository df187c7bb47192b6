"""Property-based quantum identities on random states and circuits."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.quantum import gates
from repro.quantum.amplitude import amplification_iterate
from repro.quantum.circuits import Circuit, inverse_qft_matrix, qft_matrix
from repro.quantum.statevector import Statevector

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def random_states(draw, max_qubits=4):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps)


class TestInvolutions:
    @FAST
    @given(random_states(), st.sampled_from(["H", "X", "Y", "Z"]))
    def test_self_inverse_gates(self, state, gate_name):
        gate = getattr(gates, gate_name)
        before = state.data.copy()
        target = state.num_qubits - 1
        state.apply(gate, [target]).apply(gate, [target])
        assert np.allclose(state.data, before, atol=1e-9)

    @FAST
    @given(random_states(max_qubits=3))
    def test_qft_roundtrip(self, state):
        before = state.data.copy()
        n = state.num_qubits
        state.apply(qft_matrix(n), list(range(n)))
        state.apply(inverse_qft_matrix(n), list(range(n)))
        assert np.allclose(state.data, before, atol=1e-9)

    @FAST
    @given(random_states(max_qubits=3), st.integers(min_value=0, max_value=10**6))
    def test_random_circuit_inverse(self, state, seed):
        rng = np.random.default_rng(seed)
        n = state.num_qubits
        circ = Circuit(n)
        for _ in range(6):
            q = int(rng.integers(0, n))
            circ.add(
                [gates.H, gates.S, gates.T, gates.X][int(rng.integers(0, 4))],
                [q],
            )
            if n > 1:
                a, b = rng.choice(n, size=2, replace=False)
                circ.cnot(int(a), int(b))
        before = state.data.copy()
        circ.run(state)
        circ.inverse().run(state)
        assert np.allclose(state.data, before, atol=1e-8)


class TestNormPreservation:
    @FAST
    @given(random_states(), st.integers(min_value=0, max_value=10**6))
    def test_any_gate_sequence_preserves_norm(self, state, seed):
        rng = np.random.default_rng(seed)
        pool = [gates.H, gates.X, gates.S, gates.T, gates.Z]
        for _ in range(8):
            q = int(rng.integers(0, state.num_qubits))
            state.apply(pool[int(rng.integers(0, len(pool)))], [q])
        assert state.is_normalized()


class TestKickbackAndRotation:
    @FAST
    @given(st.floats(min_value=0.01, max_value=0.49))
    def test_grover_iterate_eigenphase(self, p):
        """The amplification iterate rotates by 2θ: its eigenvalues on the
        2D search plane are e^{±2iθ} with sin²θ = p."""
        import math

        dim = 8
        # State prep: |0> -> √(1−p)|bad> + √p|good> with good = {dim-1}.
        prep = np.eye(dim, dtype=complex)
        prep[0, 0] = math.sqrt(1 - p)
        prep[dim - 1, 0] = math.sqrt(p)
        prep[0, dim - 1] = -math.sqrt(p)
        prep[dim - 1, dim - 1] = math.sqrt(1 - p)
        assert gates.is_unitary(prep)
        q = amplification_iterate(prep, {dim - 1})
        eigenvalues = np.linalg.eigvals(q)
        theta = math.asin(math.sqrt(p))
        target = np.exp(2j * theta)
        closest = min(abs(ev - target) for ev in eigenvalues)
        assert closest < 1e-8

    @FAST
    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_phase_kickback(self, n, data):
        """Controlled-phase on |+>|1> kicks the phase to the control."""
        import math

        theta = data.draw(st.floats(min_value=0.1, max_value=3.0))
        sv = Statevector(2)
        sv.apply(gates.H, [0])
        sv.apply(gates.X, [1])
        sv.apply_controlled(gates.phase(theta), [0], [1])
        # control amplitudes: (|0> + e^{iθ}|1>)/√2 (joint with target |1>)
        ratio = sv.data[0b11] / sv.data[0b01]
        assert ratio == pytest.approx(np.exp(1j * theta), abs=1e-9)
