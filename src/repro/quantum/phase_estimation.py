"""Exact quantum phase estimation (Lemma 29's algorithmic core).

Standard textbook QPE: ``t`` ancilla qubits in uniform superposition
control powers U^{2^j} on an eigenstate register, followed by an inverse
QFT on the ancillas.  The measured ancilla value k estimates the
eigenphase θ (with U|ψ> = e^{2πiθ}|ψ>, θ ∈ [0,1)) to additive error
2^{-t} with probability ≥ 4/π² ≈ 0.405 for the nearest value, and to
error ε with probability ≥ 1−δ after median boosting — exactly the
scheme Lemma 29 runs with the CONGEST network supplying U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .circuits import inverse_qft_matrix
from .statevector import Statevector


@dataclass
class PhaseEstimate:
    theta: float
    raw_outcome: int
    ancilla_qubits: int
    unitary_applications: int


def _controlled_power_apply(
    state: Statevector,
    unitary: np.ndarray,
    control: int,
    target_qubits: List[int],
    power: int,
) -> None:
    u_pow = np.linalg.matrix_power(unitary, power)
    state.apply_controlled(u_pow, [control], target_qubits)


def estimate_phase(
    unitary: np.ndarray,
    eigenstate: np.ndarray,
    ancilla_qubits: int,
    rng: np.random.Generator,
) -> PhaseEstimate:
    """One QPE shot: returns θ̂ = k/2^t for the measured ancilla value k."""
    unitary = np.asarray(unitary, dtype=np.complex128)
    m_dim = unitary.shape[0]
    if m_dim & (m_dim - 1):
        raise ValueError("unitary dimension must be a power of two")
    m = m_dim.bit_length() - 1
    t = ancilla_qubits
    total = t + m

    state = Statevector(total)
    # Load the eigenstate into the target register (qubits t..t+m-1).
    init = np.zeros(1 << total, dtype=np.complex128)
    eigenstate = np.asarray(eigenstate, dtype=np.complex128)
    init[: m_dim] = eigenstate  # ancillas all zero (most significant bits)
    state.data = init / np.linalg.norm(init)

    from .gates import H  # local import to avoid cycle at module load

    for a in range(t):
        state.apply(H, [a])
    applications = 0
    for a in range(t):
        # Ancilla a is the (t-1-a)-th binary digit: control U^{2^{t-1-a}}.
        power = 1 << (t - 1 - a)
        _controlled_power_apply(state, unitary, a, list(range(t, total)), power)
        applications += power

    state.apply(inverse_qft_matrix(t), list(range(t)))
    outcome_probs = state.marginal_probabilities(list(range(t)))
    outcome = int(rng.choice(1 << t, p=outcome_probs / outcome_probs.sum()))
    return PhaseEstimate(
        theta=outcome / (1 << t),
        raw_outcome=outcome,
        ancilla_qubits=t,
        unitary_applications=applications,
    )


def _circular_median(thetas: List[float]) -> float:
    """Median of phases in [0,1), unwrapped around the circle.

    Shifts all samples so the first is at 0.5, takes the ordinary median,
    and shifts back — adequate when samples concentrate near the truth,
    which is what median boosting guarantees.
    """
    if not thetas:
        raise ValueError("no samples")
    shift = 0.5 - thetas[0]
    shifted = sorted((t + shift) % 1.0 for t in thetas)
    med = shifted[len(shifted) // 2]
    return (med - shift) % 1.0


def estimate_phase_boosted(
    unitary: np.ndarray,
    eigenstate: np.ndarray,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> PhaseEstimate:
    """Median-of-repetitions QPE: error ≤ ε with probability ≥ 1 − δ.

    Uses t = ⌈log2(1/ε)⌉ + 2 ancillas per shot and O(log(1/δ)) shots,
    matching Lemma 29's O((R/ε)·log(1/δ)) round structure when each U
    application costs R rounds.
    """
    t = max(1, math.ceil(math.log2(1.0 / epsilon))) + 2
    shots = max(1, math.ceil(18 * math.log(1.0 / delta)) | 1)  # odd count
    samples = []
    applications = 0
    last = None
    for _ in range(shots):
        last = estimate_phase(unitary, eigenstate, t, rng)
        samples.append(last.theta)
        applications += last.unitary_applications
    return PhaseEstimate(
        theta=_circular_median(samples),
        raw_outcome=last.raw_outcome,
        ancilla_qubits=t,
        unitary_applications=applications,
    )
