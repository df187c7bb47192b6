"""Exact amplitude amplification and estimation (Lemmas 27–30 cores).

Given a state-preparation unitary A with A|0> = √(1−p)|φ₀>|0> + √p|φ₁>|1>
(the "good" flag living on a designated qubit), this module builds the
amplitude-amplification iterate

    Q = A · S₀ · A† · S_good

exactly as matrices and runs

* **amplification** (Corollary 28): apply Q^j to boost the good amplitude,
  with the sin((2j+1)θ) law checked in tests; and
* **estimation** (Corollary 30 / [BHMT02]): phase estimation on Q, whose
  eigenphases are ±θ/π with sin²(θ) = p, recovering p to additive error.

The CONGEST versions in ``repro.apps.amplitude_apps`` reuse these exact
routines for small instances and charge network rounds per the lemmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from .phase_estimation import estimate_phase


def good_probability(state_prep: np.ndarray, good_states: Set[int]) -> float:
    """p = Σ_{i good} |<i|A|0>|²."""
    first_column = np.asarray(state_prep)[:, 0]
    return float(sum(abs(first_column[i]) ** 2 for i in good_states))


def amplification_iterate(
    state_prep: np.ndarray, good_states: Set[int]
) -> np.ndarray:
    """Q = A S₀ A† S_good as a dense unitary."""
    a = np.asarray(state_prep, dtype=np.complex128)
    dim = a.shape[0]
    s_good = np.eye(dim, dtype=np.complex128)
    for i in good_states:
        s_good[i, i] = -1.0
    s_zero = np.eye(dim, dtype=np.complex128)
    s_zero[0, 0] = -1.0
    # Reflections with the convention Q = −A S₀ A† S_good, which rotates by
    # 2θ in the (good, bad) plane; the global sign keeps eigenphases ±2θ.
    return -a @ s_zero @ a.conj().T @ s_good


@dataclass
class AmplificationResult:
    outcome: int
    good: bool
    iterations: int
    success_probability: float


def amplify(
    state_prep: np.ndarray,
    good_states: Set[int],
    rng: np.random.Generator,
    iterations: Optional[int] = None,
) -> AmplificationResult:
    """Run Q^j · A|0> and measure; j defaults to the optimal count."""
    a = np.asarray(state_prep, dtype=np.complex128)
    dim = a.shape[0]
    p = good_probability(a, good_states)
    if iterations is None:
        theta = math.asin(math.sqrt(max(p, 1e-15)))
        iterations = max(0, int(math.floor(math.pi / (4 * theta)))) if p > 0 else 0
    q = amplification_iterate(a, good_states)
    vec = a[:, 0].copy()
    for _ in range(iterations):
        vec = q @ vec
    probs = np.abs(vec) ** 2
    probs = probs / probs.sum()
    outcome = int(rng.choice(dim, p=probs))
    succ = float(sum(probs[i] for i in good_states))
    return AmplificationResult(
        outcome=outcome,
        good=outcome in good_states,
        iterations=iterations,
        success_probability=succ,
    )


def theoretical_amplified_probability(p: float, iterations: int) -> float:
    """sin²((2j+1)·asin(√p)) — the law Corollary 28's analysis uses."""
    theta = math.asin(math.sqrt(p))
    return math.sin((2 * iterations + 1) * theta) ** 2


@dataclass
class AmplitudeEstimate:
    p_estimate: float
    theta_estimate: float
    ancilla_qubits: int
    iterate_applications: int


def estimate_amplitude(
    state_prep: np.ndarray,
    good_states: Set[int],
    ancilla_qubits: int,
    rng: np.random.Generator,
) -> AmplitudeEstimate:
    """Amplitude estimation à la [BHMT02]: QPE on the iterate Q.

    The initial state A|0> is a superposition of the two Q-eigenvectors
    with eigenphases ±2θ/2π, so QPE returns one of ±θ; both give the same
    p̂ = sin²(π·k/2^t) estimate.  Error |p̂ − p| ≤ 2π√(p(1−p))/2^t + π²/4^t.
    """
    a = np.asarray(state_prep, dtype=np.complex128)
    q = amplification_iterate(a, good_states)
    initial = a[:, 0]
    est = estimate_phase(q, initial, ancilla_qubits, rng)
    theta = math.pi * est.theta  # eigenphase 2θ mapped into [0, 2π)·(1/2)
    p_hat = math.sin(theta) ** 2
    return AmplitudeEstimate(
        p_estimate=p_hat,
        theta_estimate=theta,
        ancilla_qubits=ancilla_qubits,
        iterate_applications=est.unitary_applications,
    )
