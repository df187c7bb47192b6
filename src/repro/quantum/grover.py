"""Exact Grover search on the statevector simulator.

This module provides the ground truth that the Level-S emulation layer is
checked against: running Grover's iterate exactly and confirming the
success amplitude law

    P(success after j iterations) = sin²((2j+1)·θ),   θ = asin(√(t/N)),

which Lemma 2's analysis (via [BBHT98]) builds on.  It also implements the
BBHT unknown-t exponential search loop *with exact per-run success
probabilities*, so its expected query count can be measured and compared
to the O(√(N/t)) bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from .statevector import Statevector, uniform_superposition


def oracle_phase_flip(state: Statevector, marked: Set[int]) -> Statevector:
    """Apply the phase oracle O|i> = (-1)^{x_i}|i> for the marked set."""
    diag = np.ones(state.dim, dtype=np.complex128)
    for i in marked:
        diag[i] = -1.0
    return state.apply_diagonal(diag)


def diffusion(state: Statevector) -> Statevector:
    """Inversion about the mean: 2|s><s| − I with |s> uniform."""
    mean = state.data.mean()
    state.data = 2.0 * mean - state.data
    return state


def grover_state(num_qubits: int, marked: Set[int], iterations: int) -> Statevector:
    """The exact state after ``iterations`` Grover iterations."""
    state = uniform_superposition(num_qubits)
    for _ in range(iterations):
        oracle_phase_flip(state, marked)
        diffusion(state)
    return state


def success_probability(num_qubits: int, marked: Set[int], iterations: int) -> float:
    """Exact probability that measuring after j iterations yields a marked index."""
    state = grover_state(num_qubits, marked, iterations)
    probs = state.probabilities()
    return float(sum(probs[i] for i in marked))


def theoretical_success_probability(n_items: int, t: int, iterations: int) -> float:
    """The closed-form sin²((2j+1)θ) law used by the emulation layer."""
    if t == 0:
        return 0.0
    theta = math.asin(math.sqrt(t / n_items))
    return math.sin((2 * iterations + 1) * theta) ** 2


def optimal_iterations(n_items: int, t: int) -> int:
    """⌊(π/4)·√(N/t)⌋, the canonical Grover iteration count."""
    if t == 0:
        return 0
    theta = math.asin(math.sqrt(t / n_items))
    return max(0, int(math.floor(math.pi / (4 * theta))))


@dataclass
class GroverRun:
    """Outcome of an exact Grover search."""

    result: Optional[int]
    iterations_used: int
    oracle_calls: int


def search(
    num_qubits: int,
    marked: Set[int],
    rng: np.random.Generator,
    iterations: Optional[int] = None,
) -> GroverRun:
    """One exact Grover run with measurement.

    If ``iterations`` is None and the marked count is known, uses the
    optimal count.  Returns the measured index (marked or not).
    """
    n_items = 1 << num_qubits
    if iterations is None:
        iterations = optimal_iterations(n_items, len(marked))
    state = grover_state(num_qubits, marked, iterations)
    outcome = state.measure(rng)
    result = outcome if outcome in marked else None
    return GroverRun(result=result, iterations_used=iterations,
                     oracle_calls=iterations)


def bbht_search(
    num_qubits: int,
    marked: Set[int],
    rng: np.random.Generator,
    growth: float = 6 / 5,
    max_oracle_calls: Optional[int] = None,
) -> GroverRun:
    """BBHT exponential search for unknown t, run exactly.

    Repeatedly picks a uniformly random iteration count below a growing
    cap m, runs exact Grover, and checks the measured index with one extra
    oracle call.  Expected oracle calls are O(√(N/t)) [BBHT98].
    """
    n_items = 1 << num_qubits
    m = 1.0
    calls = 0
    limit = max_oracle_calls if max_oracle_calls is not None else 20 * n_items
    while calls <= limit:
        j = int(rng.integers(0, max(1, int(math.ceil(m)))))
        state = grover_state(num_qubits, marked, j)
        outcome = state.measure(rng)
        calls += j + 1  # +1 for the classical verification query
        if outcome in marked:
            return GroverRun(result=outcome, iterations_used=j, oracle_calls=calls)
        if not marked:
            # With no marked items the loop cannot succeed; the standard
            # convention is to stop after ~√N total work and report failure.
            if calls >= 3 * math.sqrt(n_items) + 3:
                break
        m = min(growth * m, math.sqrt(n_items))
    return GroverRun(result=None, iterations_used=0, oracle_calls=calls)
