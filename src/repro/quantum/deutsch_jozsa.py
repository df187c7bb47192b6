"""The exact Deutsch–Jozsa algorithm [DJ92] on the statevector simulator.

Given f: {0,1}^q → {0,1} promised constant or balanced, one query to the
phase oracle decides which, with zero error:

    H^{⊗q} · O_f · H^{⊗q} |0...0>   measures to |0...0>  iff  f is constant.

Theorem 17 of the paper lifts exactly this circuit into the Quantum
CONGEST model; ``repro.apps.deutsch_jozsa`` reuses the classification
logic below and charges the network cost of the single distributed query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevector import uniform_superposition


class PromiseViolation(ValueError):
    """The input is neither constant nor balanced."""


def is_constant(bits: Sequence[int]) -> bool:
    """Is the truth table all-zero or all-one?"""
    total = sum(bits)
    return total == 0 or total == len(bits)


def is_balanced(bits: Sequence[int]) -> bool:
    """Does the truth table have exactly half ones?"""
    return sum(bits) * 2 == len(bits)


def check_promise(bits: Sequence[int]) -> None:
    """Raise PromiseViolation unless the table is constant or balanced."""
    if not (is_constant(bits) or is_balanced(bits)):
        raise PromiseViolation(
            f"|x| = {sum(bits)} out of {len(bits)}: neither constant nor balanced"
        )


@dataclass
class DJOutcome:
    constant: bool
    zero_amplitude_probability: float
    oracle_calls: int = 1


def run(bits: Sequence[int]) -> DJOutcome:
    """Run exact DJ on an explicit truth table of length 2^q.

    Returns the (deterministic) classification.  The probability of
    measuring |0...0> is reported so tests can assert it is exactly 1 for
    constant inputs and exactly 0 for balanced inputs.
    """
    k = len(bits)
    if k < 2 or k & (k - 1):
        raise ValueError(f"truth table length must be a power of two >= 2, got {k}")
    check_promise(bits)
    q = k.bit_length() - 1
    state = uniform_superposition(q)
    diag = np.array([(-1.0) ** b for b in bits], dtype=np.complex128)
    state.apply_diagonal(diag)
    # Final H^{⊗q}: amplitude of |0> is the mean of the phases.
    p_zero = float(abs(state.data.mean()) ** 2 * state.dim)
    constant = p_zero > 0.5
    return DJOutcome(constant=constant, zero_amplitude_probability=p_zero)


def classify(bits: Sequence[int]) -> str:
    """Convenience wrapper returning 'constant' or 'balanced'."""
    return "constant" if run(bits).constant else "balanced"
