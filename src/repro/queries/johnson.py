"""Johnson graph J(k, z) spectral facts used by Lemma 5, verified numerically.

Lemma 5's proof leans on three quantitative claims about the walk space:

1. the spectral gap of J(k, z) is δ = Ω(1/z) for z ≤ k/2 [BH12] — in fact
   exactly δ = k / (z(k − z)) for the normalized walk;
2. the p-th power of the walk has gap ≥ 1 − (1 − δ)^p = Ω(pδ) = Ω(p/z)
   for p < z;
3. the marked fraction is ε ≥ z(z−1)/(k(k−1)) ≈ z²/k² when one colliding
   pair exists (a random z-subset contains both endpoints).

This module constructs J(k, z) explicitly for small parameters, computes
the exact spectra, and exposes the closed forms, so the repository's use
of these constants in :mod:`repro.queries.element_distinctness` rests on
machine-checked numerics rather than citation alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np


def johnson_vertices(k: int, z: int) -> List[frozenset]:
    """All z-subsets of [k] (keep k ≤ ~12)."""
    if not 1 <= z <= k:
        raise ValueError(f"need 1 <= z <= k, got z={z}, k={k}")
    return [frozenset(c) for c in itertools.combinations(range(k), z)]


def johnson_walk_matrix(k: int, z: int) -> np.ndarray:
    """The normalized random-walk matrix of J(k, z).

    Vertices are z-subsets; edges join subsets differing by one swap, so
    the graph is z·(k−z)-regular and the walk matrix is A/(z(k−z)).
    """
    vertices = johnson_vertices(k, z)
    index = {v: i for i, v in enumerate(vertices)}
    size = len(vertices)
    degree = z * (k - z)
    walk = np.zeros((size, size))
    for v in vertices:
        inside = sorted(v)
        outside = [x for x in range(k) if x not in v]
        for leave in inside:
            for enter in outside:
                u = (v - {leave}) | {enter}
                walk[index[v], index[u]] = 1.0 / degree
    return walk


def spectral_gap(walk: np.ndarray) -> float:
    """1 − λ₂ of a stochastic symmetric walk matrix."""
    eigenvalues = np.sort(np.linalg.eigvalsh(walk))[::-1]
    return float(1.0 - eigenvalues[1])


def johnson_gap_closed_form(k: int, z: int) -> float:
    """The exact J(k, z) walk gap: k / (z(k − z)).

    Follows from the Johnson-scheme eigenvalues λ_j of the adjacency
    operator; the second-largest gives 1 − λ₁/deg = k/(z(k−z)) ≥ 1/z for
    z ≤ k/2 — the Ω(1/z) of [BH12] with its constant.
    """
    return k / (z * (k - z))


def power_walk_gap(walk: np.ndarray, p: int) -> float:
    """Spectral gap of the p-step walk."""
    return spectral_gap(np.linalg.matrix_power(walk, p))


@dataclass
class MarkedFraction:
    epsilon: float
    closed_form: float


def marked_fraction_one_pair(k: int, z: int) -> MarkedFraction:
    """Exact fraction of z-subsets containing both ends of one fixed pair.

    Counting: C(k−2, z−2)/C(k, z) = z(z−1)/(k(k−1)) ≥ (z/k)²·(1−1/z),
    the ε = z²/k² of Lemma 5 up to the paper's constants.
    """
    total = math.comb(k, z)
    containing = math.comb(k - 2, z - 2) if z >= 2 else 0
    return MarkedFraction(
        epsilon=containing / total,
        closed_form=z * (z - 1) / (k * (k - 1)),
    )


@dataclass
class WalkCostCheck:
    """All three Lemma 5 ingredients evaluated on one (k, z, p) instance."""

    k: int
    z: int
    p: int
    gap: float
    gap_closed_form: float
    power_gap: float
    power_gap_lower_bound: float
    epsilon: float

    @property
    def consistent(self) -> bool:
        return (
            abs(self.gap - self.gap_closed_form) < 1e-9
            and self.power_gap >= self.power_gap_lower_bound - 1e-9
            and self.gap >= 1.0 / self.z - 1e-9
        )


def check_walk_parameters(k: int, z: int, p: int) -> WalkCostCheck:
    """Compute exact spectra for one instance and compare to the claims."""
    walk = johnson_walk_matrix(k, z)
    gap = spectral_gap(walk)
    power_gap = power_walk_gap(walk, p)
    return WalkCostCheck(
        k=k,
        z=z,
        p=p,
        gap=gap,
        gap_closed_form=johnson_gap_closed_form(k, z),
        power_gap=power_gap,
        power_gap_lower_bound=1.0 - (1.0 - gap) ** p,
        epsilon=marked_fraction_one_pair(k, z).epsilon,
    )
