"""Two-party set disjointness — the source of the paper's lower bounds.

Lemmas 11, 13 and 15 all reduce the Ω(k) randomized communication bound on
disjointness [KS87; Raz90] (and the Ω(∛(kD²) + √k) quantum-on-a-line bound
[MN20]) to the distributed-data problems.  This module provides instances,
the brute-force answer, and the bound formulas the benchmarks plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class DisjointnessInstance:
    """A two-party instance: x, y ∈ {0,1}^k; intersecting iff ∃i xᵢ=yᵢ=1."""

    x: Tuple[int, ...]
    y: Tuple[int, ...]

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("inputs must have equal length")
        if any(b not in (0, 1) for b in self.x + self.y):
            raise ValueError("inputs must be bit vectors")

    @property
    def k(self) -> int:
        return len(self.x)

    @property
    def intersecting(self) -> bool:
        return any(a and b for a, b in zip(self.x, self.y, strict=True))

    def intersection(self) -> List[int]:
        return [i for i, (a, b) in enumerate(zip(self.x, self.y, strict=True)) if a and b]


def random_instance(
    k: int,
    rng: np.random.Generator,
    force_intersecting: Optional[bool] = None,
    density: float = 0.3,
) -> DisjointnessInstance:
    """Sample an instance, optionally conditioned on (non-)intersection."""
    for _ in range(1000):
        x = tuple(int(b) for b in rng.random(k) < density)
        y = tuple(int(b) for b in rng.random(k) < density)
        inst = DisjointnessInstance(x, y)
        if force_intersecting is None or inst.intersecting == force_intersecting:
            return inst
    # Construct deterministically if sampling failed (extreme densities).
    if force_intersecting:
        x = tuple(1 if i == 0 else 0 for i in range(k))
        return DisjointnessInstance(x, x)
    x = tuple(1 if i % 2 == 0 else 0 for i in range(k))
    y = tuple(1 if i % 2 == 1 else 0 for i in range(k))
    return DisjointnessInstance(x, y)


def classical_congest_lower_bound(k: int, diameter: int, n: int) -> float:
    """Ω(k/log n + D), the reduction target of Lemmas 11/13."""
    return k / max(1, math.ceil(math.log2(max(n, 2)))) + max(diameter, 1)


def quantum_line_lower_bound(k: int, diameter: int) -> float:
    """Ω(∛(kD²) + √k), disjointness on a line [MN20]."""
    d = max(diameter, 1)
    return (k * d * d) ** (1 / 3) + math.sqrt(k)
