"""Scaling-law fits for the experiment harness.

The paper's results are Θ-bounds; EXPERIMENTS.md reproduces them by
fitting measured round/batch counts against the predicted power laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class PowerLawFit:
    """y ≈ coefficient · x^exponent, fitted on log–log axes."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.coefficient * x ** self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of log y against log x.

    Raises:
        ValueError: on fewer than two points or non-positive data.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need at least two matching (x, y) points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fits need positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(
        exponent=float(slope), coefficient=float(math.exp(intercept)), r_squared=r2
    )

