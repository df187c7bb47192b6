"""E10 — Lemma 21: diameter and radius in O(√(nD)) rounds vs classical Θ(n).

Claims under test: quantum rounds grow like √n at fixed D (fit), beat the
all-sources-BFS classical baseline for large n, and stay correct w.p. ≥ 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.eccentricity import compute_diameter, compute_radius, quantum_diameter_bound
from ..baselines.diameter import classical_all_eccentricities
from ..congest import topologies
from ..core.framework import FrameworkConfig


@dataclass
class E10Result:
    table: ExperimentTable
    n_exponent: float  # fitted quantum rounds ~ n^x at fixed D; paper ≈ 1/2


def run(quick: bool = True, seed: int = 0) -> E10Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    diameter = 6
    ns = [100, 400, 1600] if quick else [100, 400, 1600, 6400]
    trials = 4 if quick else 10

    table = ExperimentTable(
        "E10",
        "Diameter/radius (Lemma 21): quantum O(sqrt(nD)) vs classical O(n)",
        ["n", "D", "quantum rounds", "bound sqrt(nD)", "classical rounds",
         "quantum wins", "diam acc", "radius acc"],
    )
    q_rounds: List[float] = []
    for n in ns:
        net = topologies.diameter_controlled(n, diameter, seed=seed)
        # One frozen base config per topology; trials swap only the seed.
        base = FrameworkConfig(
            parallelism=max(net.diameter, 1), seed=seed
        )
        q_total, diam_ok, rad_ok = 0.0, 0, 0
        for trial in range(trials):
            d_res = compute_diameter(
                net, config=base.replace(seed=seed + trial)
            )
            r_res = compute_radius(
                net, config=base.replace(seed=seed + 100 + trial)
            )
            q_total += d_res.rounds
            diam_ok += d_res.value == net.diameter
            rad_ok += r_res.value == net.radius
        classical = classical_all_eccentricities(net)
        avg_q = q_total / trials
        table.add_row(
            n, net.diameter, avg_q, quantum_diameter_bound(n, net.diameter),
            classical.rounds, avg_q < classical.rounds,
            diam_ok / trials, rad_ok / trials,
        )
        q_rounds.append(avg_q)

    fit = fit_power_law(ns, q_rounds)
    table.add_note(
        f"fitted quantum rounds ~ n^{fit.exponent:.2f} (paper: n^0.5), "
        f"R²={fit.r_squared:.3f}; classical baseline is 2n + 3D"
    )
    return E10Result(table=table, n_exponent=fit.exponent)
