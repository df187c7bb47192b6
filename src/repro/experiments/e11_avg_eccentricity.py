"""E11 — Lemma 22: ε-additive average eccentricity in Õ(D^{3/2}/ε) rounds.

Claims under test: rounds grow like 1/ε at fixed D and like D^{3/2} at
fixed ε; estimates land within ε with probability ≥ 2/3; the estimator
beats exact diameter computation when n is large and D, 1/ε small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.eccentricity import (
    compute_diameter,
    estimate_average_eccentricity,
    quantum_avg_ecc_bound,
)
from ..congest import topologies
from ..core.framework import FrameworkConfig


@dataclass
class E11Result:
    table: ExperimentTable
    eps_exponent: float  # fitted rounds ~ ε^x; paper ≈ −1


def run(quick: bool = True, seed: int = 0) -> E11Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    trials = 5 if quick else 12
    table = ExperimentTable(
        "E11",
        "Average eccentricity (Lemma 22): rounds vs epsilon and D",
        ["n", "D", "epsilon", "rounds", "bound D^1.5/eps", "hit-rate"],
    )

    # ε sweep at fixed topology.
    net = topologies.diameter_controlled(200, 8, seed=seed)
    # One frozen base config per topology; trials swap only the seed.
    base = FrameworkConfig(parallelism=max(net.diameter, 1), seed=seed)
    eps_rounds: List[float] = []
    epsilons = [2.0, 1.0, 0.5, 0.25]
    for eps in epsilons:
        total, hits = 0.0, 0
        for trial in range(trials):
            res = estimate_average_eccentricity(
                net, eps, config=base.replace(seed=seed + trial)
            )
            total += res.rounds
            hits += res.error_against(net) <= eps
        table.add_row(net.n, net.diameter, eps, total / trials,
                      quantum_avg_ecc_bound(net.diameter, eps), hits / trials)
        eps_rounds.append(total / trials)
    fit = fit_power_law(epsilons, eps_rounds)
    table.add_note(
        f"fitted rounds ~ eps^{fit.exponent:.2f} (paper: eps^-1 · polylog), "
        f"R²={fit.r_squared:.3f}"
    )

    # D sweep at fixed ε.
    eps = 1.0
    for d in [4, 8, 16]:
        net_d = topologies.diameter_controlled(200, d, seed=seed + 1)
        base_d = FrameworkConfig(
            parallelism=max(net_d.diameter, 1), seed=seed
        )
        total, hits = 0.0, 0
        for trial in range(trials):
            res = estimate_average_eccentricity(
                net_d, eps, config=base_d.replace(seed=seed + trial)
            )
            total += res.rounds
            hits += res.error_against(net_d) <= eps
        table.add_row(net_d.n, net_d.diameter, eps, total / trials,
                      quantum_avg_ecc_bound(net_d.diameter, eps), hits / trials)
    table.add_note("last rows sweep D at eps=1; expect ~D^1.5 growth")

    # Comparison: cheaper than exact diameter on a large low-D graph.
    big = topologies.diameter_controlled(600, 4, seed=seed + 2)
    avg_rounds = estimate_average_eccentricity(big, 1.0, seed=seed).rounds
    diam_rounds = compute_diameter(big, seed=seed).rounds
    table.add_note(
        f"n=600, D=4: avg-ecc estimate {avg_rounds} rounds vs exact diameter "
        f"{diam_rounds} rounds"
    )
    return E11Result(table=table, eps_exponent=fit.exponent)
