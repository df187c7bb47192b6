"""E12 — Lemmas 23–25: bounded-length cycle detection, quantum vs classical.

Claims under test: quantum rounds ~ (kn)^{1/2 − 1/(4⌈k/2⌉+2)} (sublinear-
in-√(kn) fit) against the classical sampling baseline ~ n^{1 − 1/Θ(k)};
the β balancing ablation; detection reliability ≥ 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.cycles import (
    balanced_beta,
    detect_cycle,
    detect_cycle_clustered,
    quantum_cycle_bound,
)
from ..baselines.cycles import classical_cycle_bound, detect_cycle_classical
from ..congest import topologies


@dataclass
class E12Result:
    table: ExperimentTable
    n_exponent: float  # fitted quantum rounds ~ n^x


def run(quick: bool = True, seed: int = 0) -> E12Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    k = 6
    girth = 5
    ns = [100, 200, 400] if quick else [100, 200, 400, 800]
    trials = 4 if quick else 8

    table = ExperimentTable(
        "E12",
        "Cycle detection (Lemma 23/25): quantum vs classical rounds",
        ["n", "k", "quantum rounds", "bound (kn)^(1/2-1/Θ(k))",
         "classical rounds", "hit-rate q", "hit-rate c"],
    )
    q_rounds: List[float] = []
    for n in ns:
        net = topologies.planted_cycle(n, girth, seed=seed)
        q_total, q_hits, c_total, c_hits = 0.0, 0, 0.0, 0
        for trial in range(trials):
            q = detect_cycle(net, k, seed=seed + trial)
            q_total += q.rounds
            q_hits += q.length == girth
            c = detect_cycle_classical(net, k, seed=seed + trial)
            c_total += c.rounds
            c_hits += c.length == girth
        table.add_row(
            n, k, q_total / trials, quantum_cycle_bound(n, k),
            c_total / trials, q_hits / trials, c_hits / trials,
        )
        q_rounds.append(q_total / trials)

    fit = fit_power_law(ns, q_rounds)
    table.add_note(
        f"fitted quantum rounds ~ n^{fit.exponent:.2f} "
        f"(bound exponent {0.5 - 1/(4*(k//2)+2):.3f}), R²={fit.r_squared:.3f}"
    )
    table.add_note(
        "bound comparison at n=10^6: quantum "
        f"{quantum_cycle_bound(10**6, k):.0f} vs classical "
        f"{classical_cycle_bound(10**6, k):.0f}"
    )

    # β ablation: the balanced choice vs off-balance settings.
    net = topologies.planted_cycle(200, girth, seed=seed + 5)
    beta_star = balanced_beta(net.n, net.diameter, k)
    costs = {}
    for factor, label in [(0.5, "β*/2"), (1.0, "β*"), (2.0, "2β*")]:
        beta = min(0.95, beta_star * factor)
        res = detect_cycle(net, k, seed=seed, beta=beta)
        costs[label] = res.rounds
    table.add_note(
        "β ablation at n=200: rounds for β*/2, β*, 2β* = "
        + ", ".join(f"{costs[label]}" for label in ["β*/2", "β*", "2β*"])
    )

    # Lemma 25 clustered variant sanity.
    res = detect_cycle_clustered(net, k, seed=seed)
    table.add_note(
        f"clustered (Lemma 25) on n=200: found length {res.length}, "
        f"{res.rounds} rounds ({res.detail.get('colors', '?')} colors)"
    )
    return E12Result(table=table, n_exponent=fit.exponent)
