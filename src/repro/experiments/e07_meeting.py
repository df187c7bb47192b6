"""E7 — Lemma 10/11: meeting scheduling, quantum vs classical.

Claims under test: quantum rounds Õ(√(kD) + D) (fitted √k growth) against
the classical Θ(k/log n + D) streaming baseline; crossover in k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.meeting import quantum_round_bound, schedule_meeting
from ..baselines.streaming import classical_meeting
from ..congest import topologies


@dataclass
class E07Result:
    table: ExperimentTable
    k_exponent: float  # fitted quantum rounds ~ k^x; paper ≈ 1/2
    crossover_k: Optional[int]


def _calendars(net, k, rng):
    """Each node is free in each of the k slots with probability 1/2."""
    return {v: rng.random(k) < 0.5 for v in net.nodes()}


def run(quick: bool = True, seed: int = 0) -> E07Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    distance = 6
    net = topologies.path_with_endpoints(distance)
    ks = [256, 1024, 4096, 16384] if quick else [256, 1024, 4096, 16384, 65536]
    trials = 5 if quick else 12

    table = ExperimentTable(
        "E7",
        "Meeting scheduling (Lemma 10): quantum vs classical rounds",
        ["k", "D", "quantum rounds", "bound sqrt(kD)+D", "classical rounds",
         "quantum wins", "accuracy"],
    )
    quantum_rounds: List[float] = []
    crossover = None
    for k in ks:
        q_total, correct = 0.0, 0
        c_rounds = None
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            cal = _calendars(net, k, rng)
            res = schedule_meeting(net, cal, seed=seed + trial)
            q_total += res.rounds
            correct += res.correct_against(cal)
            if c_rounds is None:
                c_rounds = classical_meeting(net, cal, seed=seed)[2]
        avg_q = q_total / trials
        wins = avg_q < c_rounds
        if wins and crossover is None:
            crossover = k
        table.add_row(
            k, distance, avg_q, quantum_round_bound(k, distance, net.n),
            c_rounds, wins, correct / trials,
        )
        quantum_rounds.append(avg_q)

    fit = fit_power_law(ks, quantum_rounds)
    table.add_note(
        f"fitted quantum rounds ~ k^{fit.exponent:.2f} (paper: k^0.5), "
        f"R²={fit.r_squared:.3f}; classical grows linearly in k"
    )

    # D sweep at fixed k: the √(kD) + D shape in the other variable.
    k = 4096
    for d in [2, 8, 32]:
        net_d = topologies.path_with_endpoints(d)
        rng = np.random.default_rng(seed)
        cal = _calendars(net_d, k, rng)
        res = schedule_meeting(net_d, cal, seed=seed)
        c_rounds = classical_meeting(net_d, cal, seed=seed)[2]
        table.add_row(k, d, res.rounds, quantum_round_bound(k, d, net_d.n),
                      c_rounds, res.rounds < c_rounds, 1.0)
    table.add_note("last rows sweep D at k=4096")
    return E07Result(table=table, k_exponent=fit.exponent, crossover_k=crossover)
