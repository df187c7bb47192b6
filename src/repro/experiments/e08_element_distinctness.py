"""E8 — Lemmas 12–15: distributed element distinctness, quantum vs classical.

Claims under test: quantum Õ(k^{2/3}D^{1/3} + D) (fitted k^{2/3} growth)
against the classical Θ(k·⌈log N/log n⌉ + D) streaming baseline; plus the
Corollary 14 between-nodes variant on the two-star gadget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.element_distinctness import (
    distinctness_between_nodes,
    distinctness_distributed_vector,
    quantum_round_bound_vector,
)
from ..baselines.streaming import classical_element_distinctness
from ..congest import topologies


@dataclass
class E08Result:
    table: ExperimentTable
    k_exponent: float  # fitted quantum rounds ~ k^x; paper ≈ 2/3


MAX_VALUE = 10**6


def _planted(net, k, rng):
    base = rng.choice(MAX_VALUE - 1, size=k, replace=False)
    i, j = rng.choice(k, size=2, replace=False)
    base[j] = base[i]
    owners = rng.integers(0, net.n, size=k)
    return {v: np.where(owners == v, base, 0).tolist() for v in net.nodes()}


def run(quick: bool = True, seed: int = 0) -> E08Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    distance = 4
    net = topologies.path_with_endpoints(distance)
    ks = [512, 2048, 8192] if quick else [512, 2048, 8192, 32768]
    trials = 4 if quick else 10

    table = ExperimentTable(
        "E8",
        "Element distinctness (Lemma 12): quantum vs classical rounds",
        ["k", "D", "quantum rounds", "bound", "classical rounds",
         "quantum wins", "found rate"],
    )
    quantum_rounds: List[float] = []
    for k in ks:
        q_total, found = 0.0, 0
        c_rounds = None
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            vectors = _planted(net, k, rng)
            res = distinctness_distributed_vector(
                net, vectors, MAX_VALUE, seed=seed + trial
            )
            q_total += res.rounds
            found += res.pair is not None
            if c_rounds is None:
                _, c_rounds = classical_element_distinctness(
                    net, vectors, MAX_VALUE, seed=seed
                )
        avg_q = q_total / trials
        table.add_row(
            k, distance, avg_q,
            quantum_round_bound_vector(k, distance, net.n, MAX_VALUE),
            c_rounds, avg_q < c_rounds, found / trials,
        )
        quantum_rounds.append(avg_q)

    fit = fit_power_law(ks, quantum_rounds)
    table.add_note(
        f"fitted quantum rounds ~ k^{fit.exponent:.2f} (paper: k^(2/3)), "
        f"R²={fit.r_squared:.3f}"
    )

    # Corollary 14 between-nodes on the two-star Lemma 15 gadget.
    star = topologies.two_stars(12, 12)
    values = {v: 1000 + v for v in star.nodes()}
    values[5] = values[20]
    found = 0
    for trial in range(trials):
        res = distinctness_between_nodes(star, values, 2000, seed=seed + trial)
        found += res.pair is not None
    table.add_note(
        f"Corollary 14 on the two-star gadget (n={star.n}): planted "
        f"duplicate found in {found}/{trials} runs"
    )
    return E08Result(table=table, k_exponent=fit.exponent)
