"""E9 — Theorems 17/18: distributed Deutsch–Jozsa, the exponential separation.

Claims under test: quantum rounds O(D·⌈log k/log n⌉) — essentially flat in
k — with zero error on every run, against the exact classical
Θ(k/log n + D) baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.deutsch_jozsa import quantum_round_bound, solve_distributed_dj
from ..baselines.streaming import classical_deutsch_jozsa
from ..congest import topologies


@dataclass
class E09Result:
    table: ExperimentTable
    quantum_k_exponent: float  # ≈ 0 expected
    classical_k_exponent: float  # ≈ 1 expected
    zero_error: bool


def _promise_inputs(net, k, rng, balanced):
    # Each node's draw becomes a list at once, except node 0's, which
    # takes the xor that makes the promise hold: only it and the xor are
    # held as arrays.
    inputs = {}
    xor = np.zeros(k, dtype=np.int64)
    for v in net.nodes():
        bits = rng.integers(0, 2, size=k)
        xor ^= bits
        inputs[v] = bits if v == 0 else bits.tolist()
    if balanced:
        xor[: k // 2] ^= 1
    xor ^= inputs[0]
    inputs[0] = xor.tolist()
    return inputs


def run(quick: bool = True, seed: int = 0) -> E09Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    distance = 6
    net = topologies.path_with_endpoints(distance)
    ks = [64, 512, 4096, 32768] if quick else [64, 512, 4096, 32768, 262144]
    trials = 6 if quick else 15

    table = ExperimentTable(
        "E9",
        "Distributed Deutsch–Jozsa (Thm 17/18): exact quantum vs exact classical",
        ["k", "quantum rounds", "bound D*ceil(logk/logn)", "classical rounds",
         "speedup", "errors"],
    )
    q_rounds: List[float] = []
    c_rounds: List[float] = []
    all_correct = True
    for k in ks:
        errors = 0
        q_last = c_last = 0
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            balanced = bool(trial % 2)
            inputs = _promise_inputs(net, k, rng, balanced)
            q = solve_distributed_dj(net, inputs, seed=seed + trial)
            errors += q.balanced != balanced
            c_answer, c_last = classical_deutsch_jozsa(net, inputs, seed=seed)
            errors += (not c_answer) != balanced
            q_last = q.rounds
        all_correct = all_correct and errors == 0
        table.add_row(
            k, q_last, quantum_round_bound(k, distance, net.n), c_last,
            c_last / q_last, errors,
        )
        q_rounds.append(q_last)
        c_rounds.append(c_last)

    q_fit = fit_power_law(ks, q_rounds)
    c_fit = fit_power_law(ks, c_rounds)
    table.add_note(
        f"quantum rounds ~ k^{q_fit.exponent:.2f} (≈0: only the word factor), "
        f"classical ~ k^{c_fit.exponent:.2f} (≈1) — exponential separation in "
        "round growth; both sides exact (zero errors column)"
    )
    return E09Result(
        table=table,
        quantum_k_exponent=q_fit.exponent,
        classical_k_exponent=c_fit.exponent,
        zero_error=all_correct,
    )
