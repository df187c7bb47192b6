"""E1 — Lemma 2: parallel Grover search scaling.

Claims under test:
* find-one uses b = O(⌈√(k/(tp))⌉) batches — halving exponent in p,
* find-all uses O(√(kt/p) + t),
* the paper's subset strategy beats the [Zal99; GR04] split strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..queries.grover import (
    expected_batches_all,
    expected_batches_one,
    find_all,
    find_one,
    find_one_split,
)
from ..queries.ledger import QueryLedger
from ..queries.oracle import StringOracle

IS_ONE = staticmethod(lambda v: v == 1)


@dataclass
class E01Result:
    table: ExperimentTable
    p_exponent: float  # fitted b ~ p^x; paper predicts x ≈ −1/2


def _avg_batches(k: int, t: int, p: int, trials: int, seed: int, split=False):
    total_batches = 0.0
    successes = 0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        values = [0] * k
        for i in rng.choice(k, size=t, replace=False):
            values[i] = 1
        oracle = StringOracle(values, QueryLedger(p))
        fn = find_one_split if split else find_one
        out = fn(oracle, lambda v: v == 1, rng)
        total_batches += out.batches_used
        successes += out.found
    return total_batches / trials, successes / trials


def run(quick: bool = True, seed: int = 0) -> E01Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    k = 2048 if quick else 8192
    t = 4
    ps = [1, 4, 16, 64] if quick else [1, 4, 16, 64, 256]
    trials = 12 if quick else 30

    table = ExperimentTable(
        "E1",
        "Parallel Grover (Lemma 2): batches vs parallelism",
        ["k", "t", "p", "measured b", "bound sqrt(k/(tp))", "success",
         "split-ablation b"],
    )
    measured: List[float] = []
    for p in ps:
        avg, rate = _avg_batches(k, t, p, trials, seed)
        split_avg, _ = _avg_batches(k, t, p, max(trials // 2, 4), seed, split=True)
        table.add_row(k, t, p, avg, expected_batches_one(k, t, p), rate, split_avg)
        measured.append(avg)

    fit = fit_power_law(ps, measured)
    table.add_note(
        f"fitted b ~ p^{fit.exponent:.2f} (paper: p^-0.5), R²={fit.r_squared:.3f}"
    )

    # find-all at one operating point.
    rng = np.random.default_rng(seed)
    values = [0] * k
    marked = set(int(i) for i in rng.choice(k, size=8, replace=False))
    for i in marked:
        values[i] = 1
    oracle = StringOracle(values, QueryLedger(32))
    found, batches = find_all(oracle, lambda v: v == 1, rng, unmarked_value=0)
    table.add_note(
        f"find-all: {len(found)}/8 found in {batches} batches "
        f"(bound {expected_batches_all(k, 8, 32):.1f})"
    )
    return E01Result(table=table, p_exponent=fit.exponent)
