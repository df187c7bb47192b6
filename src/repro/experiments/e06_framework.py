"""E6 — Theorem 8 / Corollary 9: framework batch costs, engine vs formula.

Claims under test: per-batch cost (D + p)·⌈q/log n⌉ + p·⌈log k/log n⌉
matches engine-measured rounds within constants, and p = Θ(D) is the
per-query-efficiency sweet spot the applications rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.report import ExperimentTable
from ..congest import topologies
from ..core.cost import CostModel
from ..core.framework import DistributedInput, FrameworkConfig, run_framework
from ..core.semigroup import sum_semigroup


@dataclass
class E06Result:
    table: ExperimentTable
    max_engine_formula_ratio: float


def _batch_cost(net, config, p, mode):
    def algorithm(oracle, _rng):
        oracle.query_batch(list(range(p)), label="probe")
        return None

    run = run_framework(net, algorithm,
                        config=config.replace(parallelism=p, mode=mode))
    phases = run.rounds.by_phase()
    if mode == "formula":
        return phases["batch:probe"]
    return sum(v for key, v in phases.items() if not key.startswith("setup"))


def run(quick: bool = True, seed: int = 0) -> E06Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    net = topologies.grid(5, 5) if quick else topologies.grid(8, 8)
    d = net.diameter
    k = 64
    rng = np.random.default_rng(seed)
    vectors = {
        v: [int(rng.integers(0, 2)) for _ in range(k)] for v in net.nodes()
    }
    di = DistributedInput(vectors, sum_semigroup(net.n))
    base = FrameworkConfig(
        parallelism=1, dist_input=di, seed=seed, leader=0
    )
    cm = CostModel.for_network(net)

    table = ExperimentTable(
        "E6",
        "Theorem 8 batch cost: engine-measured vs formula; p sweep",
        ["p", "formula rounds", "engine rounds", "ratio", "rounds per query"],
    )
    worst = 0.0
    for p in [1, max(d // 2, 1), d, 2 * d, 4 * d]:
        p = min(p, k)
        formula = _batch_cost(net, base, p, "formula")
        engine = _batch_cost(net, base, p, "engine")
        ratio = engine / formula
        worst = max(worst, max(ratio, 1 / ratio))
        table.add_row(p, formula, engine, ratio, formula / p)
    table.add_note(
        f"D = {d}; per-query efficiency saturates once p reaches Θ(D) — "
        "the paper's choice p = D in Lemmas 10/12/21"
    )
    return E06Result(table=table, max_engine_formula_ratio=worst)
