"""E5 — Lemma 7: register distribution, pipelined vs naive.

Claims under test: pipelined streaming costs O(D + q/log n) rounds while
the naive scheme costs D·⌈q/log n⌉ — the additive-vs-multiplicative
separation, measured with real engine messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.report import ExperimentTable
from ..congest import topologies
from ..congest.algorithms.bfs import bfs_with_echo
from ..core.cost import CostModel
from ..core.state_transfer import distribute_register


@dataclass
class E05Result:
    table: ExperimentTable
    max_pipelined_ratio: float  # measured / (D + words) — should be O(1)


def run(quick: bool = True, seed: int = 0) -> E05Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    net = topologies.path(24 if quick else 48)
    tree = bfs_with_echo(net, 0)
    cm = CostModel.for_network(net)
    qs = [16, 64, 256, 1024] if quick else [16, 64, 256, 1024, 4096]

    table = ExperimentTable(
        "E5",
        "Lemma 7 register distribution: pipelined vs naive (measured rounds)",
        ["q bits", "pipelined", "bound D+q/B", "naive", "bound D*q/B"],
    )
    worst_ratio = 0.0
    rng = np.random.default_rng(seed)
    for q in qs:
        value = int.from_bytes(rng.bytes(q // 8 or 1), "big") % (1 << q)
        pipe = distribute_register(net, tree, value, q, pipelined=True)
        naive = distribute_register(net, tree, value, q, pipelined=False)
        bound_pipe = tree.eccentricity + pipe.chunks
        bound_naive = tree.eccentricity * pipe.chunks
        table.add_row(q, pipe.rounds, bound_pipe, naive.rounds, bound_naive)
        worst_ratio = max(worst_ratio, pipe.rounds / bound_pipe)
    table.add_note(
        "B here is the engine bandwidth (4 log n + tag bits); the paper's "
        "unit is log n, so chunk counts differ from q/log n by a constant"
    )
    return E05Result(table=table, max_pipelined_ratio=worst_ratio)
