"""E16 — the post-Lemma-25 remark: exact even-cycle detection.

Claims under test: C_k detection for k = 4, 6, 8, 10 at quantum cost
O(n^{1/2 − 1/(2k+2)}) — below the classical Ω̃(√n) [KR18] — with one-sided
error, on graphs with and without the target cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import ExperimentTable
from ..apps.even_cycles import (
    SUPPORTED_LENGTHS,
    classical_even_cycle_bound,
    detect_even_cycle,
    quantum_even_cycle_bound,
)
from ..congest import topologies
from ..congest.network import Network


@dataclass
class E16Result:
    table: ExperimentTable
    all_sound: bool
    quantum_below_classical: bool


def _instance_with_ck(n: int, k: int, seed: int) -> Network:
    """A sparse graph whose only cycle has length exactly k."""
    return topologies.planted_cycle(n, k, seed=seed)


def _instance_without_ck(n: int, k: int, seed: int) -> Network:
    """A tree plus one cycle of a different (odd) length: no C_k."""
    return topologies.planted_cycle(n, k + 1, seed=seed)


def run(quick: bool = True, seed: int = 0) -> E16Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    n = 120 if quick else 400
    trials = 6 if quick else 12
    table = ExperimentTable(
        "E16",
        "Exact even-cycle detection (post-Lemma-25 remark)",
        ["k", "instance", "hit-rate", "false positives",
         "quantum bound n^(1/2-1/(2k+2))", "classical bound sqrt(n)"],
    )
    all_sound = True
    below = True
    for k in SUPPORTED_LENGTHS:
        hits = 0
        for trial in range(trials):
            net = _instance_with_ck(n, k, seed + trial)
            res = detect_even_cycle(net, k, seed=seed + trial)
            all_sound &= res.sound
            hits += res.found
        false_pos = 0
        for trial in range(trials):
            net = _instance_without_ck(n, k, seed + 100 + trial)
            res = detect_even_cycle(net, k, seed=seed + trial)
            all_sound &= res.sound
            false_pos += res.found
        q_bound = quantum_even_cycle_bound(10**6, k)
        c_bound = classical_even_cycle_bound(10**6)
        below &= q_bound < c_bound
        table.add_row(
            k, f"planted C{k} / C{k+1}", hits / trials, false_pos,
            q_bound, c_bound,
        )
    table.add_note(
        "hit-rate on yes-instances must be ≥ 2/3; false positives must be 0 "
        "(one-sided error); bounds evaluated at n = 10^6"
    )
    return E16Result(
        table=table, all_sound=all_sound, quantum_below_classical=below
    )
