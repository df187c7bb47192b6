"""Corollary 26: girth computation in Quantum CONGEST.

Geometric search over cycle length bounds: first a quantum triangle check
(Õ(n^{1/5}) rounds, cited from [CFGLO22] and charged per DESIGN.md §2),
then Lemma 25 cycle detection at k = 4, 4(1+μ), 4(1+μ)², ... until a cycle
is found.  One-sided error keeps the output sound: a reported girth is the
length of a real cycle, so the only failure mode is overshooting, with
probability ≤ 1/3 overall.

Total: O((1/μ)·(g + (gn)^{1/2 − 1/(4⌈g(1+μ)/2⌉+2)})·log² n) rounds,
beating the classical Ω(√n) lower bound of [FHW12] for small g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.graphtruth import girth as true_girth
from ..congest.network import Network
from ..core.cost import CostModel
from .cycles import detect_cycle_clustered
from .triangles import find_triangle_truth


@dataclass
class GirthResult:
    girth: Optional[int]
    rounds: int
    iterations: int
    ks_tried: List[int] = field(default_factory=list)
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def is_acyclic(self) -> bool:
        return self.girth is None


def quantum_girth_bound(n: int, g: int, mu: float = 1.0) -> float:
    """Corollary 26's bound with hidden constants and log factors dropped."""
    exponent = 0.5 - 1.0 / (4 * math.ceil(g * (1 + mu) / 2) + 2)
    return (g + (g * n) ** exponent) / mu


def _has_triangle(network: Network) -> bool:
    return find_triangle_truth(network.graph) is not None


def compute_girth(
    network: Network,
    mu: float = 1.0,
    mode: str = "formula",
    seed: Optional[int] = None,
    max_k: Optional[int] = None,
) -> GirthResult:
    """Compute the girth with probability ≥ 2/3 (Corollary 26).

    Args:
        network: the input graph.
        mu: geometric growth parameter (0 < μ ≤ 1); smaller μ tightens the
            length bound at more iterations.
        max_k: optional cap on the search (defaults to n, which always
            terminates: an n-node graph has no cycle longer than n).
    """
    if not 0 < mu <= 1:
        raise ValueError("mu must be in (0, 1]")
    cm = CostModel.for_network(network)
    rounds = 0
    ks: List[int] = []
    detail: Dict[str, int] = {}

    # Triangle phase: Õ(n^{1/5}) quantum triangle finding [CFGLO22],
    # executed classically and charged at the cited bound.
    rounds += cm.quantum_triangle_rounds()
    detail["triangle-check"] = cm.quantum_triangle_rounds()
    if _has_triangle(network):
        return GirthResult(girth=3, rounds=rounds, iterations=1, ks_tried=[3], detail=detail)

    limit = max_k if max_k is not None else network.n
    k = 4.0
    iterations = 1
    while True:
        k_int = min(int(math.floor(k)), limit)
        ks.append(k_int)
        result = detect_cycle_clustered(network, k_int, mode=mode, seed=seed)
        rounds += result.rounds
        iterations += 1
        if result.length is not None:
            detail["cycle-phase"] = rounds - detail["triangle-check"]
            return GirthResult(
                girth=result.length,
                rounds=rounds,
                iterations=iterations,
                ks_tried=ks,
                detail=detail,
            )
        if k_int >= limit:
            detail["cycle-phase"] = rounds - detail["triangle-check"]
            return GirthResult(
                girth=None,
                rounds=rounds,
                iterations=iterations,
                ks_tried=ks,
                detail=detail,
            )
        k *= 1 + mu


def verify_girth(network: Network, result: GirthResult) -> bool:
    """One-sided soundness check: the reported girth matches ground truth,
    or (error branch) overshoots it; never undershoots."""
    truth = true_girth(network.graph)
    if truth is None:
        return result.girth is None
    if result.girth is None:
        return False
    return result.girth >= truth
