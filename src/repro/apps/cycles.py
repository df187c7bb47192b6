"""Lemmas 23–25: detecting cycles of length at most k in Quantum CONGEST.

Two-phase algorithm following Censor-Hillel et al. [CFGGLO20], with the
quantum speedup in the heavy phase:

* **Light cycles** (all vertices of degree ≤ n^β): simultaneous classical
  BFS to depth ⌈k/2⌉ inside the low-degree subgraph; bounded degree keeps
  i-neighborhoods ≤ n^{iβ}, so all BFSs run together in
  O(k + n^{⌈k/2⌉β}) rounds [PRT12; HW12].
* **Heavy cycles** (some vertex of degree > n^β): the value of a sampled
  vertex s is the length of the smallest ≤k cycle through s or a neighbor
  of s (computable for p vertices in α(p) = O(p + k) rounds); a heavy
  cycle's high-degree vertex gives the minimum multiplicity ℓ ≥ n^β, so
  parallel minimum finding (Lemma 3) over Corollary 9 costs
  O(D + n^{(1−β)/2} p^{−1/2} (D + p + k)) rounds; p = Θ(D) and k ≤ 2D+1.

Balancing with β = (1 + log_n D)/(1 + 2⌈k/2⌉) yields Lemma 23's

    O(D + (Dn)^{1/2 − 1/(4⌈k/2⌉+2)}) rounds,

and the Lemma 24 clustering (d = 2k) removes the D dependence (Lemma 25):

    O((k + (kn)^{1/2 − 1/(4⌈k/2⌉+2)}) log² n).

Error model: one-sided — any reported cycle is real (its length is
verified); with probability ≤ 1/3 an existing cycle may be missed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import networkx as nx

from ..analysis.graphtruth import (
    cycle_value,
    light_subgraph,
    min_cycle_at_most,
)
from ..congest.algorithms.clustering import build_clustering
from ..congest.network import Network
from ..core.cost import CostModel
from ..core.framework import FrameworkConfig, ValueComputer, run_framework
from ..core.semigroup import min_semigroup
from ..queries import minimum as parallel_minimum


def balanced_beta(n: int, diameter: int, k: int) -> float:
    """β = (1 + log_n D)/(1 + 2⌈k/2⌉), clipped into (0, 1]."""
    n = max(n, 3)
    log_n_d = math.log(max(diameter, 1)) / math.log(n)
    beta = (1.0 + log_n_d) / (1.0 + 2.0 * math.ceil(k / 2))
    return min(max(beta, 1.0 / math.log2(n)), 1.0)


def quantum_cycle_bound(n: int, k: int) -> float:
    """Lemma 25: k + (kn)^{1/2 − 1/(4⌈k/2⌉+2)} (log factors dropped)."""
    exponent = 0.5 - 1.0 / (4 * math.ceil(k / 2) + 2)
    return k + (k * n) ** exponent


@dataclass
class CycleDetectionResult:
    """Outcome of a bounded-length cycle search."""

    length: Optional[int]
    rounds: int
    light_rounds: int
    heavy_rounds: int
    beta: float
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.length is not None


class CycleValueComputer(ValueComputer):
    """Corollary 9 computer for Lemma 23's heavy phase.

    x_s = smallest ≤k cycle length through s or a neighbor of s, else the
    k+1 sentinel.  Values computed centrally (the distributed procedure is
    the twin-BFS of [CFGGLO20]); α(p) charged at the paper's p + k bound
    plus the D drain of the result aggregation (see DESIGN.md §2).
    """

    def __init__(self, network: Network, k: int):
        self.network = network
        self.k = k
        self._cycle_cache: Dict[int, Optional[int]] = {}

    def compute(self, indices: Sequence[int]) -> Tuple[Dict[int, Dict[int, int]], int]:
        values = {
            s: {s: cycle_value(self.network.graph, s, self.k, self._cycle_cache)}
            for s in indices
        }
        return values, self.alpha(len(indices))

    def alpha(self, p: int) -> int:
        return p + self.k


def light_cycle_scan(
    network: Network, k: int, beta: float
) -> Tuple[Optional[int], int]:
    """Light phase: smallest ≤k cycle with all vertices of degree ≤ n^β.

    Returns (length or None, charged rounds = ⌈k/2⌉ + n^{⌈k/2⌉·β} capped
    at n, per the simultaneous bounded-degree BFS argument).
    """
    degree_cap = network.n ** beta
    sub = light_subgraph(network.graph, degree_cap)
    found = min_cycle_at_most(sub, k)
    depth = math.ceil(k / 2)
    congestion = min(float(network.n), network.n ** (depth * beta))
    rounds = depth + math.ceil(congestion)
    return found, rounds


def heavy_cycle_search(
    network: Network,
    k: int,
    beta: float,
    parallelism: Optional[int] = None,
    mode: str = "formula",
    seed: Optional[int] = None,
) -> Tuple[Optional[int], int]:
    """Heavy phase: parallel minimum finding over per-vertex cycle values.

    Returns (smallest ≤k cycle length through any vertex, or None; rounds).
    The multiplicity hint ℓ = ⌈n^β⌉ reflects that a heavy cycle's
    high-degree vertex puts ≥ n^β vertices at the minimum value.
    """
    p = parallelism if parallelism is not None else max(network.diameter, 1)
    sentinel = k + 1
    computer = CycleValueComputer(network, k)
    multiplicity = max(1, math.ceil(network.n ** beta))

    def algorithm(oracle, rng):
        return parallel_minimum.find_minimum(
            oracle, rng, multiplicity=multiplicity
        )

    run = run_framework(network, algorithm, config=FrameworkConfig(
        parallelism=p, computer=computer, k=network.n, mode=mode,
        seed=seed, semigroup=min_semigroup(sentinel),
    ))
    outcome = run.result
    length = outcome.value if outcome.value is not None and outcome.value <= k else None
    return length, run.total_rounds


def detect_cycle(
    network: Network,
    k: int,
    mode: str = "formula",
    seed: Optional[int] = None,
    beta: Optional[float] = None,
    parallelism: Optional[int] = None,
) -> CycleDetectionResult:
    """Lemma 23: find the smallest cycle of length ≤ k, w.p. ≥ 2/3.

    Args:
        network: the CONGEST network (the input graph itself).
        k: cycle length bound, k ≥ 3 (k ≥ 4 in the paper; k = 3 falls
            back to the heavy search over all vertices).
        beta: light/heavy degree threshold exponent; defaults to the
            paper's balanced choice.
        parallelism: p; defaults to Θ(D) per the paper.
    """
    if k < 3:
        raise ValueError("cycle length bound must be >= 3")
    # Cycles longer than 2D+1 cannot be the girth witness the paper seeks;
    # "we may set k ≤ 2D+1 without loss of generality".
    k_eff = min(k, 2 * max(network.diameter, 1) + 1)
    if beta is None:
        beta = balanced_beta(network.n, network.diameter, k_eff)

    light_len, light_rounds = light_cycle_scan(network, k_eff, beta)
    heavy_len, heavy_rounds = heavy_cycle_search(
        network, k_eff, beta, parallelism=parallelism, mode=mode, seed=seed
    )
    candidates = [l for l in (light_len, heavy_len) if l is not None]
    length = min(candidates) if candidates else None
    return CycleDetectionResult(
        length=length,
        rounds=light_rounds + heavy_rounds,
        light_rounds=light_rounds,
        heavy_rounds=heavy_rounds,
        beta=beta,
        detail={"light": light_rounds, "heavy": heavy_rounds},
    )


def detect_cycle_clustered(
    network: Network,
    k: int,
    mode: str = "formula",
    seed: Optional[int] = None,
) -> CycleDetectionResult:
    """Lemma 25: diameter-independent cycle detection via clustering.

    Builds the d = 2k separated clustering (Lemma 24), extends each
    cluster by a k-hop halo, and runs Lemma 23 on every halo subgraph;
    same-color clusters are ≥ 2k apart so their halos are disjoint and run
    in parallel — the charge per color is the *maximum* over its clusters,
    and colors run sequentially.
    """
    if k < 3:
        raise ValueError("cycle length bound must be >= 3")
    clustering = build_clustering(network, d=2 * k, seed=seed)
    cm = CostModel.for_network(network)
    total_rounds = clustering.charged_rounds
    log_n = max(1, math.ceil(math.log2(max(network.n, 2))))
    # Per-cluster leader election: O(k log² n), paper proof of Lemma 25.
    total_rounds += k * log_n * log_n

    best: Optional[int] = None
    light_total = heavy_total = 0
    for color in range(clustering.num_colors):
        color_max = 0
        for ci in clustering.clusters_of_color(color):
            halo = _halo_subgraph(network, clustering.clusters[ci], k)
            if halo.number_of_nodes() < 3 or halo.number_of_edges() < 3:
                continue
            sub_net = _subgraph_network(network, halo)
            if sub_net is None:
                continue
            sub_seed = None if seed is None else seed + 1000 * color + ci
            result = detect_cycle(sub_net, k, mode=mode, seed=sub_seed)
            color_max = max(color_max, result.rounds)
            light_total += result.light_rounds
            heavy_total += result.heavy_rounds
            if result.length is not None and (best is None or result.length < best):
                best = result.length
        total_rounds += color_max
    return CycleDetectionResult(
        length=best,
        rounds=total_rounds,
        light_rounds=light_total,
        heavy_rounds=heavy_total,
        beta=balanced_beta(network.n, 2 * k, k),
        detail={
            "clustering": clustering.charged_rounds,
            "colors": clustering.num_colors,
        },
    )


def _halo_subgraph(network: Network, cluster: set, k: int) -> nx.Graph:
    """The cluster plus everything within k hops of it."""
    seen = set(cluster)
    frontier = set(cluster)
    for _ in range(k):
        nxt = set()
        for v in frontier:
            for u in network.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
        frontier = nxt
        if not frontier:
            break
    return network.graph.subgraph(seen)


def _subgraph_network(network: Network, sub: nx.Graph) -> Optional[Network]:
    """Relabel a connected subgraph into its own Network, or None."""
    if sub.number_of_nodes() == 0:
        return None
    if not nx.is_connected(sub):
        # Halos are connected by construction (cluster + BFS halo), but a
        # defensive fallback keeps the largest component.
        comp = max(nx.connected_components(sub), key=len)
        sub = sub.subgraph(comp)
    mapping = {v: i for i, v in enumerate(sorted(sub.nodes()))}
    # Inherit the parent's communication model, pinning its *resolved*
    # bandwidth: CONGEST budgets are set by the global n, so a halo must
    # not re-derive a smaller cap from its own size.
    model = network.model
    if network.bandwidth is not None and getattr(model, "bandwidth", None) is None:
        model = dataclasses.replace(model, bandwidth=network.bandwidth)
    return Network(nx.relabel_nodes(sub, mapping), comm_model=model)
