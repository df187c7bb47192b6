"""Low-diameter, distance-separated clustering (substitute for EFFKO21 Thm 17).

The paper's Lemma 24 cites Eden, Fiat, Fischer, Kuhn, and Oshman: for any
d ≥ 2 one can compute, w.h.p. in O(d log² n) CONGEST rounds, clusters of
diameter O(d log n) covering every node, colored with O(log n) colors such
that same-color clusters are at pairwise distance ≥ d.

We substitute a Miller–Peng–Xu exponential-shift ball carving: every node u
draws δ_u ~ Exp(β) with β = 1/(2d) and joins the cluster of the center
minimizing dist(u, v) − δ_v (fractional tie-breaking keeps clusters
connected).  Cluster (strong) diameter is O(d log n) w.h.p.  Colors are
then assigned greedily on the cluster conflict graph (clusters within
distance < d conflict).  The construction is computed centrally and its
round cost charged at the cited O(d log² n) bound via
:meth:`repro.core.cost.CostModel.clustering_rounds`; unlike a citation,
every guarantee is *checked*: :func:`verify_clustering` asserts coverage,
connectivity, diameter, and separation, and tests/benchmarks measure the
realized color count (which directly multiplies the cycle-detection cost
in Lemma 25, so honesty is preserved even if greedy uses more than
O(log n) colors on an adversarial instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import networkx as nx
import numpy as np

from ..network import Network


@dataclass
class Clustering:
    """A colored clustering of a network."""

    d: int
    clusters: List[Set[int]]
    colors: List[int]
    cluster_of: Dict[int, int]
    #: Charged CONGEST rounds for building the clustering (formula mode).
    charged_rounds: int = 0

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def clusters_of_color(self, color: int) -> List[int]:
        return [i for i, c in enumerate(self.colors) if c == color]

    def max_cluster_diameter(self, network: Network) -> int:
        worst = 0
        for cluster in self.clusters:
            sub = network.graph.subgraph(cluster)
            if len(cluster) > 1:
                worst = max(worst, nx.diameter(sub))
        return worst


def _exponential_shift_partition(
    network: Network, beta: float, rng: np.random.Generator
) -> Dict[int, int]:
    """MPX ball carving: node -> center, via shifted multi-source Dijkstra."""
    n = network.n
    delta = rng.exponential(scale=1.0 / beta, size=n)
    # Fractional jitter keeps all shifted distances distinct so that every
    # cluster is connected (standard MPX tie-breaking).
    jitter = rng.uniform(0.0, 0.25, size=n)
    max_delta = float(delta.max())
    g = nx.Graph()
    g.add_edges_from(network.graph.edges())
    g.add_nodes_from(network.graph.nodes())
    virtual = n  # virtual super-source
    for u in range(n):
        g.add_edge(virtual, u, weight=max_delta - delta[u] + jitter[u] * 1e-9)
    for u, v in network.graph.edges():
        g[u][v]["weight"] = 1.0
    _, paths = nx.single_source_dijkstra(g, virtual, weight="weight")
    center_of: Dict[int, int] = {}
    for v in range(n):
        # The first hop after the virtual source is v's winning center.
        center_of[v] = paths[v][1]
    return center_of


def _color_clusters_greedy(
    network: Network, clusters: List[Set[int]], d: int
) -> List[int]:
    """Greedy coloring of the conflict graph (clusters closer than d)."""
    num = len(clusters)
    # Multi-source BFS from each cluster up to depth d-1 marks conflicts.
    conflicts: List[Set[int]] = [set() for _ in range(num)]
    node_cluster = {}
    for i, cluster in enumerate(clusters):
        for v in cluster:
            node_cluster[v] = i
    for i, cluster in enumerate(clusters):
        frontier = set(cluster)
        seen = set(cluster)
        for _ in range(d - 1):
            nxt = set()
            for v in frontier:
                for u in network.neighbors(v):
                    if u not in seen:
                        nxt.add(u)
                        seen.add(u)
            frontier = nxt
            if not frontier:
                break
        for v in seen:
            j = node_cluster[v]
            if j != i:
                conflicts[i].add(j)
                conflicts[j].add(i)
    colors = [-1] * num
    for i in sorted(range(num), key=lambda i: -len(conflicts[i])):
        taken = {colors[j] for j in conflicts[i] if colors[j] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[i] = color
    return colors


def build_clustering(
    network: Network,
    d: int,
    seed: Optional[int] = None,
) -> Clustering:
    """Build a d-separated low-diameter colored clustering (Lemma 24).

    Args:
        network: the graph to cluster.
        d: required pairwise distance between same-color clusters.
        seed: RNG seed for the exponential shifts.

    Returns:
        a verified :class:`Clustering`, with ``charged_rounds`` set to the
        cited O(d log² n) CONGEST cost.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    beta = 1.0 / (2.0 * d)
    center_of = _exponential_shift_partition(network, beta, rng)
    by_center: Dict[int, Set[int]] = {}
    for v, c in center_of.items():
        by_center.setdefault(c, set()).add(v)
    clusters = [by_center[c] for c in sorted(by_center)]
    colors = _color_clusters_greedy(network, clusters, d)
    cluster_of = {}
    for i, cluster in enumerate(clusters):
        for v in cluster:
            cluster_of[v] = i
    log_n = max(1, math.ceil(math.log2(max(network.n, 2))))
    charged = d * log_n * log_n
    return Clustering(
        d=d,
        clusters=clusters,
        colors=colors,
        cluster_of=cluster_of,
        charged_rounds=charged,
    )


def verify_clustering(network: Network, clustering: Clustering) -> None:
    """Assert the Lemma 24 interface guarantees; raise AssertionError if violated."""
    covered = set()
    for cluster in clustering.clusters:
        covered |= cluster
        sub = network.graph.subgraph(cluster)
        assert nx.is_connected(sub), "cluster is not connected"
    assert covered == set(network.nodes()), "clustering does not cover all nodes"

    d = clustering.d
    log_n = max(1, math.ceil(math.log2(max(network.n, 2))))
    max_diam = clustering.max_cluster_diameter(network)
    bound = max(8 * d * log_n, 8)
    assert max_diam <= bound, (
        f"cluster diameter {max_diam} exceeds O(d log n) bound {bound}"
    )

    # Same-color clusters must be at pairwise distance >= d.
    for color in range(clustering.num_colors):
        ids = clustering.clusters_of_color(color)
        for idx, i in enumerate(ids):
            if not clustering.clusters[i]:
                continue
            dist = _distance_to_set(network, clustering.clusters[i], limit=d)
            for j in ids[idx + 1 :]:
                closest = min(
                    (dist.get(v, d) for v in clustering.clusters[j]), default=d
                )
                assert closest >= d, (
                    f"same-color clusters {i},{j} at distance {closest} < {d}"
                )


def _distance_to_set(network: Network, sources: Set[int], limit: int) -> Dict[int, int]:
    """BFS distances from a node set, truncated at ``limit``."""
    dist = {v: 0 for v in sources}
    frontier = set(sources)
    level = 0
    while frontier and level < limit:
        level += 1
        nxt = set()
        for v in frontier:
            for u in network.neighbors(v):
                if u not in dist:
                    dist[u] = level
                    nxt.add(u)
        frontier = nxt
    return dist
