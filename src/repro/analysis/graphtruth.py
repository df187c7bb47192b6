"""Ground-truth graph computations used by cycle/girth apps and tests.

These are centralized (non-CONGEST) reference computations: exact girth,
shortest cycle through a vertex, and the per-vertex cycle values that
Lemma 23's heavy-cycle search queries.  The CONGEST algorithms charge
their round costs separately; these routines provide the *values* (and
the correctness oracle for tests).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

import networkx as nx


def shortest_cycle_through(graph: nx.Graph, u, cap: Optional[int] = None) -> Optional[int]:
    """Length of the shortest cycle containing vertex ``u``; None if acyclic.

    For each neighbor w, removes the edge (u, w) and BFSes from u to w:
    the shortest alternative path plus the removed edge closes the
    shortest cycle using that edge.  ``cap`` prunes BFS depth (cycles
    longer than cap are reported as None).
    """
    best: Optional[int] = None
    neighbors = list(graph.neighbors(u))
    for w in neighbors:
        limit = (best - 2) if best is not None else (cap - 1 if cap else None)
        dist = _bfs_distance_avoiding_edge(graph, u, w, limit)
        if dist is not None:
            length = dist + 1
            if best is None or length < best:
                best = length
    if best is not None and cap is not None and best > cap:
        return None
    return best


def _bfs_distance_avoiding_edge(
    graph: nx.Graph, source, target, limit: Optional[int]
) -> Optional[int]:
    """BFS distance from source to target ignoring the edge (source, target)."""
    if source == target:
        return 0
    seen = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = seen[v]
        if limit is not None and d >= limit:
            continue
        for nbr in graph.neighbors(v):
            if v == source and nbr == target:
                continue  # the removed edge
            if nbr not in seen:
                seen[nbr] = d + 1
                if nbr == target:
                    return d + 1
                queue.append(nbr)
    return None


def girth(graph: nx.Graph) -> Optional[int]:
    """Exact girth via the classical per-vertex BFS scan; None if a forest.

    For every vertex v, a BFS that, upon scanning a non-tree edge (a, b),
    records dist(a) + dist(b) + 1.  The minimum over all vertices and
    edges is exactly the girth (standard O(nm) algorithm).
    """
    best: Optional[int] = None
    for v in graph.nodes():
        candidate = _bfs_cycle_scan(graph, v, best)
        if candidate is not None and (best is None or candidate < best):
            best = candidate
            if best == 3:
                return 3
    return best


def _bfs_cycle_scan(graph: nx.Graph, root, cutoff: Optional[int]) -> Optional[int]:
    dist = {root: 0}
    parent = {root: None}
    queue = deque([root])
    best: Optional[int] = None
    while queue:
        v = queue.popleft()
        if cutoff is not None and dist[v] * 2 + 1 >= cutoff:
            break
        for nbr in graph.neighbors(v):
            if nbr not in dist:
                dist[nbr] = dist[v] + 1
                parent[nbr] = v
                queue.append(nbr)
            elif parent[v] != nbr:
                candidate = dist[v] + dist[nbr] + 1
                if best is None or candidate < best:
                    best = candidate
    return best


def min_cycle_at_most(graph: nx.Graph, k: int) -> Optional[int]:
    """The smallest cycle length l ≤ k, or None if no such cycle exists."""
    g = girth(graph)
    if g is not None and g <= k:
        return g
    return None


def cycle_value(graph: nx.Graph, s, k: int, cache: Optional[Dict] = None) -> int:
    """Lemma 23's per-vertex query value.

    The length of the smallest cycle of length ≤ k containing s or one of
    its neighbors, or k + 1 (the ∞ sentinel) if there is none.
    """
    best = k + 1
    for u in [s, *graph.neighbors(s)]:
        if cache is not None and u in cache:
            length = cache[u]
        else:
            length = shortest_cycle_through(graph, u, cap=k)
            if cache is not None:
                cache[u] = length
        if length is not None and length <= k:
            best = min(best, length)
    return best


def light_subgraph(graph: nx.Graph, degree_cap: float) -> nx.Graph:
    """The induced subgraph on vertices of degree ≤ degree_cap."""
    keep = [v for v in graph.nodes() if graph.degree(v) <= degree_cap]
    return graph.subgraph(keep)

