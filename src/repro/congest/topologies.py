"""Topology generators used throughout the tests and benchmarks.

All generators return a :class:`~repro.congest.network.Network` with nodes
labelled ``0..n-1``.  Several of these are the exact gadget families used in
the paper's lower-bound arguments (paths with endpoints D apart, two stars
joined at the centers) and upper-bound sweeps (graphs with controlled
diameter, planted cycles, known girth).
"""

from __future__ import annotations

import itertools
from typing import Optional

import networkx as nx
import numpy as np

from .network import CompleteNetwork, Network


def path(n: int) -> Network:
    """A path on ``n`` nodes — diameter n-1, the canonical lower-bound gadget."""
    return Network(nx.path_graph(n))


def cycle(n: int) -> Network:
    """A cycle on ``n`` nodes — girth n, diameter floor(n/2)."""
    return Network(nx.cycle_graph(n))


def star(n: int) -> Network:
    """A star with center 0 and ``n-1`` leaves — diameter 2."""
    return Network(nx.star_graph(n - 1))


def complete(n: int, comm_model=None) -> Network:
    """The complete graph K_n — diameter 1.

    Returns a :class:`~repro.congest.network.CompleteNetwork`: closed-form
    adjacency/metrics instead of networkx's O(n²) object graph, and a CSR
    fast path, which is what makes CONGEST-CLIQUE benches usable at
    n ≥ 2·10³.  Observationally identical (fingerprint included) to the
    historical ``Network(nx.complete_graph(n))``.
    """
    return CompleteNetwork(n, comm_model=comm_model)


def clique(n: int) -> Network:
    """K_n under the CONGEST-CLIQUE model — the Izumi–Le Gall setting.

    Shorthand for ``complete(n, comm_model="congest-clique")``: every
    pair of nodes shares a logical O(log n)-bit link, and (the physical
    graph being complete) routing charges nothing extra.  For another
    per-pair cap, pass ``comm_model=CongestCliqueModel(bandwidth=b)`` to
    :func:`complete`.
    """
    return CompleteNetwork(n, comm_model="congest-clique")


def grid(rows: int, cols: int) -> Network:
    """A rows×cols grid — diameter rows+cols-2."""
    g = nx.grid_2d_graph(rows, cols)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return Network(nx.relabel_nodes(g, mapping))


def balanced_tree(branching: int, height: int) -> Network:
    """A perfect branching tree — acyclic, diameter 2·height."""
    return Network(nx.balanced_tree(branching, height))


def random_regular(n: int, degree: int, seed: Optional[int] = None) -> Network:
    """A connected random regular graph (resamples until connected)."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        g = nx.random_regular_graph(degree, n, seed=int(rng.integers(2**31)))
        if nx.is_connected(g):
            return Network(g)
    raise RuntimeError(f"could not sample a connected {degree}-regular graph on {n} nodes")


def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Network:
    """A connected G(n, p) sample (resamples until connected)."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
        if g.number_of_nodes() and nx.is_connected(g):
            return Network(g)
    raise RuntimeError(f"could not sample a connected G({n},{p})")


def lollipop(clique_size: int, tail_length: int) -> Network:
    """A clique with a path tail — small radius at the clique, large diameter."""
    return Network(nx.lollipop_graph(clique_size, tail_length))


def two_stars(leaves_a: int, leaves_b: int) -> Network:
    """Two stars joined by an edge between their centers.

    This is the Lemma 15 lower-bound gadget: players A and B simulate one
    star each, and all communication crosses the single center–center edge.
    Center of star A is node 0, center of star B is node 1; A's leaves come
    first.
    """
    g = nx.Graph()
    g.add_edge(0, 1)
    next_id = 2
    for _ in range(leaves_a):
        g.add_edge(0, next_id)
        next_id += 1
    for _ in range(leaves_b):
        g.add_edge(1, next_id)
        next_id += 1
    return Network(g)


def path_with_endpoints(distance: int) -> Network:
    """A path of the given hop ``distance`` between its two endpoints.

    The Lemma 11/13 and Theorem 18 gadget: inputs sit at nodes 0 and
    ``distance``; everything between is a relay.
    """
    return Network(nx.path_graph(distance + 1))


def diameter_controlled(n: int, diameter: int, seed: Optional[int] = None) -> Network:
    """A connected n-node graph whose diameter is close to the target.

    Built as a path backbone of length ``diameter`` with the remaining
    nodes attached in balanced dense clusters along it.  Used by benchmarks
    that sweep D independently of n (E7, E8, E10).
    """
    if diameter < 1:
        raise ValueError("diameter must be >= 1")
    if n < diameter + 1:
        raise ValueError(f"need n >= diameter+1, got n={n}, D={diameter}")
    g = nx.path_graph(diameter + 1)
    rng = np.random.default_rng(seed)
    backbone = list(range(diameter + 1))
    cluster_members = {anchor: [anchor] for anchor in backbone}
    for i, v in enumerate(range(diameter + 1, n)):
        # Attach each extra node into a dense cluster around one backbone
        # anchor; clusters stay within one hop of their anchor, so the
        # backbone path still realizes the diameter (±2).
        anchor = backbone[i % len(backbone)]
        g.add_edge(v, anchor)
        peer = cluster_members[anchor][int(rng.integers(0, len(cluster_members[anchor])))]
        if peer != anchor:
            g.add_edge(v, peer)
        cluster_members[anchor].append(v)
    return Network(g)


def planted_cycle(n: int, cycle_length: int, seed: Optional[int] = None) -> Network:
    """A sparse graph containing a (shortest) cycle of the given length.

    A cycle C_l on nodes ``0..l-1`` with the remaining nodes hung off it as
    trees, so the planted cycle is the unique cycle and hence the girth.
    """
    if cycle_length < 3 or cycle_length > n:
        raise ValueError("need 3 <= cycle_length <= n")
    g = nx.cycle_graph(cycle_length)
    rng = np.random.default_rng(seed)
    for v in range(cycle_length, n):
        g.add_edge(v, int(rng.integers(0, v)))
    return Network(g)


def known_girth(girth: int, copies: int = 1, tail: int = 0) -> Network:
    """A graph of exactly the given girth: ``copies`` cycles sharing a hub path.

    Cycles of length ``girth`` are chained by single edges; optional path
    ``tail`` stretches the diameter without adding cycles.
    """
    if girth < 3:
        raise ValueError("girth must be >= 3")
    g = nx.Graph()
    next_id = 0
    anchors = []
    for _ in range(copies):
        cyc = list(range(next_id, next_id + girth))
        next_id += girth
        g.add_edges_from(zip(cyc, cyc[1:] + cyc[:1], strict=True))
        anchors.append(cyc[0])
    # Consecutive pairs: the shifted copy is one shorter.
    for a, b in zip(anchors, anchors[1:], strict=False):
        g.add_edge(a, b)
    prev = anchors[-1]
    for _ in range(tail):
        g.add_edge(prev, next_id)
        prev = next_id
        next_id += 1
    mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Network(nx.relabel_nodes(g, mapping))


def petersen() -> Network:
    """The Petersen graph — girth 5, diameter 2, 3-regular.  A classic test case."""
    return Network(nx.petersen_graph())


def bipartite_incidence(k: int) -> Network:
    """Incidence graph of a k×k grid of points and lines — girth 8 family."""
    g = nx.Graph()
    for i, j in itertools.product(range(k), range(k)):
        point = i * k + j
        row_line = k * k + i
        col_line = k * k + k + j
        g.add_edge(point, row_line)
        g.add_edge(point, col_line)
    mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Network(nx.relabel_nodes(g, mapping))


def hypercube(dimension: int) -> Network:
    """The d-dimensional hypercube — n = 2^d, diameter d, log-degree."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    g = nx.hypercube_graph(dimension)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return Network(nx.relabel_nodes(g, mapping))


def torus(rows: int, cols: int) -> Network:
    """A rows×cols torus (wrap-around grid) — 4-regular, diameter ⌊r/2⌋+⌊c/2⌋."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows, cols >= 3")
    g = nx.grid_2d_graph(rows, cols, periodic=True)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return Network(nx.relabel_nodes(g, mapping))


def expander(n: int, seed: Optional[int] = None) -> Network:
    """A 3-regular expander-like graph — O(log n) diameter at constant degree.

    Sampled as a random 3-regular graph (a.a.s. an expander); resampled
    until connected.  The diameter-vs-size profile makes it the natural
    "small D, large n" family where the paper's √(nD) bounds shine.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4 for a 3-regular graph")
    return random_regular(n, 3, seed=seed)
