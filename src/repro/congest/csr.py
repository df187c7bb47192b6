"""CSR adjacency: the column-major view of a :class:`Network`.

The engine's bulk loop (:mod:`repro.congest.vectorized`) executes whole
rounds as numpy array operations.  Its substrate is the standard
compressed-sparse-row adjacency: ``indices[indptr[v]:indptr[v+1]]`` are the
(sorted) neighbors of ``v``, and every *directed* edge ``v -> u`` has an
edge id ``e`` in that slice.  ``rev[e]`` is the id of the reverse edge
``u -> v``, which is how bulk programs answer "did the node I am about to
token also token me this round?" without per-node Python.

Building the arrays is O(n + m) but still a Python-level loop over the
adjacency dict, so each network builds them once, on first use of
:attr:`Network.csr <repro.congest.network.Network.csr>`; its graph is
frozen, so they never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable CSR arrays for one network topology.

    Attributes:
        n: node count.
        indptr: ``(n+1,)`` int64; node ``v``'s out-edges are ids
            ``indptr[v]..indptr[v+1]``.
        indices: ``(2m,)`` int64; ``indices[e]`` is the head (destination)
            of directed edge ``e``.  Per node, heads are sorted ascending
            (matching ``Network.neighbors``).
        src: ``(2m,)`` int64; ``src[e]`` is the tail of edge ``e``
            (the expanded row index — handy for per-edge gathers).
        rev: ``(2m,)`` int64; ``rev[e]`` is the edge id of the reverse
            directed edge, an involution (``rev[rev[e]] == e``).
        fingerprint: the topology fingerprint the arrays were built from.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    rev: np.ndarray
    fingerprint: str

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.shape[0])

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_id(self, u: int, v: int) -> int:
        """The directed edge id of ``u -> v`` (binary search per node)."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        e = lo + int(np.searchsorted(self.indices[lo:hi], v))
        if e >= hi or int(self.indices[e]) != v:
            raise KeyError(f"no edge {u}->{v}")
        return e


def _build_csr_complete(network: Network) -> CSRAdjacency:
    """CSR of a complete graph, fully vectorized (no Python edge loop).

    Every row is ``0..n-1`` minus the diagonal, so ``indices`` is a
    masked broadcast and ``rev`` is the closed form
    ``id(v→u) = v·(n−1) + (u − [u > v])`` — no lexsort over the 2m
    directed edges.  This is what makes CLIQUE benches usable at
    n ≥ 2·10³ (the generic path's per-node Python loop is O(n²) there).
    """
    n = network.n
    a = np.arange(n, dtype=np.int64)
    indptr = np.arange(n + 1, dtype=np.int64) * (n - 1)
    mat = np.broadcast_to(a, (n, n))
    indices = mat[~np.eye(n, dtype=bool)]
    src = np.repeat(a, n - 1)
    rev = indices * (n - 1) + src - (src > indices)
    return CSRAdjacency(
        n=n, indptr=indptr, indices=indices, src=src, rev=rev,
        fingerprint=network.topology_fingerprint(),
    )


def build_csr(network: Network) -> CSRAdjacency:
    """Build the CSR arrays from a network's adjacency (uncached)."""
    n = network.n
    if network.is_complete and n > 1:
        return _build_csr_complete(network)
    degrees = np.fromiter(
        (len(network.neighbors(v)) for v in range(n)), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    pos = 0
    for v in range(n):
        nbrs = network.neighbors(v)  # already sorted ascending
        indices[pos:pos + len(nbrs)] = nbrs
        pos += len(nbrs)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # rev[e]: position of (indices[e] -> src[e]).  Edge ids sorted by
    # (src, dst); the reverse edge's id is found by ranking the pairs
    # (dst, src) in that same order.
    order = np.lexsort((src, indices))  # sorts by (indices, src) = (dst, src)
    rev = np.empty(total, dtype=np.int64)
    rev[order] = np.arange(total, dtype=np.int64)
    return CSRAdjacency(
        n=n, indptr=indptr, indices=indices, src=src, rev=rev,
        fingerprint=network.topology_fingerprint(),
    )
