"""CSR adjacency: the column-major view of a :class:`Network`.

The engine's bulk loop (:mod:`repro.congest.vectorized`) executes whole
rounds as numpy array operations.  Its substrate is the standard
compressed-sparse-row adjacency: ``indices[indptr[v]:indptr[v+1]]`` are the
(sorted) neighbors of ``v``, and every *directed* edge ``v -> u`` has an
edge id ``e`` in that slice.  ``rev[e]`` is the id of the reverse edge
``u -> v``, which is how bulk programs answer "did the node I am about to
token also token me this round?" without per-node Python.

Building the arrays is O(n + m) but still a Python-level loop over the
adjacency dict, so it is cached two ways:

* a :class:`weakref.WeakKeyDictionary` keyed by the ``Network`` *object*
  (the engine fast path: repeated runs on one network pay a dict lookup),
  guarded by a cheap ``(n, m, bandwidth)`` recheck, and
* a bounded LRU keyed by the **topology fingerprint** (distinct Network
  objects with identical edge sets share one build — the same keying the
  :class:`~repro.core.framework.PreparedCache` uses; its
  :meth:`~repro.core.framework.PreparedCache.invalidate` drops the
  matching CSR entries too).

The weak fast path deliberately does not recompute the fingerprint (that
walk is as expensive as the build it would save); an in-place graph
mutation that preserves ``n``, ``m`` *and* ``bandwidth`` is therefore not
detected here — it is detected by the
:class:`~repro.core.framework.StalePreparedNetworkError` tripwire the
first time the mutated network goes through ``prepare_network``, which is
the documented mutation contract (DESIGN.md §6h).  Mutations that change
the edge *count* miss the weak entry and rebuild correctly.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .network import Network

#: Default entry bound of the fingerprint-keyed LRU.  CSR arrays are
#: O(n + m) ints; a daemon cycling through topologies keeps the hottest
#: few dozen without growing without bound.
DEFAULT_CSR_CACHE_ENTRIES = 64


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


def _build_csr_complete(
    network: Network, fingerprint: Optional[str]
) -> CSRAdjacency:
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
    if fingerprint is None:
        fingerprint = network.topology_fingerprint()
    return CSRAdjacency(
        n=n, indptr=indptr, indices=indices, src=src, rev=rev,
        fingerprint=fingerprint,
    )


def build_csr(network: Network, fingerprint: Optional[str] = None) -> CSRAdjacency:
    """Build the CSR arrays from a network's adjacency (uncached)."""
    n = network.n
    if getattr(network, "is_complete", False) and n > 1:
        return _build_csr_complete(network, fingerprint)
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
    if fingerprint is None:
        fingerprint = network.topology_fingerprint()
    return CSRAdjacency(
        n=n, indptr=indptr, indices=indices, src=src, rev=rev,
        fingerprint=fingerprint,
    )


class CSRCache:
    """Two-level CSR cache: weak per-object fast path + fingerprint LRU."""

    def __init__(self, max_entries: Optional[int] = DEFAULT_CSR_CACHE_ENTRIES):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when set")
        self.max_entries = max_entries
        #: network object -> (n, m, bandwidth, model_key, csr); the
        #: cheap-recheck keys catch any in-place mutation that changes
        #: the edge count *and* any communication-model swap — two
        #: models over the same graph must never share a CSR entry
        #: (their fingerprints differ, so the LRU already separates
        #: them; the model key keeps the object fast path honest too).
        self._weak: "weakref.WeakKeyDictionary[Network, Tuple]" = (
            weakref.WeakKeyDictionary()
        )
        self._lru: "OrderedDict[str, CSRAdjacency]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, network: Network) -> CSRAdjacency:
        """The CSR for ``network``, building (and caching) on miss."""
        entry = self._weak.get(network)
        if entry is not None:
            n, m, bw, model_key, csr = entry
            if (n, m, bw, model_key) == (
                network.n, network.m, network.bandwidth,
                network.model.cache_key,
            ):
                self.hits += 1
                return csr
            # In-place mutation changed the shape (or the model was
            # swapped): drop the stale entry.
            del self._weak[network]
        fingerprint = network.topology_fingerprint()
        csr = self._lru.get(fingerprint)
        if csr is not None:
            self._lru.move_to_end(fingerprint)
            self.hits += 1
        else:
            self.misses += 1
            csr = build_csr(network, fingerprint=fingerprint)
            self._lru[fingerprint] = csr
            if self.max_entries is not None and len(self._lru) > self.max_entries:
                self._lru.popitem(last=False)
                self.evictions += 1
        self._weak[network] = (
            network.n, network.m, network.bandwidth,
            network.model.cache_key, csr,
        )
        return csr

    def invalidate(self, network: Optional[Network] = None) -> None:
        """Drop cached CSR state — for one network, or all of it."""
        if network is None:
            self._weak = weakref.WeakKeyDictionary()
            self._lru.clear()
            return
        entry = self._weak.pop(network, None)
        if entry is not None:
            self._lru.pop(entry[-1].fingerprint, None)
        self._lru.pop(network.topology_fingerprint(), None)

    def stats(self) -> Dict[str, Optional[int]]:
        return {
            "entries": len(self._lru),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide CSR cache behind :func:`csr_for`.
_CSR_CACHE = CSRCache()


def csr_for(network: Network) -> CSRAdjacency:
    """The (cached) CSR adjacency of ``network``."""
    return _CSR_CACHE.get(network)


def invalidate_csr(network: Optional[Network] = None) -> None:
    """Drop cached CSR state — for one network, or all of them."""
    _CSR_CACHE.invalidate(network)


def csr_cache_stats() -> Dict[str, Optional[int]]:
    """Hit/miss/eviction counters of the process-wide CSR cache."""
    return _CSR_CACHE.stats()

