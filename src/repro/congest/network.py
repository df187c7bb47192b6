"""Network topology wrapper for the CONGEST model.

A :class:`Network` pins down everything the model needs about the
communication graph: the node set (integers ``0..n-1``), adjacency, the
per-edge per-round bandwidth in bits, and cached graph metrics (diameter,
eccentricities) used both by algorithms that are allowed to know them and
by tests/benchmarks that compare measured behaviour against theory.  As in
the paper's model, the graph is fixed: a network freezes it at
construction, so everything derived from it is computed once per object.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .encoding import bits_for_domain
from .errors import CongestError
from .models import (
    DEFAULT_LOG_FACTOR,
    DEFAULT_TAG_BITS,
    CommModel,
    resolve_model,
)

if TYPE_CHECKING:
    from .csr import CSRAdjacency

__all__ = [
    "Network",
    "CompleteNetwork",
    "DEFAULT_LOG_FACTOR",
    "DEFAULT_TAG_BITS",
]

#: Ground-truth eccentricities come from a bit-parallel BFS that gathers
#: one row of ``uint64`` frontier words per directed edge at every level;
#: sources are chunked (64 to a word) so that gather stays near this many
#: bytes.  At n = 2,048 and m = 4,061 a chunk is 32 words, every source.
_ECC_GATHER_BYTES = 2 << 20


class Network:
    """An n-node network over an undirected connected graph.

    The *physical* topology is always the given graph; the communication
    rules — who may message whom, how many bits fit per link per round —
    come from the attached :class:`~repro.congest.models.CommModel`.
    The default is the classical CONGEST model, byte-for-byte the
    behavior this class had before models existed.

    The graph is frozen at construction (``nx.freeze``, in place): the
    adjacency snapshot, :meth:`topology_fingerprint`, :attr:`csr` and the
    graph metrics are each computed once per object and never go stale.
    To study a variant topology, edit ``net.graph.copy()`` and build a new
    network from it.

    Args:
        graph: a connected undirected networkx graph whose nodes are the
            integers ``0..n-1`` (use :func:`repro.congest.topologies`
            generators, or :meth:`Network.from_edges`).  Frozen in place.
        comm_model: a :class:`~repro.congest.models.CommModel` instance or
            registered model name (``"congest"``, ``"congest-clique"``,
            ``"local"``).  Defaults to ``CongestModel()``:
            ``DEFAULT_LOG_FACTOR * ceil(log2 n) + DEFAULT_TAG_BITS`` bits
            per physical edge per round; pass
            ``CongestModel(bandwidth=b)`` for an explicit per-edge cap.
    """

    def __init__(self, graph: nx.Graph, comm_model: "CommModel | str | None" = None):
        if graph.number_of_nodes() == 0:
            raise CongestError("network must have at least one node")
        expected = set(range(graph.number_of_nodes()))
        if set(graph.nodes()) != expected:
            raise CongestError(
                "network nodes must be the integers 0..n-1; "
                "use Network.from_edges or repro.congest.topologies"
            )
        if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise CongestError("CONGEST networks must be connected")
        self.graph = nx.freeze(graph)
        self.n = graph.number_of_nodes()
        self.m = graph.number_of_edges()
        self.model: CommModel = resolve_model(comm_model)
        self.bandwidth: Optional[int] = self.model.resolve_bandwidth(self.n)
        if self.bandwidth is not None and self.bandwidth < 1:
            raise CongestError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )
        self._adj: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(graph.neighbors(v))) for v in range(self.n)
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[int, int]], comm_model: "CommModel | str | None" = None
    ) -> "Network":
        """Build a network from an edge list over integer nodes.

        Node labels are compacted to ``0..n-1`` preserving order.
        """
        g = nx.Graph()
        g.add_edges_from(edges)
        mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
        return Network(nx.relabel_nodes(g, mapping), comm_model=comm_model)

    #: Structural hint consumed by the CSR builder: ``True`` only on
    #: :class:`CompleteNetwork`, whose adjacency admits a closed-form
    #: (loop-free) CSR construction.
    is_complete = False

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Physical neighbors of ``v``, ascending (the graph's adjacency)."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Physical degree of ``v``."""
        return len(self._adj[v])

    def nodes(self) -> range:
        """The node ids, ``0..n-1``."""
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the *physical* edge ``{u, v}`` exists."""
        return self.graph.has_edge(u, v)

    def peers(self, v: int) -> Tuple[int, ...]:
        """The nodes ``v`` may message under the communication model.

        For CONGEST and LOCAL this is :meth:`neighbors` (same tuple
        object — no copy); for CONGEST-CLIQUE it is every other node.
        The engine builds node :class:`~repro.congest.program.Context`
        objects from this, not from the raw adjacency.
        """
        return self.model.peers(self, v)

    def admit(self, src: int, dst: int, bits: int) -> None:
        """Validate one message against the model's admission rules.

        Raises :class:`~repro.congest.errors.NotANeighbor` or
        :class:`~repro.congest.errors.MessageTooLargeError`; returns
        None when the message is admissible.
        """
        self.model.admit(self, src, dst, bits)

    # ------------------------------------------------------------------
    # cached graph metrics (ground truth for tests and cost models)
    # ------------------------------------------------------------------

    @cached_property
    def eccentricities(self) -> Dict[int, int]:
        """True eccentricity of every node (ground truth, not CONGEST).

        A level-synchronous BFS from a chunk of sources at once over the
        cached CSR adjacency, one bit per source: each level ORs every
        node's neighbors' frontier words together and keeps the bits the
        node had not seen, and a source's eccentricity is the last level
        at which one of its bits was new.  numpy only — scipy's sparse
        graph routines would add tens of MiB to every process that reads
        a diameter (DESIGN §6h).
        """
        if self.n == 1:
            return {0: 0}
        csr = self.csr
        n = self.n
        # Connected with n > 1, so every node has an edge: no empty
        # segment, which reduceat would not reduce to zero.
        starts = csr.indptr[:-1]
        chunk = 64 * max(1, _ECC_GATHER_BYTES // (8 * csr.num_directed_edges))
        ecc = np.zeros(n, dtype=np.int64)
        for lo in range(0, n, chunk):
            sources = np.arange(lo, min(n, lo + chunk))
            word = (sources - lo) // 64
            shift = ((sources - lo) % 64).astype(np.uint64)
            frontier = np.zeros((n, int(word[-1]) + 1), dtype=np.uint64)
            frontier[sources, word] = np.uint64(1) << shift
            unseen = ~frontier
            level = 0
            while True:
                reached = np.bitwise_or.reduceat(
                    frontier[csr.indices], starts, axis=0
                )
                reached &= unseen  # in place: the next frontier
                new = np.bitwise_or.reduce(reached, axis=0)
                if not new.any():
                    break
                level += 1
                unseen ^= reached  # reached is a subset of unseen
                frontier = reached
                hit = (new[word] >> shift) & np.uint64(1)
                ecc[sources[hit != 0]] = level
        return dict(enumerate(ecc.tolist()))

    @cached_property
    def diameter(self) -> int:
        return max(self.eccentricities.values()) if self.n > 1 else 0

    @cached_property
    def radius(self) -> int:
        return min(self.eccentricities.values()) if self.n > 1 else 0

    @cached_property
    def average_eccentricity(self) -> float:
        return sum(self.eccentricities.values()) / self.n

    def distances_from(self, source: int) -> Dict[int, int]:
        """Ground-truth BFS distances from ``source``."""
        self._check_source(source)
        return dict(nx.single_source_shortest_path_length(self.graph, source))

    def _check_source(self, source: int) -> None:
        if not 0 <= source < self.n:
            raise CongestError(f"source {source} out of range [0, {self.n})")

    def topology_fingerprint(self) -> str:
        """Content hash of the structure: node count, bandwidth, edge set.

        Two networks with the same structure hash identically regardless
        of object identity, so :func:`repro.core.framework.prepare_network`
        shares one setup phase between them, and the :mod:`repro.sched`
        result memo uses it as part of its content address.  Hashed once
        per object: the graph is frozen.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"n={self.n};bw={self.bandwidth};".encode())
        # Non-default communication models contribute a token so the
        # same physical graph under two models never shares prepared
        # state, transfer tree shapes, or memo addresses.  The default CONGEST
        # model contributes nothing, keeping pre-model fingerprints
        # byte-identical (they key persisted memo/checkpoint state).
        if self.model.event_token:
            h.update(f"model={self.model.cache_key};".encode())
        for u, higher in self._sorted_edges():
            h.update("".join(f"{u},{v};" for v in higher).encode())
        return h.hexdigest()

    def _sorted_edges(self) -> Iterator[Tuple[int, Sequence[int]]]:
        """The edge set in fingerprint order: each ``u`` with its ``v >= u``."""
        for u, nbrs in self._adj.items():
            yield u, nbrs[bisect.bisect_left(nbrs, u):]

    @cached_property
    def csr(self) -> "CSRAdjacency":
        """The CSR adjacency arrays the bulk loop runs on, built once."""
        from .csr import build_csr  # csr.py imports this module

        return build_csr(self)

    @cached_property
    def log_n_bits(self) -> int:
        """``ceil(log2 n)`` — the unit in which the paper counts bandwidth."""
        return bits_for_domain(max(self.n, 2))

    def words(self, bits: int) -> int:
        """Number of CONGEST rounds needed to push ``bits`` over one edge.

        This is the ``ceil(q / log n)`` factor appearing throughout the
        paper, evaluated against this network's actual bandwidth.  Under
        an unbounded model (LOCAL) every transfer fits in one round.
        """
        if self.bandwidth is None:
            return 1
        return max(1, math.ceil(bits / self.bandwidth))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        model = f", model={self.model.name}" if self.model.event_token else ""
        return (
            f"Network(n={self.n}, m={self.m}, "
            f"bandwidth={self.bandwidth} bits{model})"
        )


class CompleteNetwork(Network):
    """K_n without the O(n²) networkx object graph.

    ``topologies.complete`` used to build ``nx.complete_graph(n)`` and
    eagerly materialize every node's neighbor tuple — tens of millions
    of Python objects at n ≥ 2·10³, which made CONGEST-CLIQUE benches
    unusable.  A complete graph's structure is fully determined by
    ``n``, so this subclass answers every :class:`Network` query in
    closed form and materializes per-node tuples (and the networkx
    graph, for the few callers that want one) lazily.

    Behavioral contract: observationally identical to
    ``Network(nx.complete_graph(n), ...)`` — same neighbors, degrees,
    metrics, and a byte-identical :meth:`topology_fingerprint` — so
    fast-built and nx-built K_n share prepared setup and memo entries.
    """

    is_complete = True

    def __init__(self, n: int, comm_model: "CommModel | str | None" = None):
        if n < 1:
            raise CongestError("network must have at least one node")
        self.n = n
        self.m = n * (n - 1) // 2
        self.model = resolve_model(comm_model)
        self.bandwidth = self.model.resolve_bandwidth(n)
        if self.bandwidth is not None and self.bandwidth < 1:
            raise CongestError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )
        self._adj_lazy: Dict[int, Tuple[int, ...]] = {}

    @cached_property
    def graph(self) -> nx.Graph:
        """The (frozen) networkx view, materialized only if asked for."""
        return nx.freeze(nx.complete_graph(self.n))

    @property
    def _adj(self) -> Dict[int, Tuple[int, ...]]:
        """Whole-adjacency view (forces every node's tuple; rarely used)."""
        for v in range(self.n):
            if v not in self._adj_lazy:
                self.neighbors(v)
        return self._adj_lazy

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Every other node, ascending; built once per node on demand."""
        nbrs = self._adj_lazy.get(v)
        if nbrs is None:
            if not 0 <= v < self.n:
                raise KeyError(v)
            nbrs = tuple(range(v)) + tuple(range(v + 1, self.n))
            self._adj_lazy[v] = nbrs
        return nbrs

    def degree(self, v: int) -> int:
        """n-1, in closed form."""
        if not 0 <= v < self.n:
            raise KeyError(v)
        return self.n - 1

    def has_edge(self, u: int, v: int) -> bool:
        """Every distinct in-range pair is an edge of K_n."""
        return u != v and 0 <= u < self.n and 0 <= v < self.n

    @cached_property
    def eccentricities(self) -> Dict[int, int]:
        """All 1 (all 0 for the single-node graph), in closed form."""
        if self.n == 1:
            return {0: 0}
        return {v: 1 for v in range(self.n)}

    def distances_from(self, source: int) -> Dict[int, int]:
        """Everything is one hop away, in closed form."""
        self._check_source(source)
        dist = {v: 1 for v in range(self.n)}
        dist[source] = 0
        return dist

    def _sorted_edges(self) -> Iterator[Tuple[int, Sequence[int]]]:
        """The nx-built K_n's fingerprint order, without its tuples."""
        for u in range(self.n):
            yield u, range(u + 1, self.n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        model = f", model={self.model.name}" if self.model.event_token else ""
        return (
            f"CompleteNetwork(n={self.n}, "
            f"bandwidth={self.bandwidth} bits{model})"
        )
