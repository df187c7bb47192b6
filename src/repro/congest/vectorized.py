"""Column-major bulk execution of structured node programs.

The engine's bulk loop, which it tries first on every run, dispatches
whole rounds as numpy array operations instead of one Python call per
node: a :class:`VectorizedProgram` holds the *entire network's* program
state as arrays indexed by node (and by directed edge, via the
:class:`~repro.congest.csr.CSRAdjacency`), and ``step_all`` advances every
node one synchronous round at once.

The per-node path stays the bit-identity oracle (the same hypothesis
pinning PR 2 used for gate kernels): a vectorized run must produce
identical rounds, per-node outputs, traffic statistics, and trace events
to the per-node loop and to the textbook reference loop.  Ports therefore
replicate the node programs' semantics exactly — including which round a
node halts in and the engine's canonical ``(program order, dst)`` message
ordering — rather than merely computing the same final answer.

Messages here live on directed edges: every supported program sends at
most one message per edge per round (the CONGEST discipline the per-node
engine enforces via ``DuplicateSend``), so a round's traffic is an
:class:`EdgeMessages` — an array of directed-edge ids plus one column per
payload field, mirroring the per-node programs' payloads: a bare
``Field`` (the max-id flood) or a ``(Field, Field)`` pair (every other
port).  Each port keeps its Field domains, one or two of them: they fix
the payload arity and ``bits_per_message``, and
:meth:`VectorizedProgram.check_domains` holds every round's outgoing
columns to them, raising the error ``Field`` raises on the per-node path.

The pipelined tree transfers are not stepped at all.  Which node sends
which coordinate in which round depends only on the BFS tree and the
vector length (a node of height ``h`` sends coordinate ``i`` up in
round ``h + i``, a node of depth ``d`` forwards it down in round
``d + i``), so each tree's send schedule, a preorder of it, and per
vector length each round's message count are computed once and cached
per (topology, parent array).  What is sent is fixed before round 0
too: a node's upcast payload for coordinate ``i`` is its subtree's fold
at ``i`` (for a sum or an xor, a difference of two prefix folds over
the preorder), and every downcast message carries the root's value.
So a transfer's port computes all its payloads when it is built and
checks them against the domain once, and the engine runs it from the
cached counts, one round per step with no array work: it gathers a
round's messages only when it records them, or in the round that sends
an out-of-domain value, where the error is raised.  The transfers reach
the bulk loop only as arrays (``Upcast``/``Downcast`` from
:mod:`repro.congest.algorithms.aggregate`), which go straight to their
port; a dict of their per-node programs is not audited and runs per
node.

Program dicts vectorize only for three audited families: BFS-with-echo,
multi-source BFS and the max-id flood of leader election.  The audit
matches exact program types, so a subclass
(``BoundedMaxIdFloodProgram``, for one) is not audited.
:func:`build_vectorized` returns ``(None, reason)`` for anything else and
the engine silently falls back to the per-node loop, recording the
reason (``"unsupported-program-UpcastProgram"`` for a dict of upcast
programs).  Mixed program dicts, tree transfers whose combine has no
ufunc in the fixed combine table, families whose messages exceed the
bandwidth (reason ``"message-exceeds-bandwidth"``) and engines with a
fault channel (:class:`repro.faults.FaultyEngine`; reason
``"fault-channel"``) all take the fallback.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .algorithms.bfs import ECHO, NACK, TOKEN, TOKEN_NACK, BFSEchoProgram
from .algorithms.aggregate import Upcast
from .algorithms.leader import MaxIdFloodProgram
from .algorithms.multibfs import MultiSourceBFSProgram
from .csr import CSRAdjacency
from .encoding import Field, payload_bits

#: Sentinel for "no distance known yet" in multi-source BFS state; larger
#: than any real distance (which is < 2n < 2**40 at any feasible n).
_INF = np.int64(1) << 40

#: A round in which no node halts.
_NO_NODES = np.empty(0, dtype=np.int64)
_NO_NODES.flags.writeable = False


@dataclass
class EdgeMessages:
    """One round of traffic: per-directed-edge payload columns.

    ``edges[i]`` is a directed edge id into the CSR (src ``csr.src[e]``,
    dst ``csr.indices[e]``); ``a``/``b`` are the payload fields of message
    ``i`` — tag/value, source/dist, or index/value for the two-field
    families, and ``a`` alone (``b`` is None) for the one-field max-id
    flood.  The order of the messages carries no meaning: the flood ports
    emit them by ascending edge id, the tree transfers by sender key, and
    the engine sorts deliver events into canonical ``(program order,
    dst)`` order itself.  The arrays may be read-only views of a cached
    schedule, so consumers never write to them.
    """

    edges: np.ndarray
    a: np.ndarray
    b: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.edges.shape[0])


def _empty_messages() -> EdgeMessages:
    z = np.empty(0, dtype=np.int64)
    return EdgeMessages(edges=z, a=z.copy(), b=z.copy())


def _pack(
    edges: np.ndarray, a: np.ndarray, b: np.ndarray
) -> EdgeMessages:
    """Canonicalize an outgoing batch: sort columns by edge id."""
    if edges.shape[0] == 0:
        return _empty_messages()
    order = np.argsort(edges, kind="stable")
    return EdgeMessages(
        edges=np.ascontiguousarray(edges[order], dtype=np.int64),
        a=np.ascontiguousarray(a[order], dtype=np.int64),
        b=np.ascontiguousarray(b[order], dtype=np.int64),
    )


def _node_out_edges(
    csr: CSRAdjacency, nodes: np.ndarray
) -> np.ndarray:
    """All directed out-edge ids of ``nodes``, grouped per node."""
    if nodes.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    counts = csr.indptr[nodes + 1] - csr.indptr[nodes]
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(csr.indptr[nodes], counts) + offsets


@lru_cache(maxsize=4096)
def _message_bits(domains: Tuple[int, ...]) -> int:
    """What the per-node path charges for a payload of one ``Field`` per
    domain, memoized (a tree transfer's port is built per run)."""
    return payload_bits(tuple(Field(0, d) for d in domains))


class VectorizedProgram:
    """Whole-network bulk executor for one audited program family.

    A flood port (BFS-with-echo, multi-source BFS, the max-id flood) is
    stepped by the engine exactly like its per-node round loop:

    * ``start()`` is round 0 (``on_start`` for every node): returns the
      initial in-flight traffic and the ids of the nodes that halted at
      start.
    * ``step_all(state, inbox, active_mask, round_no)`` is one
      communication round for the whole network: the engine passes the
      program's state arrays, the traffic delivered this round, and the
      active (non-halted) node mask, and receives the next round's
      traffic plus the ids of the *newly* halted nodes, each node at most
      once per run (the engine adds their count to its halted total).

    A tree transfer's port is not stepped: its whole schedule is fixed
    when it is built, and the engine runs it from that (see
    :class:`_TreeTransfer`).  Every port has :meth:`outputs`, which
    assembles the per-node outputs after the run, as plain Python
    objects bit-identical to the per-node ``ctx.output``, and
    :meth:`check_domains`.

    A round's traffic is an :class:`EdgeMessages`; the engine reads its
    columns only to record deliver events, and :meth:`check_domains` to
    hold them to their domains.

    ``state`` is a dict of named numpy arrays — the column-major mirror
    of the per-node instance attributes; tests introspect it and the
    engine passes it back into ``step_all`` (the arrays are mutated in
    place).

    ``domains`` are the payload ``Field`` domains of the family's
    per-node messages, one per field: a 1-tuple for a bare ``Field``
    payload, a 2-tuple for a ``(Field, Field)`` pair.  Their length is
    the payload arity, and ``bits_per_message`` is derived from them by
    the same ``payload_bits`` the per-node path charges.
    """

    def __init__(self, csr: CSRAdjacency, domains: Tuple[int, ...]):
        self.csr = csr
        self.domains = domains
        self.bits_per_message = _message_bits(domains)
        self.state: Dict[str, np.ndarray] = {}

    def outputs(self, rounds: int) -> Dict[int, Any]:
        raise NotImplementedError

    def check_domains(self, msgs: EdgeMessages, order: np.ndarray) -> None:
        """Raise the per-node path's ``Field`` error for an out-of-range value.

        On the per-node path a sender builds each payload from one
        ``Field`` per domain, which rejects a value outside its domain
        while that node executes.  Here the round's outgoing columns (one
        per domain) are checked instead; on a violation the Fields are
        rebuilt in canonical ``(program order, dst)`` message order
        (``order`` maps node to program index), so the first offending
        message raises the same ``ValueError`` in the same round.
        """
        if not len(msgs):
            return
        # A one-domain port (the max-id flood) has no second column.
        checks = list(zip((msgs.a, msgs.b), self.domains, strict=False))
        # One pass per int64 column: viewed as unsigned, a negative value
        # is at least 2**63, past every domain.
        if all(col.view(np.uint64).max() < d for col, d in checks):
            return
        src = self.csr.src[msgs.edges]
        dst = self.csr.indices[msgs.edges]
        for i in np.lexsort((dst, order[src])):
            for col, d in checks:
                Field(int(col[i]), d)

    # -- shared helpers -------------------------------------------------

    def _deliverable(
        self, inbox: EdgeMessages, active_mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split an inbox into (edges, a, b, src, dst), dropping messages
        to halted nodes — the per-node loop never hands those to a
        program (they are still counted in stats by the engine, which
        sees the unfiltered inbox)."""
        edges, a, b = inbox.edges, inbox.a, inbox.b
        dst = self.csr.indices[edges]
        keep = active_mask[dst]
        if not keep.all():
            edges, a, b, dst = edges[keep], a[keep], b[keep], dst[keep]
        return edges, a, b, self.csr.src[edges], dst


class VectorizedBFSEcho(VectorizedProgram):
    """Bulk port of :class:`BFSEchoProgram` (BFS + echo termination)."""

    def __init__(self, csr: CSRAdjacency, root: int, n_domain: int):
        super().__init__(csr, (4, 2 * n_domain))
        self.root = root
        n = csr.n
        self.state = {
            "dist": np.full(n, -1, dtype=np.int64),
            "parent": np.full(n, -1, dtype=np.int64),
            "parent_edge": np.full(n, -1, dtype=np.int64),
            "pending": np.zeros(n, dtype=np.int64),
            "max_depth": np.zeros(n, dtype=np.int64),
            "echo_sent": np.zeros(n, dtype=bool),
            "halted": np.zeros(n, dtype=bool),
        }
        self._degree = np.diff(csr.indptr)

    def start(self) -> Tuple[EdgeMessages, np.ndarray]:
        s = self.state
        r = self.root
        s["dist"][r] = 0
        if self._degree[r] == 0:
            s["echo_sent"][r] = True
            s["halted"][r] = True
            return _empty_messages(), np.array([r], dtype=np.int64)
        s["pending"][r] = self._degree[r]
        edges = np.arange(
            self.csr.indptr[r], self.csr.indptr[r + 1], dtype=np.int64
        )
        out = _pack(
            edges,
            np.full(edges.shape, TOKEN, dtype=np.int64),
            np.zeros(edges.shape, dtype=np.int64),
        )
        return out, _NO_NODES

    def step_all(self, state, inbox, active_mask, round_no):
        csr = self.csr
        dist, parent = state["dist"], state["parent"]
        pending, max_depth = state["pending"], state["max_depth"]
        echo_sent, halted = state["echo_sent"], state["halted"]

        edges, tag, val, src, dst = self._deliverable(inbox, active_mask)

        # Message loop: pending discards and echo depth maxima.  The
        # per-node set discard is a safe counter decrement — each directed
        # tree-probe resolves exactly once (see DESIGN 6h).
        is_discard = (tag == TOKEN_NACK) | (tag == NACK) | (tag == ECHO)
        np.subtract.at(pending, dst[is_discard], 1)
        is_echo = tag == ECHO
        np.maximum.at(max_depth, dst[is_echo], val[is_echo])

        is_tok = (tag == TOKEN) | (tag == TOKEN_NACK)
        tok_edges, tok_src, tok_dst = edges[is_tok], src[is_tok], dst[is_tok]

        pre_in_tree = dist != -1  # before this round's adoptions

        out_edges_parts = []
        out_tag_parts = []
        out_val_parts = []

        if tok_edges.shape[0]:
            # Adoption: first-token nodes join the tree.
            got_tok = np.zeros(csr.n, dtype=bool)
            got_tok[tok_dst] = True
            adopting_mask = got_tok & ~pre_in_tree
            adopting = np.nonzero(adopting_mask)[0]
            if adopting.shape[0]:
                best_src = np.full(csr.n, csr.n, dtype=np.int64)
                np.minimum.at(best_src, tok_dst, tok_src)
                dist[adopting] = round_no
                parent[adopting] = best_src[adopting]
                pending[adopting] = self._degree[adopting] - 1
                # Record the tree edge (v -> parent) for the later echo.
                from_parent = adopting_mask[tok_dst] & (
                    tok_src == best_src[tok_dst]
                )
                parent_edge = state["parent_edge"]
                parent_edge[tok_dst[from_parent]] = csr.rev[
                    tok_edges[from_parent]
                ]
                # Re-flood to every neighbor but the parent; edges whose
                # reverse carried a token this round cross-NACK.
                tok_in = np.zeros(csr.num_directed_edges, dtype=bool)
                tok_in[csr.rev[tok_edges]] = True
                out_e = _node_out_edges(csr, adopting)
                out_e = out_e[csr.indices[out_e] != parent[csr.src[out_e]]]
                out_edges_parts.append(out_e)
                out_tag_parts.append(
                    np.where(tok_in[out_e], TOKEN_NACK, TOKEN)
                )
                out_val_parts.append(dist[csr.src[out_e]])
            # In-tree nodes answer non-parent token senders with a NACK.
            late = pre_in_tree[tok_dst] & (tok_src != parent[tok_dst])
            if late.any():
                nack_e = csr.rev[tok_edges[late]]
                out_edges_parts.append(nack_e)
                out_tag_parts.append(
                    np.full(nack_e.shape, NACK, dtype=np.int64)
                )
                out_val_parts.append(np.zeros(nack_e.shape, dtype=np.int64))

        # Finish: every in-tree node with all responses in echoes once.
        finishing = (dist != -1) & (pending == 0) & ~echo_sent & ~halted
        fin = _NO_NODES
        if finishing.any():
            fin = np.nonzero(finishing)[0]
            echo_sent[fin] = True
            halted[fin] = True
            non_root = fin[fin != self.root]
            if non_root.shape[0]:
                depth = np.maximum(max_depth[non_root], dist[non_root])
                out_edges_parts.append(state["parent_edge"][non_root])
                out_tag_parts.append(
                    np.full(non_root.shape, ECHO, dtype=np.int64)
                )
                out_val_parts.append(depth)

        if out_edges_parts:
            out = _pack(
                np.concatenate(out_edges_parts),
                np.concatenate(out_tag_parts),
                np.concatenate(out_val_parts),
            )
        else:
            out = _empty_messages()
        return out, fin

    def outputs(self, rounds: int) -> Dict[int, Any]:
        s = self.state
        result: Dict[int, Any] = {}
        for v in range(self.csr.n):
            if not s["halted"][v]:
                result[v] = None
            elif v == self.root:
                depth = max(int(s["max_depth"][v]), int(s["dist"][v]))
                result[v] = ("ecc", depth)
            else:
                result[v] = ("dist", int(s["dist"][v]), int(s["parent"][v]))
        return result


class VectorizedMultiSourceBFS(VectorizedProgram):
    """Bulk port of :class:`MultiSourceBFSProgram` (prioritized flood).

    The per-node, per-neighbor lazy-deletion heaps collapse to a boolean
    ``pending[edge, source]`` matrix with the token distance *implicit*
    (``best[src, source] + 1``): a heap entry that is fresh is exactly a
    set matrix bit, stale entries are never sent on either path, and the
    per-edge selection is the same ``(dist, source rank)`` minimum.
    """

    def __init__(self, csr: CSRAdjacency, sources, n_domain: int):
        super().__init__(csr, (n_domain, 2 * n_domain))
        self.sources = list(sources)
        self.rank = {s: i for i, s in enumerate(self.sources)}
        S = len(self.sources)
        self.state = {
            "best": np.full((csr.n, S), _INF, dtype=np.int64),
            "pending": np.zeros((csr.num_directed_edges, S), dtype=bool),
        }
        self._rank_arr = np.arange(S, dtype=np.int64)
        self._source_arr = np.asarray(self.sources, dtype=np.int64)
        # Node id -> source column (or -1), for O(1) inbox decoding.
        self._col_of = np.full(csr.n, -1, dtype=np.int64)
        self._col_of[self._source_arr] = self._rank_arr

    def _enqueue(self, nodes: np.ndarray, source_cols: np.ndarray) -> None:
        """Queue a token for ``source_cols[i]`` on every out-edge of
        ``nodes[i]`` (the matrix image of ``_enqueue_all``)."""
        if nodes.shape[0] == 0:
            return
        counts = self.csr.indptr[nodes + 1] - self.csr.indptr[nodes]
        edges = _node_out_edges(self.csr, nodes)
        self.state["pending"][edges, np.repeat(source_cols, counts)] = True

    def _flush(self) -> EdgeMessages:
        """Per edge, send the queued token minimizing (dist, rank)."""
        pending = self.state["pending"]
        best = self.state["best"]
        rows = np.nonzero(pending.any(axis=1))[0]
        if rows.shape[0] == 0:
            return _empty_messages()
        S = pending.shape[1]
        # Implicit token distance: one more than the sender's best.
        d = best[self.csr.src[rows]] + 1  # (rows, S)
        key = d * S + self._rank_arr  # lexicographic (dist, rank)
        key = np.where(pending[rows], key, np.int64(1) << 60)
        sel = np.argmin(key, axis=1)
        pending[rows, sel] = False
        return _pack(
            rows,
            self._source_arr[sel],
            d[np.arange(rows.shape[0]), sel],
        )

    def start(self) -> Tuple[EdgeMessages, np.ndarray]:
        src_nodes = self._source_arr
        if src_nodes.shape[0]:
            cols = np.arange(src_nodes.shape[0], dtype=np.int64)
            self.state["best"][src_nodes, cols] = 0
            self._enqueue(src_nodes, cols)
        return self._flush(), _NO_NODES

    def step_all(self, state, inbox, active_mask, round_no):
        best = state["best"]
        edges, a, b, src, dst = self._deliverable(inbox, active_mask)
        if edges.shape[0]:
            cols = self._col_of[a]
            old = best[dst, cols].copy()
            np.minimum.at(best, (dst, cols), b)
            improved = best[dst, cols] < old
            if improved.any():
                # One enqueue per improved (node, source) pair, matching
                # the sequential loop (later same-round duplicates for a
                # pair only produce stale heap entries, which never send).
                pairs = np.unique(
                    np.stack([dst[improved], cols[improved]], axis=1), axis=0
                )
                self._enqueue(pairs[:, 0], pairs[:, 1])
        return self._flush(), _NO_NODES

    def outputs(self, rounds: int) -> Dict[int, Any]:
        # On every loop, once any communication round ran, every node
        # has executed (the textbook loop) or been delivered to (the
        # per-node loop — the flood reaches all nodes before quiescence),
        # so its output is the final best-distance snapshot; with zero
        # rounds nothing ran.
        if rounds == 0:
            return {v: None for v in range(self.csr.n)}
        best = self.state["best"]
        result: Dict[int, Any] = {}
        for v in range(self.csr.n):
            known = np.nonzero(best[v] < _INF)[0]
            result[v] = {
                self.sources[i]: int(best[v, i]) for i in known
            }
        return result


class VectorizedMaxIdFlood(VectorizedProgram):
    """Bulk port of :class:`MaxIdFloodProgram` (max-id leader election).

    ``best`` starts at each program's own id and goes out on every
    out-edge at start; each round folds the deliveries into ``best`` with
    a per-node maximum, and exactly the nodes that improved re-send their
    new ``best`` on every out-edge.  No node ever halts (the run ends at
    quiescence), so every message is deliverable.  The payload is the
    bare ``Field(best, n)``: one field.
    """

    def __init__(self, csr: CSRAdjacency, best: np.ndarray, n_domain: int):
        super().__init__(csr, (n_domain,))
        self.state = {"best": best}

    def _send(self, edges: np.ndarray) -> EdgeMessages:
        # Callers pass edge ids in ascending order (all edges, or the
        # out-edges of ascending nodes), which is the canonical order.
        best = self.state["best"]
        return EdgeMessages(edges=edges, a=best[self.csr.src[edges]])

    def start(self) -> Tuple[EdgeMessages, np.ndarray]:
        edges = np.arange(self.csr.num_directed_edges, dtype=np.int64)
        return self._send(edges), _NO_NODES

    def step_all(self, state, inbox, active_mask, round_no):
        best = state["best"]
        before = best.copy()
        np.maximum.at(best, self.csr.indices[inbox.edges], inbox.a)
        improved = np.flatnonzero(best > before)
        return self._send(_node_out_edges(self.csr, improved)), _NO_NODES

    def outputs(self, rounds: int) -> Dict[int, Any]:
        # ``on_start`` already sets ``ctx.output``, so every node has an
        # output even after zero rounds.
        return dict(enumerate(self.state["best"].tolist()))


#: Entry bound of the tree-shape cache.  The transfers of one framework
#: run, or of one serving lane's batches, all use one BFS tree, so a few
#: dozen entries cover every tree a sweep or a daemon reuses.
_TREE_SHAPE_ENTRIES = 32

#: Vector lengths whose round counts each direction of a cached tree
#: keeps, the oldest dropped first.  A serving lane at parallelism p
#: distributes batches of 1 to p indices, and upcasts and uncomputes w
#: words per value: 12 lengths down and 8 up on the 8x8 engine lane
#: (p = 8, w = 2).
_LENGTHS_PER_TREE = 16


@dataclass(frozen=True)
class _Sends:
    """One direction of a tree's pipelined traffic, grouped by a node key.

    The key is a node's height for the upcast and its depth for the
    downcast.  A node with key ``k`` sends coordinate ``i`` in round
    ``k + i`` and halts in round ``k + length - 1`` (round 0 is the
    start): a leaf's coordinates are ready at once, and an interior
    node's coordinate ``i`` is complete the round its last child's
    arrives; a child receives coordinate ``i`` the round after its
    parent sends it.

    ``edges`` holds this direction's tree edges sorted by their sender's
    key (then edge id), with ``src``, ``dst`` and ``key`` aligned to it,
    and ``node_key`` is the key per node.  ``edge_ptr[k]`` is the first
    position whose key is at least ``k``, for ``k = 0 .. max + 1``, so
    the senders of a key range are one slice.  The arrays are shared by
    every run over the tree and are read-only.  :meth:`counts` adds, per
    vector length, how many messages each round of a transfer delivers.
    """

    edges: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    key: np.ndarray
    edge_ptr: List[int]
    node_key: np.ndarray
    _counts: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def counts(self, length: int) -> Tuple[int, ...]:
        """The messages delivered in each round ``1 .. R`` of a transfer
        of ``length`` coordinates, where ``R`` is the tuple's length.

        Round ``s`` sends on the edges whose key is ``s - length + 1 ..
        s``, and those messages arrive in round ``s + 1``.  The run ends
        in round ``max + length - 1``, when the node of the largest key
        halts; with no coordinates every node halts at the start and no
        round runs.
        """
        counts = self._counts.get(length)
        if counts is None:
            ptr = np.asarray(self.edge_ptr)
            top = ptr.shape[0] - 1
            sent = np.arange(top - 2 + length if length else 0)
            counts = tuple((
                ptr[np.minimum(sent + 1, top)]
                - ptr[np.clip(sent - length + 1, 0, top)]
            ).tolist())
            if len(self._counts) >= _LENGTHS_PER_TREE:
                del self._counts[next(iter(self._counts))]
            self._counts[length] = counts
        return counts


@dataclass(frozen=True)
class _TreeShape:
    """A spanning tree's cached shape: its upcast and downcast
    :class:`_Sends`, and a preorder in which every subtree is contiguous:
    the subtree of ``preorder[j]`` is ``preorder[j:ends[j]]``."""

    up: _Sends
    down: _Sends
    preorder: np.ndarray
    ends: np.ndarray


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _sends(
    edges: np.ndarray, src: np.ndarray, dst: np.ndarray, node_key: np.ndarray
) -> _Sends:
    key = node_key[src]
    order = np.lexsort((edges, key))
    edges, src, dst, key = edges[order], src[order], dst[order], key[order]
    _read_only(edges, src, dst, key, node_key)
    return _Sends(
        edges=edges, src=src, dst=dst, key=key,
        edge_ptr=np.searchsorted(
            key, np.arange(int(node_key.max()) + 2)
        ).tolist(),
        node_key=node_key,
    )


def _build_tree_shape(
    csr: CSRAdjacency, parent: np.ndarray
) -> Optional[_TreeShape]:
    """The shape of the tree ``parent`` spans.

    None when ``parent`` is not a spanning tree of ``csr``'s network: not
    exactly one root, a parent that is not a neighbour, or a parent cycle
    that never reaches the root.
    """
    n = csr.n
    non_root = np.flatnonzero(parent != -1)
    if non_root.shape[0] != n - 1:
        return None
    # Edge e is the parent edge of its src iff its dst is that parent.
    up_mask = parent[csr.src] == csr.indices
    parent_edge = np.full(n, -1, dtype=np.int64)
    parent_edge[csr.src[up_mask]] = np.flatnonzero(up_mask)
    if (parent_edge[non_root] == -1).any():
        return None
    # Depth by pointer jumping: ``depth[v]`` is v's distance to
    # ``anc[v]``, and its depth once ``anc[v]`` is past the root.  A parent
    # cycle never gets past the root.
    depth = (parent != -1).astype(np.int64)
    anc = parent.copy()
    for _ in range(n.bit_length() + 2):
        live = np.flatnonzero(anc != -1)
        if not live.shape[0]:
            break
        depth[live] += depth[anc[live]]
        anc[live] = anc[anc[live]]
    else:
        return None
    # Height and subtree size, one depth level at a time from the
    # deepest up.
    by_depth = np.argsort(depth, kind="stable")
    level_ptr = np.searchsorted(depth[by_depth], np.arange(depth.max() + 2))
    height = np.zeros(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    for d in range(int(depth.max()), 0, -1):
        level = by_depth[level_ptr[d]:level_ptr[d + 1]]
        np.maximum.at(height, parent[level], height[level] + 1)
        np.add.at(size, parent[level], size[level])
    # Preorder, children in node order.
    children: List[List[int]] = [[] for _ in range(n)]
    for v, p in zip(non_root.tolist(), parent[non_root].tolist(), strict=True):
        children[p].append(v)
    order: List[int] = []
    stack = [int(by_depth[0])]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    preorder = np.array(order, dtype=np.int64)
    ends = np.arange(n) + size[preorder]
    _read_only(preorder, ends)
    up_edges = parent_edge[non_root]
    return _TreeShape(
        up=_sends(up_edges, non_root, parent[non_root], height),
        down=_sends(csr.rev[up_edges], parent[non_root], non_root, depth),
        preorder=preorder,
        ends=ends,
    )


_TREE_SHAPES: "OrderedDict[Tuple[str, bytes], _TreeShape]" = OrderedDict()


def _tree_shape(csr: CSRAdjacency, parent: np.ndarray) -> Optional[_TreeShape]:
    """:func:`_build_tree_shape`, cached per (topology, parent array)."""
    key = (csr.fingerprint, parent.tobytes())
    shape = _TREE_SHAPES.get(key)
    if shape is not None:
        _TREE_SHAPES.move_to_end(key)
        return shape
    shape = _build_tree_shape(csr, parent)
    if shape is not None:
        _TREE_SHAPES[key] = shape
        if len(_TREE_SHAPES) > _TREE_SHAPE_ENTRIES:
            _TREE_SHAPES.popitem(last=False)
    return shape


class _TreeTransfer(VectorizedProgram):
    """Shared structure of the pipelined tree transfers (up/downcast).

    Which node sends which coordinate on which edge, and which nodes
    halt, depends only on the tree and the vector length (see
    :class:`_Sends`), and what a node sends for coordinate ``i`` is fixed
    before round 0: its subtree's fold up, the root's value down.  So a
    port computes every payload when it is built and finds the first
    round, if any, that sends a value outside its domain
    (``bad_round``).  It is not stepped: the engine runs it off the
    tree's cached schedule.  ``counts`` gives each round's message count,
    and its length the run's rounds; :meth:`messages` gathers one
    round's sends, which the engine reads only to record deliver events
    and in ``bad_round``, where :meth:`check_domains` raises the per-node
    path's error after the same events; :meth:`outputs` reads which
    nodes had halted from their keys (all of them once the last round
    is over).

    Nothing is ever sent to a halted node, so no delivery is filtered: a
    parent's height exceeds its child's, so it halts after the child's
    last message arrives, and a child of depth ``d + 1`` halts in round
    ``d + t``, the round its parent's last message arrives.  Messages
    are in sender-key order, not edge order: the engine sorts deliver
    events itself.
    """

    def __init__(
        self,
        csr: CSRAdjacency,
        sends: _Sends,
        length: int,
        domain: int,
        bad_round: Optional[int],
    ):
        super().__init__(csr, (max(length, 1), domain))
        self.length = length
        self.counts = sends.counts(length)
        self.bad_round = bad_round
        self._sends = sends

    def _payload(self, src: np.ndarray, coord: np.ndarray) -> np.ndarray:
        """The values ``src[j]`` sends for ``coord[j]``."""
        raise NotImplementedError

    def messages(self, s: int) -> EdgeMessages:
        """Round ``s``'s sends: keys ``s - length + 1 .. s``, each
        sending coordinate ``s - key``."""
        sends = self._sends
        ptr = sends.edge_ptr
        top = len(ptr) - 1
        lo = ptr[min(max(s - self.length + 1, 0), top)]
        hi = ptr[min(s + 1, top)]
        coord = s - sends.key[lo:hi]
        return EdgeMessages(
            edges=sends.edges[lo:hi],
            a=coord,
            b=self._payload(sends.src[lo:hi], coord),
        )


#: The invertible combines of the table, each with the ufunc that takes a
#: fold back out of a larger one.
_INVERSES = {np.add: np.subtract, np.bitwise_xor: np.bitwise_xor}


class VectorizedUpcast(_TreeTransfer):
    """Bulk port of :class:`UpcastProgram` (pipelined convergecast).

    The schedule is keyed by height: the leaves stream from round 0, and
    a node of height ``h`` sends coordinate ``i`` up in round ``h + i``,
    by then the fold of its subtree at ``i``.  Those folds are computed
    at construction over every coordinate at once, into ``acc``.  A sum's
    or an xor's is the difference of two prefix folds over the tree's
    preorder, in which the subtree is one run; int64 arithmetic wraps, so
    that is bit-identical to folding child by child.  Max, min, and and
    or have no inverse: they fold one ``ufunc.at`` per height level (a
    level's subtrees are complete once every lower level has been added
    in).
    """

    def __init__(self, csr, shape, values, domain, ufunc):
        sends = shape.up
        length = values.shape[1]
        inverse = _INVERSES.get(ufunc)
        if inverse is not None and length:
            pre = shape.preorder
            prefix = np.zeros((pre.shape[0] + 1, length), dtype=np.int64)
            ufunc.accumulate(values[pre], axis=0, out=prefix[1:])
            acc = np.empty_like(values)
            acc[pre] = inverse(prefix[shape.ends], prefix[:-1])
        else:
            acc = values.copy()
            ptr = sends.edge_ptr
            if length:
                # ufunc.at is unordered, which is exact for the table's
                # commutative and associative combines.
                for h in range(len(ptr) - 1):
                    lo, hi = ptr[h], ptr[h + 1]
                    if hi > lo:
                        ufunc.at(acc, sends.dst[lo:hi], acc[sends.src[lo:hi]])
        # Sender j's coordinate i goes out in round key[j] + i.  Viewed
        # as unsigned, a negative value is at least 2**63, past every
        # domain.
        sent = acc[sends.src].view(np.uint64)
        bad_round = None
        if sent.size and sent.max() >= domain:
            rows, cols = np.nonzero(sent >= domain)
            bad_round = int((sends.key[rows] + cols).min())
        super().__init__(csr, sends, length, domain, bad_round)
        self.root = int(shape.preorder[0])
        self.acc = acc

    def _payload(self, src, coord):
        return self.acc[src, coord]

    def outputs(self, rounds: int) -> Dict[int, Any]:
        # The root, of the largest key, halts in the run's last round.
        result: Dict[int, Any] = dict.fromkeys(range(self.csr.n))
        if rounds >= len(self.counts):
            result[self.root] = tuple(self.acc[self.root].tolist())
        return result


class VectorizedDowncast(_TreeTransfer):
    """Bulk port of :class:`DowncastProgram` (pipelined broadcast).

    The schedule is keyed by depth: the root streams from round 0, and a
    node of depth ``d`` forwards coordinate ``i`` to its children in
    round ``d + i``, the round after it arrived.  Every message for
    coordinate ``i`` carries the root's ``values[i]``, so the port keeps
    only that row.
    """

    def __init__(self, csr, sends, values, domain):
        bad = np.flatnonzero(values.view(np.uint64) >= domain)
        bad_round = (
            int(sends.key[0]) + int(bad[0])
            if bad.shape[0] and sends.key.shape[0] else None
        )
        super().__init__(csr, sends, values.shape[0], domain, bad_round)
        self.values = values

    def _payload(self, src, coord):
        return self.values[coord]

    def outputs(self, rounds: int) -> Dict[int, Any]:
        # Every node has halted once the run's last round is over; before
        # that, a node of depth d halts in round d + length - 1.
        row = tuple(self.values.tolist())
        if rounds >= len(self.counts):
            return dict.fromkeys(range(self.csr.n), row)
        halted = self._sends.node_key + (self.length - 1) <= rounds
        return {v: row if h else None for v, h in enumerate(halted.tolist())}


# ----------------------------------------------------------------------
# combine table (for the tree transfers and the ground-truth fold)
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def combine_ufuncs() -> Dict[Callable[[int, int], int], np.ufunc]:
    """Scalar combine callable -> its bulk ufunc, keyed by identity.

    Built on first use because :mod:`repro.core` imports this package.
    Every entry is commutative and associative, as ``ufunc.at`` (which
    applies same-target updates in unspecified order) requires; a tree
    transfer with any other combine falls back to the per-node loop.
    :meth:`repro.core.framework.DistributedInput.aggregated` folds the
    ground truth with the same table.
    """
    from ..core import semigroup as sg

    return {
        max: np.maximum,
        min: np.minimum,
        sg.combine_sum: np.add,
        sg.combine_xor: np.bitwise_xor,
        sg.combine_max: np.maximum,
        sg.combine_min: np.minimum,
        sg.combine_and: np.bitwise_and,
        sg.combine_or: np.bitwise_or,
    }


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


def _transfer_port(
    csr: CSRAdjacency, transfer
) -> Tuple[Optional[VectorizedProgram], Optional[str]]:
    """The bulk port of a tree transfer given as arrays, or a reason."""
    upcast = isinstance(transfer, Upcast)
    shape = _tree_shape(csr, transfer.parent)
    if shape is None:
        return None, f"{'upcast' if upcast else 'downcast'}-tree-malformed"
    if not upcast:
        return (
            VectorizedDowncast(
                csr, shape.down, transfer.values, transfer.domain
            ),
            None,
        )
    ufunc = combine_ufuncs().get(transfer.combine)
    if ufunc is None:
        return None, "upcast-combine-unregistered"
    return (
        VectorizedUpcast(csr, shape, transfer.values, transfer.domain, ufunc),
        None,
    )


def build_vectorized(engine) -> Tuple[Optional[VectorizedProgram], Optional[str]]:
    """Build the bulk executor for an engine's programs, if audited.

    Returns ``(program, None)`` on success or ``(None, reason)`` when the
    programs are not one of the three audited families — the engine then
    falls back to the per-node loop.  A tree transfer, handed to the
    engine as arrays, skips the audit and goes straight to its port.
    """
    network = engine.network
    if engine.transfer is not None:
        return _transfer_port(network.csr, engine.transfer)
    programs = engine.programs
    first = programs[next(iter(programs))]
    kinds = {type(p) for p in programs.values()}
    if len(kinds) != 1:
        return None, "mixed-program-types"
    kind = kinds.pop()
    if kind not in (BFSEchoProgram, MultiSourceBFSProgram, MaxIdFloodProgram):
        return None, f"unsupported-program-{kind.__name__}"
    csr = network.csr

    if kind is MaxIdFloodProgram:
        best = np.fromiter(
            (programs[v].best for v in network.nodes()),
            dtype=np.int64, count=network.n,
        )
        return VectorizedMaxIdFlood(csr, best, network.n), None

    if kind is BFSEchoProgram:
        roots = {p.root for p in programs.values()}
        if len(roots) != 1:
            return None, "bfs-roots-disagree"
        return VectorizedBFSEcho(csr, roots.pop(), network.n), None

    # The third family: multi-source BFS.
    sources = first.sources
    for p in programs.values():
        if p.sources != sources:
            return None, "multibfs-sources-disagree"
    return VectorizedMultiSourceBFS(csr, sources, network.n), None
