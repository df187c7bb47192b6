"""Column-major bulk execution of structured node programs.

The engine's default schedule, ``"vectorized"``, dispatches whole rounds
as numpy array operations instead of one Python call per node: a
:class:`VectorizedProgram` holds the *entire network's* program state as
arrays indexed by node (and by directed edge, via the
:class:`~repro.congest.csr.CSRAdjacency`), and ``step_all`` advances every
node one synchronous round at once.

The per-node path stays the bit-identity oracle (the same hypothesis
pinning PR 2 used for gate kernels): a vectorized run must produce
identical rounds, per-node outputs, traffic statistics, and trace events
to the dense and active schedules.  Ports therefore replicate the node
programs' semantics exactly — including which round a node halts in and
the engine's canonical ``(program order, dst)`` message ordering — rather
than merely computing the same final answer.

Messages here live on directed edges: every supported program sends at
most one message per edge per round (the CONGEST discipline the per-node
engine enforces via ``DuplicateSend``), so a round's traffic is an
:class:`EdgeMessages` — a sorted array of directed-edge ids plus one
column per payload field, mirroring the per-node programs' payloads: a
bare ``Field`` (the max-id flood) or a ``(Field, Field)`` pair (every
other port).  Each port keeps its Field domains, one or two of them:
they fix the payload arity and ``bits_per_message``, and
:meth:`VectorizedProgram.check_domains` holds every round's outgoing
columns to them, raising the error ``Field`` raises on the per-node path.

Only audited program families vectorize — five of them: BFS-with-echo,
multi-source BFS, the max-id flood of leader election, and the pipelined
upcast and downcast.  The audit matches exact program types, so a
subclass (``BoundedMaxIdFloodProgram``, for one) is not audited.
:func:`build_vectorized` returns ``(None, reason)`` for anything else and
the engine silently falls back to the per-node loop, recording the
reason.  Mixed program dicts, tree transfers whose combine has no ufunc
in the fixed combine table, families whose messages exceed the bandwidth
(reason ``"message-exceeds-bandwidth"``) and engines with a fault channel
(:class:`repro.faults.FaultyEngine`; reason ``"fault-channel"``) all take
the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .algorithms.bfs import ECHO, NACK, TOKEN, TOKEN_NACK, BFSEchoProgram
from .algorithms.aggregate import DowncastProgram, UpcastProgram
from .algorithms.leader import MaxIdFloodProgram
from .algorithms.multibfs import MultiSourceBFSProgram
from .csr import CSRAdjacency, csr_for
from .encoding import Field, payload_bits

#: Sentinel for "no distance known yet" in multi-source BFS state; larger
#: than any real distance (which is < 2n < 2**40 at any feasible n).
_INF = np.int64(1) << 40


@dataclass
class EdgeMessages:
    """One round of traffic: per-directed-edge payload columns.

    ``edges[i]`` is a directed edge id into the CSR (src ``csr.src[e]``,
    dst ``csr.indices[e]``), sorted ascending; ``a``/``b`` are the payload
    fields of message ``i`` — tag/value, source/dist, or index/value for
    the two-field families, and ``a`` alone (``b`` is None) for the
    one-field max-id flood.
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


class VectorizedProgram:
    """Whole-network bulk executor for one audited program family.

    The engine drives it exactly like its per-node round loop:

    * :meth:`start` is round 0 (``on_start`` for every node): returns the
      initial in-flight traffic and the mask of nodes that halted at
      start.
    * :meth:`step_all` is one communication round for the whole network:
      the engine passes the program's state arrays, the traffic delivered
      this round, and the active (non-halted) node mask, and receives the
      next round's traffic plus the mask of *newly* halted nodes.
    * :meth:`outputs` assembles the per-node outputs after the run, as
      plain Python objects bit-identical to the per-node ``ctx.output``.

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
        self.bits_per_message = payload_bits(tuple(Field(0, d) for d in domains))
        self.state: Dict[str, np.ndarray] = {}

    def start(self) -> Tuple[EdgeMessages, np.ndarray]:
        raise NotImplementedError

    def step_all(
        self,
        state: Dict[str, np.ndarray],
        inbox: EdgeMessages,
        active_mask: np.ndarray,
        round_no: int,
    ) -> Tuple[EdgeMessages, np.ndarray]:
        raise NotImplementedError

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
        checks = list(zip((msgs.a, msgs.b), self.domains))
        if all(col.min() >= 0 and col.max() < d for col, d in checks):
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
            return _empty_messages(), s["halted"].copy()
        s["pending"][r] = self._degree[r]
        edges = np.arange(
            self.csr.indptr[r], self.csr.indptr[r + 1], dtype=np.int64
        )
        out = _pack(
            edges,
            np.full(edges.shape, TOKEN, dtype=np.int64),
            np.zeros(edges.shape, dtype=np.int64),
        )
        return out, s["halted"].copy()

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
        new_halts = np.zeros(csr.n, dtype=bool)
        if finishing.any():
            fin = np.nonzero(finishing)[0]
            echo_sent[fin] = True
            halted[fin] = True
            new_halts[fin] = True
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
        return out, new_halts

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
            "halted": np.zeros(csr.n, dtype=bool),
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
        return self._flush(), self.state["halted"].copy()

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
        out = self._flush()
        return out, np.zeros(self.csr.n, dtype=bool)

    def outputs(self, rounds: int) -> Dict[int, Any]:
        # In every schedule, once any communication round ran, every node
        # has executed (dense) or been delivered to (active — the flood
        # reaches all nodes before quiescence), so its output is the
        # final best-distance snapshot; with zero rounds nothing ran.
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
        return self._send(edges), np.zeros(self.csr.n, dtype=bool)

    def step_all(self, state, inbox, active_mask, round_no):
        best = state["best"]
        before = best.copy()
        np.maximum.at(best, self.csr.indices[inbox.edges], inbox.a)
        improved = np.flatnonzero(best > before)
        out = self._send(_node_out_edges(self.csr, improved))
        return out, np.zeros(self.csr.n, dtype=bool)

    def outputs(self, rounds: int) -> Dict[int, Any]:
        # ``on_start`` already sets ``ctx.output``, so every node has an
        # output even after zero rounds.
        return dict(enumerate(self.state["best"].tolist()))


class _TreeTransfer(VectorizedProgram):
    """Shared structure of the pipelined tree transfers (up/downcast)."""

    def __init__(
        self,
        csr: CSRAdjacency,
        parent: np.ndarray,
        length: int,
        domain: int,
    ):
        super().__init__(csr, (max(length, 1), domain))
        self.length = length
        self.domain = domain
        self.parent = parent
        self.root = int(np.nonzero(parent == -1)[0][0])
        # Tree edges, both directions, as CSR edge ids: edge e is a
        # parent edge of its src iff its dst is that src's parent.
        non_root = np.nonzero(parent != -1)[0]
        eids = np.arange(csr.num_directed_edges, dtype=np.int64)
        up_mask = parent[csr.src] == csr.indices
        self.parent_edge = np.full(csr.n, -1, dtype=np.int64)
        self.parent_edge[csr.src[up_mask]] = eids[up_mask]
        self.child_count = np.zeros(csr.n, dtype=np.int64)
        np.add.at(self.child_count, parent[non_root], 1)
        # Downward tree edges grouped by parent, ascending dst per parent
        # (matching ``BFSResult.children()`` order, which is ascending
        # because the parent map iterates nodes in order).
        down = self.csr.rev[self.parent_edge[non_root]]
        self._down_edges = np.sort(down)
        dn_src = csr.src[self._down_edges]
        self._down_ptr = np.searchsorted(
            dn_src, np.arange(csr.n + 1, dtype=np.int64)
        )

    def _children_edges(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(edge ids, repeat counts) of all downward edges of ``nodes``."""
        counts = self._down_ptr[nodes + 1] - self._down_ptr[nodes]
        total = int(counts.sum())
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        edges = self._down_edges[
            np.repeat(self._down_ptr[nodes], counts) + offsets
        ]
        return edges, counts


class VectorizedUpcast(_TreeTransfer):
    """Bulk port of :class:`UpcastProgram` (pipelined convergecast)."""

    def __init__(self, csr, parent, length, domain, values, ufunc):
        super().__init__(csr, parent, length, domain)
        self.ufunc = ufunc
        self.state = {
            "acc": values.astype(np.int64, copy=True),
            "received_count": np.zeros((csr.n, max(length, 1)), dtype=np.int64),
            "next_to_send": np.zeros(csr.n, dtype=np.int64),
            "halted": np.zeros(csr.n, dtype=bool),
        }

    def _push_all(self) -> Tuple[EdgeMessages, np.ndarray]:
        """One ``_push`` per non-halted node (dense semantics: a push
        that is not ready is a no-op)."""
        s = self.state
        nxt, halted = s["next_to_send"], s["halted"]
        idx = np.minimum(nxt, max(self.length - 1, 0))
        ready = (
            ~halted
            & (nxt < self.length)
            & (
                s["received_count"][np.arange(self.csr.n), idx]
                == self.child_count
            )
        )
        senders = np.nonzero(ready & (self.parent != -1))[0]
        out = _empty_messages()
        if senders.shape[0]:
            out = _pack(
                self.parent_edge[senders],
                nxt[senders],
                s["acc"][senders, nxt[senders]],
            )
        nxt[ready] += 1
        done = ready & (nxt >= self.length)
        halted[done] = True
        return out, done

    def start(self) -> Tuple[EdgeMessages, np.ndarray]:
        if self.length == 0:
            self.state["halted"][:] = True
            return _empty_messages(), self.state["halted"].copy()
        return self._push_all()

    def step_all(self, state, inbox, active_mask, round_no):
        edges, a, b, src, dst = self._deliverable(inbox, active_mask)
        if edges.shape[0]:
            # Coordinatewise combine; ufunc.at is unordered, which is
            # exact for the table's commutative/associative combines.
            self.ufunc.at(state["acc"], (dst, a), b)
            np.add.at(state["received_count"], (dst, a), 1)
        return self._push_all()

    def outputs(self, rounds: int) -> Dict[int, Any]:
        s = self.state
        result: Dict[int, Any] = {v: None for v in range(self.csr.n)}
        if s["halted"][self.root]:
            result[self.root] = tuple(
                int(x) for x in s["acc"][self.root, : self.length]
            )
        return result


class VectorizedDowncast(_TreeTransfer):
    """Bulk port of :class:`DowncastProgram` (pipelined broadcast)."""

    def __init__(self, csr, parent, length, domain, root_values):
        super().__init__(csr, parent, length, domain)
        received = np.full((csr.n, max(length, 1)), -1, dtype=np.int64)
        if length:
            received[self.root] = root_values
        self.state = {
            "received": received,
            "next_to_send": np.zeros(csr.n, dtype=np.int64),
            "halted": np.zeros(csr.n, dtype=bool),
        }

    def _push_all(self) -> Tuple[EdgeMessages, np.ndarray]:
        s = self.state
        nxt, halted = s["next_to_send"], s["halted"]
        idx = np.minimum(nxt, max(self.length - 1, 0))
        ready = (
            ~halted
            & (nxt < self.length)
            & (s["received"][np.arange(self.csr.n), idx] != -1)
        )
        senders = np.nonzero(ready)[0]
        out = _empty_messages()
        if senders.shape[0]:
            edges, counts = self._children_edges(senders)
            if edges.shape[0]:
                out = _pack(
                    edges,
                    np.repeat(nxt[senders], counts),
                    np.repeat(
                        s["received"][senders, nxt[senders]], counts
                    ),
                )
        nxt[ready] += 1
        done = ready & (nxt >= self.length)
        halted[done] = True
        return out, done

    def start(self) -> Tuple[EdgeMessages, np.ndarray]:
        if self.length == 0:
            self.state["halted"][:] = True
            return _empty_messages(), self.state["halted"].copy()
        return self._push_all()

    def step_all(self, state, inbox, active_mask, round_no):
        edges, a, b, src, dst = self._deliverable(inbox, active_mask)
        if edges.shape[0]:
            state["received"][dst, a] = b
        return self._push_all()

    def outputs(self, rounds: int) -> Dict[int, Any]:
        s = self.state
        result: Dict[int, Any] = {}
        for v in range(self.csr.n):
            if s["halted"][v]:
                if self.length:
                    result[v] = tuple(int(x) for x in s["received"][v])
                else:
                    result[v] = ()
            else:
                result[v] = None
        return result


# ----------------------------------------------------------------------
# combine table (for the tree transfers)
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _combine_ufuncs() -> Dict[Callable[[int, int], int], np.ufunc]:
    """Scalar combine callable -> its bulk ufunc, keyed by identity.

    Built on first use because :mod:`repro.core` imports this package.
    Every entry is commutative and associative, as ``ufunc.at`` (which
    applies same-target updates in unspecified order) requires; a tree
    transfer with any other combine falls back to the per-node loop.
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


def _tree_arrays_from_programs(programs) -> Optional[np.ndarray]:
    """Extract a consistent parent array from tree-transfer programs."""
    n = len(programs)
    parent = np.full(n, -1, dtype=np.int64)
    roots = 0
    for v, p in programs.items():
        if p.parent is None:
            roots += 1
        else:
            parent[v] = p.parent
    if roots != 1:
        return None
    return parent


def build_vectorized(engine) -> Tuple[Optional[VectorizedProgram], Optional[str]]:
    """Build the bulk executor for an engine's program dict, if audited.

    Returns ``(program, None)`` on success or ``(None, reason)`` when the
    programs are not a supported homogeneous family — the engine then
    falls back to the per-node loop.
    """
    programs = engine.programs
    network = engine.network
    first = programs[next(iter(programs))]
    kinds = {type(p) for p in programs.values()}
    if len(kinds) != 1:
        return None, "mixed-program-types"
    kind = kinds.pop()
    if kind not in (BFSEchoProgram, MultiSourceBFSProgram, MaxIdFloodProgram,
                    UpcastProgram, DowncastProgram):
        return None, f"unsupported-program-{kind.__name__}"
    csr = csr_for(network)

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

    if kind is MultiSourceBFSProgram:
        sources = first.sources
        for p in programs.values():
            if p.sources != sources:
                return None, "multibfs-sources-disagree"
        return VectorizedMultiSourceBFS(csr, sources, network.n), None

    if kind is UpcastProgram:
        parent = _tree_arrays_from_programs(programs)
        if parent is None:
            return None, "upcast-tree-malformed"
        combines = {p.combine for p in programs.values()}
        domains = {p.domain for p in programs.values()}
        lengths = {p.length for p in programs.values()}
        if len(combines) != 1 or len(domains) != 1 or len(lengths) != 1:
            return None, "upcast-params-disagree"
        ufunc = _combine_ufuncs().get(combines.pop())
        if ufunc is None:
            return None, "upcast-combine-unregistered"
        length = lengths.pop()
        values = np.zeros((network.n, max(length, 1)), dtype=np.int64)
        for v, p in programs.items():
            if length:
                values[v] = p.acc
        return (
            VectorizedUpcast(csr, parent, length, domains.pop(), values, ufunc),
            None,
        )

    parent = _tree_arrays_from_programs(programs)
    if parent is None:
        return None, "downcast-tree-malformed"
    domains = {p.domain for p in programs.values()}
    lengths = {p.length for p in programs.values()}
    if len(domains) != 1 or len(lengths) != 1:
        return None, "downcast-params-disagree"
    length = lengths.pop()
    root = int(np.nonzero(parent == -1)[0][0])
    root_vals = programs[root].received
    if length and any(x is None for x in root_vals):
        return None, "downcast-root-values-missing"
    values = (
        np.asarray(root_vals, dtype=np.int64)
        if length
        else np.empty(0, dtype=np.int64)
    )
    return (
        VectorizedDowncast(csr, parent, length, domains.pop(), values),
        None,
    )
