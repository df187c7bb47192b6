"""Pipelined convergecast and broadcast over a precomputed BFS tree.

These are the CONGEST workhorses behind the paper's Lemma 7 and Theorem 8:
moving a length-t vector of bounded values between the leader and the rest
of the network in O(depth + t) rounds by streaming one coordinate per round
along every tree edge.

* :func:`pipelined_upcast` — every node holds a length-t vector; the root
  learns the coordinatewise ⊕-combination over all nodes.  This is exactly
  the query-result aggregation step of Theorem 8 ("leaf nodes send the
  query results to their parent, who computes ⊕ ... as soon as the leaves
  are done with the first query value they can start with the second").
* :func:`pipelined_downcast` — the root holds a length-t vector; every node
  learns it.  This is the index-distribution step (and Lemma 7's classical
  shadow: a register streamed down the tree, each log(n)-bit chunk
  forwarded the round after it arrives).

Both run on the engine with real messages and return measured rounds,
which benchmarks compare against the depth + t bound.

:func:`transfer_steps` runs one transfer one engine round per ``next()``
and returns the engine's :class:`~repro.congest.engine.RunResult`: the
framework's engine-mode batches step their three transfers through it,
which is what lets the :mod:`repro.serve` daemon interleave them on an
event loop.  It drives the engine's
:class:`~repro.congest.engine.EngineStepper`, as
:meth:`Engine.run <repro.congest.engine.Engine.run>` does, so the stepped
and blocking paths are bit-identical by construction.

None of them builds node programs or chooses a round loop.  They hand
the engine the transfer as arrays — an :class:`Upcast` (parent array,
value matrix, combine, domain) or a :class:`Downcast` (parent array, the
root's row, domain) — which the bulk loop (:mod:`repro.congest.vectorized`)
runs without any per-node object; the engine builds the per-node
programs from those arrays only when it falls back to its per-node loop.
Arrays are the only way onto the bulk loop: a dict of the per-node
programs, which :func:`build_upcast_programs` /
:func:`build_downcast_programs` build for the fault-resilient wrapper and
for tests, always runs per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..encoding import Field
from ..engine import Engine
from ..messages import Inbox
from ..network import Network
from ..program import Context, NodeProgram
from .bfs import BFSResult


class UpcastProgram(NodeProgram):
    """Stream a t-vector up the tree, combining coordinatewise."""

    # Leaves stream one coordinate per round (the engine's "sent last
    # round" carry keeps them scheduled); interior nodes advance only on
    # deliveries.  A silent round is a no-op — except for a childless
    # root, which advances its cursor locally every round; that degenerate
    # case opts back into always-on execution below.
    always_active = False

    def __init__(
        self,
        node: int,
        parent: Optional[int],
        children: Sequence[int],
        values: Sequence[int],
        combine: Callable[[int, int], int],
        domain: int,
        length: int,
    ):
        self.node = node
        self.parent = parent
        self.children = list(children)
        self.acc: List[int] = list(values)
        if len(self.acc) != length:
            raise ValueError(
                f"node {node} holds {len(self.acc)} values, expected {length}"
            )
        self.combine = combine
        self.domain = domain
        self.length = length
        self.received_count = [0] * length
        self.next_to_send = 0
        if parent is None and not self.children:
            self.always_active = True

    def _ready(self, index: int) -> bool:
        return self.received_count[index] == len(self.children)

    def _push(self, ctx: Context) -> None:
        if self.next_to_send >= self.length:
            return
        i = self.next_to_send
        if not self._ready(i):
            return
        if self.parent is not None:
            ctx.send(
                self.parent,
                (Field(i, max(self.length, 1)), Field(self.acc[i], self.domain)),
            )
        self.next_to_send += 1
        if self.next_to_send >= self.length:
            ctx.halt(output=tuple(self.acc) if self.parent is None else None)

    def on_start(self, ctx: Context) -> None:
        if self.length == 0:
            ctx.halt(output=() if self.parent is None else None)
            return
        self._push(ctx)

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        for msg in inbox:
            index, value = msg.value
            self.acc[index] = self.combine(self.acc[index], value)
            self.received_count[index] += 1
        # One coordinate can leave per round (single parent edge), but a
        # newly completed coordinate may also unblock this round's send.
        self._push(ctx)


class DowncastProgram(NodeProgram):
    """Stream a t-vector from the root down the tree, pipelined."""

    # Same scheduling shape as UpcastProgram: the root streams (carried by
    # its own sends), everyone else advances on deliveries only.
    always_active = False

    def __init__(
        self,
        node: int,
        parent: Optional[int],
        children: Sequence[int],
        values: Optional[Sequence[int]],
        domain: int,
        length: int,
    ):
        self.node = node
        self.parent = parent
        self.children = list(children)
        self.domain = domain
        self.length = length
        self.received: List[Optional[int]] = (
            list(values) if values is not None else [None] * length
        )
        self.next_to_send = 0
        if parent is None and not self.children:
            self.always_active = True

    def _push(self, ctx: Context) -> None:
        if self.next_to_send >= self.length:
            return
        i = self.next_to_send
        if self.received[i] is None:
            return
        for child in self.children:
            ctx.send(
                child,
                (Field(i, max(self.length, 1)), Field(self.received[i], self.domain)),
            )
        self.next_to_send += 1
        if self.next_to_send >= self.length:
            ctx.halt(output=tuple(self.received))

    def on_start(self, ctx: Context) -> None:
        if self.length == 0:
            ctx.halt(output=())
            return
        self._push(ctx)

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        for msg in inbox:
            index, value = msg.value
            self.received[index] = value
        self._push(ctx)


def build_upcast_programs(
    network: Network,
    tree: BFSResult,
    values: Dict[int, Sequence[int]],
    combine: Callable[[int, int], int],
    domain: int,
) -> Dict[int, UpcastProgram]:
    """Instantiate one :class:`UpcastProgram` per node for a convergecast.

    The per-node form of :class:`Upcast`: the fault-resilient wrapper in
    :mod:`repro.faults.resilience` runs these programs through a lossy
    engine, and tests run them against the arrays.  A dict of them always
    runs on the per-node loop.
    """
    return Upcast(
        parent_array(tree, network.n), _value_matrix(values, network.n),
        combine, domain,
    ).programs()


def build_downcast_programs(
    network: Network,
    tree: BFSResult,
    values: Sequence[int],
    domain: int,
) -> Dict[int, DowncastProgram]:
    """Instantiate one :class:`DowncastProgram` per node for a broadcast
    of ``values`` from the tree root: the per-node form of
    :class:`Downcast`."""
    return Downcast(parent_array(tree, network.n), values, domain).programs()


def parent_array(tree: BFSResult, n: int) -> np.ndarray:
    """The tree as an int64 array: ``parent[v]``, or -1 at the root."""
    return np.fromiter(
        (-1 if p is None else p for p in map(tree.parent.get, range(n))),
        dtype=np.int64, count=n,
    )


def _children(parent: List[int]) -> List[List[int]]:
    kids: List[List[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return kids


@dataclass(eq=False)
class Upcast:
    """A convergecast handed to the engine as arrays.

    ``parent`` is the tree (:func:`parent_array`), and row ``v`` of the
    (n, t) matrix ``values`` is node ``v``'s vector; both are held as
    int64 arrays.  Pass it to :class:`~repro.congest.engine.Engine` in
    place of a program dict: the bulk loop runs it with no per-node
    object, and :meth:`programs` builds the per-node
    :class:`UpcastProgram` objects only for the per-node loop.
    """

    parent: np.ndarray
    values: np.ndarray
    combine: Callable[[int, int], int]
    domain: int

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.ndim != 2 or len(self.values) != len(self.parent):
            raise ValueError(
                f"need one value row per node: {len(self.parent)} nodes, "
                f"values of shape {self.values.shape}"
            )

    def programs(self) -> Dict[int, UpcastProgram]:
        parent = self.parent.tolist()
        kids = _children(parent)
        length = self.values.shape[1]
        return {
            v: UpcastProgram(
                v, None if p < 0 else p, kids[v], row, self.combine,
                self.domain, length,
            )
            for v, (p, row) in enumerate(zip(parent, self.values.tolist(), strict=True))
        }


@dataclass(eq=False)
class Downcast:
    """A broadcast handed to the engine as arrays: the tree
    (:func:`parent_array`) and the root's row ``values``, held as int64
    arrays.  As for :class:`Upcast`, :meth:`programs` is only for the
    per-node loop."""

    parent: np.ndarray
    values: np.ndarray
    domain: int

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.int64).reshape(-1)

    def programs(self) -> Dict[int, DowncastProgram]:
        parent = self.parent.tolist()
        kids = _children(parent)
        row = self.values.tolist()
        return {
            v: DowncastProgram(
                v, None if p < 0 else p, kids[v], row if p < 0 else None,
                self.domain, len(row),
            )
            for v, p in enumerate(parent)
        }


#: A tree as a :class:`BFSResult` or as its :func:`parent_array`.
Tree = Union[BFSResult, np.ndarray]


def _parents(tree: Tree, n: int) -> Tuple[np.ndarray, int]:
    """(parent array, root) of a tree given either way."""
    if isinstance(tree, BFSResult):
        return parent_array(tree, n), tree.root
    return tree, int(np.flatnonzero(tree < 0)[0])


def _value_matrix(
    values: Union[Mapping[int, Sequence[int]], np.ndarray], n: int
) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values
    lengths = {len(v) for v in values.values()}
    if len(lengths) != 1:
        raise ValueError(f"all nodes must hold equal-length vectors, got {lengths}")
    return np.array([values[v] for v in range(n)], dtype=np.int64)


def transfer_steps(
    network: Network,
    transfer: Union[Upcast, Downcast],
    seed: Optional[int] = None,
) -> Iterator[int]:
    """Run a transfer one engine round per ``next()``; returns the
    engine's :class:`~repro.congest.engine.RunResult`."""
    stepper = Engine(network, transfer, seed=seed).stepper()
    while stepper.step():
        yield stepper.rounds
    return stepper.result


def pipelined_upcast(
    network: Network,
    tree: Tree,
    values: Union[Mapping[int, Sequence[int]], np.ndarray],
    combine: Callable[[int, int], int],
    domain: int,
    seed: Optional[int] = None,
) -> Tuple[Tuple[int, ...], int]:
    """Coordinatewise ⊕ of per-node t-vectors, collected at the tree root.

    ``values`` maps each node to its t-vector, or is the (n, t) int64
    matrix of them.  The engine runs it on its bulk loop when ``combine``
    is in the vectorized combine table, per node otherwise; both are
    bit-identical.

    Returns:
        (combined vector at the root, measured rounds).
    """
    parent, root = _parents(tree, network.n)
    result = Engine(
        network,
        Upcast(parent, _value_matrix(values, network.n), combine, domain),
        seed=seed,
    ).run()
    return tuple(result.outputs[root]), result.rounds


def pipelined_downcast(
    network: Network,
    tree: Tree,
    values: Union[Sequence[int], np.ndarray],
    domain: int,
    seed: Optional[int] = None,
) -> Tuple[Dict[int, Tuple[int, ...]], int]:
    """Broadcast a t-vector from the tree root to every node.

    Returns:
        (per-node received vectors, measured rounds).
    """
    parent, _ = _parents(tree, network.n)
    result = Engine(network, Downcast(parent, values, domain), seed=seed).run()
    return result.outputs, result.rounds


def aggregate_single(
    network: Network,
    tree: BFSResult,
    values: Dict[int, int],
    combine: Callable[[int, int], int],
    domain: int,
    seed: Optional[int] = None,
) -> Tuple[int, int]:
    """Convergecast a single bounded value per node to the root.

    Returns:
        (combined value, measured rounds).
    """
    vectors = {v: [values[v]] for v in network.nodes()}
    combined, rounds = pipelined_upcast(
        network, tree, vectors, combine, domain, seed=seed
    )
    return combined[0], rounds

