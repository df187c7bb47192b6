"""APSP workload family in the CONGEST-CLIQUE model (Izumi–Le Gall).

PR 8's second workload family, and the reason the communication-model
layer exists: all-pairs shortest paths is *the* CONGEST-CLIQUE benchmark.
[IL19] give a quantum algorithm running in Õ(n^{1/4}) rounds via
distributed quantum search over distance products, against the best
classical Õ(n^{1/3}) [CKK+15, semiring matrix multiplication] — a
separation that only exists because every pair of nodes shares an
O(log n)-bit logical link.

Two layers, mirroring the repo's formula/engine split:

* **Charged bounds** — :func:`quantum_apsp_bound` /
  :func:`classical_apsp_bound` are the Õ(n^{1/4}) and Õ(n^{1/3}) round
  formulas (log factors explicit, constants 1).  E21 sweeps and fits
  them.
* **Engine harness** — :class:`AdjacencyBroadcastProgram` really runs on
  a :func:`repro.congest.topologies.clique` network: each node
  broadcasts its input-graph adjacency row one O(log n)-bit entry per
  round over the all-pairs links, then solves APSP locally.  It is the
  trivial O(Δ)-round clique algorithm — not [IL19] — but it exercises
  the whole model seam (all-pairs admission, per-pair bandwidth,
  broadcast fan-out n−1) and its outputs are validated against ground
  truth, so the charged-formula layer sits on a substrate that is
  checked end to end.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest import topologies
from ..congest.encoding import Field
from ..congest.engine import RunResult, run_program
from ..congest.errors import CongestError
from ..congest.messages import Inbox
from ..congest.network import Network
from ..congest.program import Context, NodeProgram


def quantum_apsp_bound(n: int) -> float:
    """[IL19]: Õ(n^{1/4}) rounds for exact APSP (log factor explicit)."""
    n = max(n, 2)
    return n ** 0.25 * math.ceil(math.log2(n))


def classical_apsp_bound(n: int) -> float:
    """[CKK+15]: Õ(n^{1/3}) rounds via semiring matrix multiplication."""
    n = max(n, 2)
    return n ** (1.0 / 3.0) * math.ceil(math.log2(n))


class AdjacencyBroadcastProgram(NodeProgram):
    """Clique row-broadcast: learn the whole input graph, solve locally.

    Round 0 (``on_start``) broadcasts the node's input-graph degree;
    round r ≥ 1 broadcasts its r-th input neighbor as a
    ``Field(·, domain=n)`` (one id per pair per round — exactly the
    logical-link budget).  After ``max_degree`` edge rounds every node
    has every edge, runs a local BFS from itself, and halts with its
    distance row (−1 marks unreachable nodes).
    """

    def __init__(self, row: Sequence[int]):
        self.row: Tuple[int, ...] = tuple(row)
        self.degrees: Dict[int, int] = {}
        self.edges: set = set()
        self.horizon: Optional[int] = None

    def on_start(self, ctx: Context) -> None:
        """Announce this node's input-graph degree to every peer."""
        self.degrees[ctx.node] = len(self.row)
        for u in self.row:
            self.edges.add((min(ctx.node, u), max(ctx.node, u)))
        ctx.broadcast(("d", Field(len(self.row), domain=ctx.n)))

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        """Absorb one broadcast wave; send the next row entry; maybe halt."""
        for msg in inbox:
            tag, field = msg.payload
            if tag == "d":
                self.degrees[msg.src] = field.value
            else:
                self.edges.add((min(msg.src, field.value),
                                max(msg.src, field.value)))
        if ctx.round == 1:
            # Degrees are in; the last edge wave lands at round max_deg+1.
            self.horizon = max(self.degrees.values()) + 1
        if ctx.round <= len(self.row):
            ctx.broadcast(
                ("e", Field(self.row[ctx.round - 1], domain=ctx.n))
            )
        if self.horizon is not None and ctx.round >= self.horizon:
            ctx.halt(self._distance_row(ctx.node, ctx.n))
        else:
            # Peers with longer rows may still be silent toward us in a
            # given round; guarantee we run until the known horizon.
            ctx.request_wakeup()

    def _distance_row(self, source: int, n: int) -> Tuple[int, ...]:
        """BFS over the collected edge set; −1 for unreachable nodes."""
        adj: Dict[int, List[int]] = {v: [] for v in range(n)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return tuple(dist)


@dataclass(frozen=True)
class CliqueAPSPResult:
    """Measured output of the engine-mode clique row-broadcast harness.

    Attributes:
        distances: ``distances[v][u]`` = hop distance in the *input*
            graph (−1 if unreachable), as computed locally by node v.
        rounds: engine rounds consumed (Θ(max degree)).
        bits: total bits shipped over the clique's logical links.
        run: the raw engine :class:`~repro.congest.engine.RunResult`.
    """

    distances: Tuple[Tuple[int, ...], ...]
    rounds: int
    bits: int
    run: RunResult


def broadcast_apsp(
    graph: Network,
    seed: Optional[int] = None,
) -> CliqueAPSPResult:
    """Solve APSP on ``graph`` by row-broadcast over a CONGEST-CLIQUE.

    The *input* is ``graph``'s topology; the *communication* network is
    a fresh ``topologies.clique(graph.n)`` — n² logical O(log n) links.
    Every message goes through the clique model's admission check, so
    this doubles as an end-to-end test of the PR 8 model seam.  The
    clique model has no CSR port, so the engine runs it per node.
    """
    n = graph.n
    if n < 2:
        raise CongestError(f"broadcast APSP needs n >= 2, got {n}")
    comm = topologies.clique(n)
    programs = {
        v: AdjacencyBroadcastProgram(graph.neighbors(v)) for v in range(n)
    }
    max_degree = max(graph.degree(v) for v in range(n))
    run = run_program(
        comm, programs, seed=seed, max_rounds=max(max_degree + 8, 16),
    )
    distances = tuple(run.output_of(v) for v in range(n))
    return CliqueAPSPResult(
        distances=distances,
        rounds=run.rounds,
        bits=run.stats.bits,
        run=run,
    )


def verify_distances(graph: Network, result: CliqueAPSPResult) -> bool:
    """Check every node's distance row against single-source BFS truth."""
    for v in range(graph.n):
        truth = graph.distances_from(v)
        row = result.distances[v]
        for u in range(graph.n):
            if row[u] != truth.get(u, -1):
                return False
    return True


@dataclass(frozen=True)
class APSPDuel:
    """One size's quantum-vs-classical CONGEST-CLIQUE APSP comparison.

    ``engine_rounds``/``correct`` are populated only when the duel also
    ran the row-broadcast validation harness (small n).
    """

    n: int
    quantum_rounds: float
    classical_rounds: float
    engine_rounds: Optional[int]
    correct: Optional[bool]

    @property
    def quantum_wins(self) -> bool:
        """Whether the charged quantum bound undercuts the classical one."""
        return self.quantum_rounds < self.classical_rounds


def apsp_duel(
    n: int,
    seed: int = 0,
    validate: Optional[bool] = None,
) -> APSPDuel:
    """Charged Õ(n^{1/4}) vs Õ(n^{1/3}) at size n, optionally validated.

    ``validate`` defaults to ``n <= 64``: below that the duel also runs
    the engine harness on a connected G(n, p) sample and checks its APSP
    output against ground truth, so sweeps stay honest without paying
    O(n²·Δ) message simulation at every size.
    """
    if validate is None:
        validate = n <= 64
    engine_rounds: Optional[int] = None
    correct: Optional[bool] = None
    if validate:
        p = min(0.9, 2.5 * math.log(max(n, 2)) / max(n, 2))
        graph = topologies.erdos_renyi(n, p, seed=seed)
        result = broadcast_apsp(graph, seed=seed)
        engine_rounds = result.rounds
        correct = verify_distances(graph, result)
    return APSPDuel(
        n=n,
        quantum_rounds=quantum_apsp_bound(n),
        classical_rounds=classical_apsp_bound(n),
        engine_rounds=engine_rounds,
        correct=correct,
    )


def sweep_apsp(
    ns: Sequence[int], seed: int = 0
) -> List[APSPDuel]:
    """Duel across sizes; log–log fits of the two columns give ≈ ¼ vs ⅓."""
    return [apsp_duel(n, seed=seed) for n in ns]
