"""Theorem 8 / Corollary 9: running parallel-query algorithms over CONGEST.

The central construction of the paper.  A leader runs a (b, p)-parallel-
query quantum algorithm for F; each batch of p queries j₁..j_p ∈ [k] is
served by the network:

1. the indices are distributed down the BFS tree (Lemma 7 on ⊗ᵢ|jᵢ>,
   p·⌈log k/log n⌉ + D rounds),
2. every node contributes x^{(v)}_{jᵢ} and the tree convergecasts the
   semigroup combination ⊕_v x^{(v)}_{jᵢ}, pipelined over the p values
   ((D + p)·⌈q/log n⌉ rounds), with the children's values uncomputed on
   the way back down,
3. the index distribution is reversed (uncompute).

Total: O(D + b·((D + p)·⌈q/log n⌉ + p·⌈log k/log n⌉ [+ α(p)])) rounds.

Two execution modes:

* ``formula`` — the batch cost is charged from :class:`CostModel` (exact
  paper formula); values are aggregated centrally.  Scales to large n, k.
* ``engine`` — every batch runs *real CONGEST transfers* on the engine: a
  pipelined downcast of the indices, a chunked pipelined upcast of the
  ⊕-aggregation, and the two uncompute passes; rounds are measured, not
  assumed.  Tests assert engine-measured ≈ formula within constant
  factors.  The oracle hands each transfer to the engine as arrays (its
  tree's parent array, cached, and the batch's value matrix, gathered
  from an n × k matrix of the input); the engine builds node programs
  only if it falls back to its per-node loop.

The oracle handed to the algorithm implements
:class:`repro.queries.oracle.BatchOracle`, so every Section 2 algorithm
runs unchanged over the network.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.algorithms.aggregate import (
    Downcast,
    Upcast,
    parent_array,
    transfer_steps,
)
from ..congest.algorithms.bfs import BFSResult, bfs_with_echo
from ..congest.algorithms.leader import elect_leader
from ..congest.network import Network
from ..congest.vectorized import combine_ufuncs
from ..obs.recorder import Recorder, current_recorder
from ..queries.ledger import QueryLedger
from .cost import CostModel, RoundLedger
from .semigroup import Semigroup


@dataclass
class DistributedInput:
    """Per-node input vectors x^{(v)} ∈ A^k and the semigroup that joins them."""

    vectors: Dict[int, List[int]]
    semigroup: Semigroup

    def __post_init__(self):
        lengths = {len(v) for v in self.vectors.values()}
        if len(lengths) != 1:
            raise ValueError(f"all nodes must hold length-k vectors, got {lengths}")
        self.k = lengths.pop()
        if self.k == 0:
            raise ValueError("input vectors must be non-empty")

    def aggregated(self) -> List[int]:
        """⊕_v x^{(v)}, the effective input string (ground truth).

        Folds one node's row at a time into a single int64 accumulator
        with the combine's ufunc, from the table the bulk tree transfers
        use (:func:`repro.congest.vectorized.combine_ufuncs`), and returns
        Python ints.  It never holds an n × k matrix.  Values are read as
        the integers they denote, so a narrow numpy scalar type does not
        wrap and a numpy bool adds as 0 or 1.

        The scalar fold runs instead for a combine outside that table, and
        for values int64 cannot hold exactly: a row that does not convert
        to a signed integer array (floats, objects, ints past int64,
        uint64), or a sum whose partial totals could leave int64.
        """
        rows = [self.vectors[v] for v in sorted(self.vectors)]
        ufunc = combine_ufuncs().get(self.semigroup.combine)
        folded = _int64_fold(ufunc, rows) if ufunc is not None else None
        if folded is not None:
            return folded
        out = list(rows[0])
        for vec in rows[1:]:
            out = [
                self.semigroup.combine(a, b)
                for a, b in zip(out, vec, strict=True)
            ]
        return out


_INT64 = np.iinfo(np.int64)


def _int64_fold(ufunc: np.ufunc, rows: Sequence) -> Optional[List[int]]:
    """``ufunc`` folded over ``rows`` in int64, or None if not exact."""
    acc = None
    high = low = 0
    for vec in rows:
        row = np.asarray(vec)
        kind = row.dtype.kind
        if row.ndim != 1 or not (
            kind in "bi" or (kind == "u" and row.dtype.itemsize < 8)
        ):
            return None
        if ufunc is np.add and row.size:
            # Bounds on every partial sum, in any order.
            high += max(int(row.max()), 0)
            low += min(int(row.min()), 0)
            if high > _INT64.max or low < _INT64.min:
                return None
        if acc is None:
            acc = row.astype(np.int64)
        else:
            ufunc(acc, row, out=acc)
    return acc.tolist()


class ValueComputer:
    """Corollary 9 hook: compute a batch of values on the fly.

    ``compute(indices)`` returns ``(values, rounds)`` where ``values`` maps
    each index j to a sparse per-node dict {v: x_j^{(v)}} (nodes absent
    from the dict hold the semigroup identity).  Graph applications
    implement this with multi-source BFS etc.; ``rounds`` is the measured
    or charged α cost of computing that batch.
    """

    def compute(
        self, indices: Sequence[int]
    ) -> Tuple[Dict[int, Dict[int, int]], int]:
        raise NotImplementedError

    def alpha(self, p: int) -> int:
        """The formula-mode α(p) charge."""
        raise NotImplementedError


def drive(gen: Iterator) -> object:
    """Drain a round generator and return its ``StopIteration`` value."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


class CongestBatchOracle:
    """A :class:`BatchOracle` whose queries cost CONGEST rounds.

    Not constructed directly — use :func:`run_framework`.
    """

    def __init__(
        self,
        network: Network,
        dist_input: Optional[DistributedInput],
        parallelism: int,
        mode: str,
        tree: BFSResult,
        cost_model: CostModel,
        round_ledger: RoundLedger,
        computer: Optional[ValueComputer] = None,
        k: Optional[int] = None,
        seed: Optional[int] = None,
        semigroup: Optional[Semigroup] = None,
        recorder: Optional[Recorder] = None,
    ):
        if mode not in ("formula", "engine"):
            raise ValueError(f"unknown mode {mode!r}")
        if dist_input is None and computer is None:
            raise ValueError("need either a DistributedInput or a ValueComputer")
        self.network = network
        self.dist_input = dist_input
        self.semigroup = dist_input.semigroup if dist_input is not None else semigroup
        self.recorder = recorder if recorder is not None else current_recorder()
        self.ledger = QueryLedger(parallelism, recorder=self.recorder)
        self.mode = mode
        self.tree = tree
        self.cost_model = cost_model
        self.rounds = round_ledger
        self.computer = computer
        self._k = k if k is not None else dist_input.k
        self._seed = seed
        self._cache: Dict[int, int] = {}
        self._cache_vectors: Dict[int, Dict[int, int]] = {}
        self._full: Optional[List[int]] = (
            dist_input.aggregated() if dist_input is not None else None
        )
        #: Engine mode only, built on its first batch: the tree's parent
        #: array, and the input as an n × (k + 1) int64 matrix whose last
        #: column is the semigroup identity (a formula-mode oracle never
        #: pays for it: at k = 2**15 it would be megabytes).
        self._parents: Optional[np.ndarray] = None
        self._inputs: Optional[np.ndarray] = None

    # -- BatchOracle interface ------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    def query_batch(self, indices: Sequence[int], label: str = "") -> List:
        return drive(self.query_batch_steps(indices, label=label))

    def query_batch_steps(
        self, indices: Sequence[int], label: str = ""
    ) -> Iterator[int]:
        """Stepwise :meth:`query_batch`: one engine round per ``next()``.

        Yields the engine's round number after each round of the three
        transfers (distribute, convergecast, uncompute) and returns the
        batch values via ``StopIteration``.  Formula-mode batches have no
        engine rounds and return without yielding.  :meth:`query_batch`
        drives this same generator, so the stepwise path is bit-identical
        (values, charges, events) to the blocking one; the
        :mod:`repro.serve` daemon interleaves many of these generators on
        one event loop.
        """
        indices = list(indices)
        for j in indices:
            if not 0 <= j < self._k:
                raise IndexError(f"query index {j} out of range [0, {self._k})")
        self.ledger.record(len(indices), label=label)
        semigroup = self.semigroup
        q_bits = semigroup.bits if semigroup is not None else self.cost_model.word_bits

        alpha_rounds = 0
        if self.computer is not None:
            missing = [j for j in indices if j not in self._cache]
            if missing:
                computed, _ = self.computer.compute(missing)
                # Values are deterministic so they are cached, but α is
                # charged on *every* batch, exactly as the paper's
                # algorithm recomputes them (Corollary 9).
                self._merge_computed(computed)
            alpha_rounds = self.computer.alpha(self.ledger.parallelism)

        if self.mode == "formula":
            self.rounds.charge(
                f"batch:{label or 'query'}",
                self.cost_model.batch_rounds(
                    self.ledger.parallelism, q_bits, self._k, alpha=alpha_rounds
                ),
            )
            return [self._value_of(j) for j in indices]

        # ---- engine mode: run the real protocols --------------------
        if alpha_rounds:
            self.rounds.charge("alpha", alpha_rounds)
        if self._parents is None:
            self._parents = parent_array(self.tree, self.network.n)
        network, parents, seed = self.network, self._parents, self._seed
        # 1. distribute indices (downcast), then 4. its uncompute.
        with self.recorder.span("distribute"):
            down = yield from transfer_steps(
                network, Downcast(parents, indices, max(self._k, 2)), seed
            )
            self.rounds.charge("index-distribute", down.rounds)
        if semigroup is None:
            raise ValueError("engine mode requires a semigroup")
        if semigroup.identity is None:
            raise ValueError(
                "engine-mode chunked streaming requires a monoid identity"
            )
        words = self.cost_model.words(semigroup.bits)
        domain = max(semigroup.domain_size or (1 << semigroup.bits), 2)
        matrix = self._batch_matrix(indices, words, semigroup.identity)
        # 2. chunked pipelined ⊕-convergecast of the p values, and
        # 3. the send-back-down uncompute pass.
        with self.recorder.span("convergecast"):
            up = yield from transfer_steps(
                network, Upcast(parents, matrix, semigroup.combine, domain), seed
            )
            self.rounds.charge("value-upcast", up.rounds)
        combined = up.outputs[self.tree.root]
        # Theorem 8's "sends the x^{(w)} back to the children, who
        # uncompute it": a mirrored downcast of the same volume.
        with self.recorder.span("uncompute"):
            back = yield from transfer_steps(
                network, Downcast(parents, combined, domain), seed
            )
            self.rounds.charge("value-uncompute", back.rounds)
        # Uncompute passes mirror the forward passes round-for-round.
        with self.recorder.span("uncompute"):
            self.rounds.charge("index-uncompute", down.rounds)
        return list(combined[words - 1::words])

    def query_superposed(self, label: str = "") -> None:
        """Meter one *superposed* batch (no concrete indices; DJ-style).

        A single query in superposition over all of [k] costs one batch of
        width 1: the register of ⌈log k⌉ qubits is distributed and
        un-distributed regardless of which indices carry amplitude, so the
        network charge is the standard p = 1 batch cost.
        """
        self.ledger.record(1, label=label)
        semigroup = self.semigroup
        q_bits = (
            semigroup.bits if semigroup is not None else self.cost_model.word_bits
        )
        self.rounds.charge(
            f"batch:{label or 'superposed'}",
            self.cost_model.batch_rounds(1, q_bits, self._k),
        )

    def peek_all(self) -> Sequence:
        if self._full is not None:
            return self._full
        # On-the-fly inputs: the physics peek needs every value; compute
        # them without charging (outcome simulation only, DESIGN.md §3).
        missing = [j for j in range(self._k) if j not in self._cache]
        if missing:
            computed, _ = self.computer.compute(missing)
            self._merge_computed(computed)
        return [self._cache[j] for j in range(self._k)]

    # -- internals -------------------------------------------------------

    def _merge_computed(self, computed: Dict[int, Dict[int, int]]) -> None:
        semigroup = self.semigroup
        for j, per_node in computed.items():
            self._cache_vectors[j] = dict(per_node)
            column = list(per_node.values())
            if semigroup is not None:
                self._cache[j] = semigroup.fold(column)
            elif column:
                # With no semigroup supplied the computer's values must
                # already be node-disjoint single contributions.
                if len(column) != 1:
                    raise ValueError(
                        "a ValueComputer without a semigroup must return "
                        "exactly one contribution per index"
                    )
                self._cache[j] = column[0]
            else:
                raise ValueError(f"computer returned no value for index {j}")

    def _value_of(self, j: int) -> int:
        if self._full is not None:
            return self._full[j]
        return self._cache[j]

    def _batch_matrix(
        self, indices: Sequence[int], words: int, identity: int
    ) -> np.ndarray:
        """Row v: node v's upcast vector for the batch.

        Each logical value occupies ``words`` slots; the value rides in
        the last slot, identity pads the rest (combine(identity, ·) = id).
        A :class:`DistributedInput` is gathered in one indexing step from
        an n × (k + 1) matrix whose last column is the identity, built on
        the first batch; computed values (nodes absent from a column hold
        the identity) are filled in per batch.
        """
        n = self.network.n
        if self.dist_input is not None:
            if self._inputs is None:
                vectors = self.dist_input.vectors
                self._inputs = np.array(
                    [list(vectors[v]) + [identity] for v in range(n)],
                    dtype=np.int64,
                )
            slots = np.full((len(indices), words), self._k, dtype=np.int64)
            slots[:, -1] = indices
            return self._inputs[:, slots.ravel()]
        matrix = np.full((n, len(indices) * words), identity, dtype=np.int64)
        for i, j in enumerate(indices):
            per_node = self._cache_vectors[j]
            matrix[:, i * words + words - 1] = [
                per_node.get(v, identity) for v in range(n)
            ]
        return matrix


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything that parameterizes one framework execution, frozen.

    The canonical way to call the framework is::

        run_framework(network, algorithm, config=FrameworkConfig(
            parallelism=p, dist_input=di, mode="engine", seed=0,
        ))

    A config is immutable and reusable: sweeps derive variants with
    :meth:`replace` (``cfg.replace(seed=trial)``) instead of re-spelling
    every keyword argument per call, and the :mod:`repro.sched` scheduler
    takes the same object to describe the shared oracle it serves.

    Attributes mirror the historical ``run_framework`` parameters; see
    that function's docstring for their semantics.  No attribute picks
    the engine's round loop: engine-mode batches run their distribute,
    convergecast and uncompute protocols on the engine's default loop,
    which is bit-identical to the per-node ones in values and charges.
    """

    parallelism: int
    dist_input: Optional[DistributedInput] = None
    computer: Optional[ValueComputer] = None
    k: Optional[int] = None
    mode: str = "formula"
    seed: Optional[int] = None
    leader: Optional[int] = None
    semigroup: Optional[Semigroup] = None

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.mode not in ("formula", "engine"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def replace(self, **changes) -> "FrameworkConfig":
        """A copy with the given fields swapped (sweep-friendly)."""
        return dataclasses.replace(self, **changes)


@dataclass
class FrameworkRun:
    """Everything a framework execution produced."""

    result: object
    rounds: RoundLedger
    query_ledger: QueryLedger
    leader: int
    tree_depth: int
    mode: str

    @property
    def total_rounds(self) -> int:
        return self.rounds.total

    @property
    def batches(self) -> int:
        return self.query_ledger.batches


@dataclass(frozen=True)
class PreparedNetwork:
    """The reusable setup phase of Theorem 8: leader + BFS tree.

    Leader election and BFS-with-echo are deterministic given
    ``(network, seed, leader)``, so repeated :func:`run_framework` calls on
    the same topology redo identical work.  A :class:`PreparedNetwork`
    carries the elected leader, the tree, and the round counts the setup
    *would* cost, so a cached replay charges exactly what a fresh run
    charges — cost accounting is unchanged, only wall-time is saved.
    """

    leader: int
    election_rounds: Optional[int]  # None when the leader was designated
    tree: BFSResult
    seed: Optional[int]

    def charge_setup(self, rounds: RoundLedger) -> None:
        """Replay the setup charges exactly as a fresh run would."""
        if self.election_rounds is not None:
            rounds.charge("setup:leader-election", self.election_rounds)
        rounds.charge("setup:bfs-tree", self.tree.rounds)


#: Default entry bound of the process-wide setup cache.  Generous for
#: interactive sweeps, and finite so a long-lived daemon serving a churn
#: of topologies (:mod:`repro.serve`) cannot grow setup state without
#: bound — the warm-pool satellite of ISSUE 6.
DEFAULT_PREPARED_CACHE_ENTRIES = 256


class PreparedCache:
    """A bounded LRU of setup phases, keyed by topology fingerprint.

    Keys are ``(topology fingerprint, seed, leader)``: the setup
    protocols are deterministic in exactly those inputs, so two distinct
    :class:`~repro.congest.network.Network` objects with identical edge
    sets share one cached :class:`PreparedNetwork` — which is what lets
    the :mod:`repro.serve` daemon keep a warm pool across reconnecting
    tenants that each hand it their own Network instance.

    Eviction is least-recently-*used* (a lookup hit refreshes the entry)
    and only ever costs wall-time: a re-prepared setup is bit-identical
    to the evicted one, and charges are replayed identically either way.
    ``hits``/``misses``/``evictions`` counters feed
    :func:`prepared_cache_stats` and the daemon's pool report.  An entry
    never goes stale: a network's graph is frozen, so its fingerprint
    names one edge set for good.
    """

    def __init__(self, max_entries: Optional[int] = DEFAULT_PREPARED_CACHE_ENTRIES):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when set")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, PreparedNetwork]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def prepare(
        self,
        network: Network,
        seed: Optional[int] = None,
        leader: Optional[int] = None,
    ) -> PreparedNetwork:
        """Fetch the cached setup phase for ``network``, building on miss."""
        cache_key = (network.topology_fingerprint(), seed, leader)
        prepared = self._entries.get(cache_key)
        if prepared is not None:
            self._entries.move_to_end(cache_key)
            self.hits += 1
        else:
            self.misses += 1
            if leader is None:
                election = elect_leader(network, seed=seed)
                prepared_leader = election.leader
                election_rounds: Optional[int] = election.rounds
            else:
                prepared_leader = leader
                election_rounds = None
            tree = bfs_with_echo(network, prepared_leader, seed=seed)
            prepared = PreparedNetwork(
                leader=prepared_leader,
                election_rounds=election_rounds,
                tree=tree,
                seed=seed,
            )
            self._entries[cache_key] = prepared
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                self._entries.popitem(last=False)
                self.evictions += 1
        return prepared

    def stats(self) -> Dict[str, Optional[int]]:
        """Counters for observability: size, bound, hits/misses/evictions."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide setup cache every run takes its setup phase from.
_PREPARED = PreparedCache()


def prepare_network(
    network: Network,
    seed: Optional[int] = None,
    leader: Optional[int] = None,
) -> PreparedNetwork:
    """Run (or fetch the cached) setup phase for a network.

    The process-wide :class:`PreparedCache` is keyed by ``(topology
    fingerprint, seed, leader)``: the setup protocols are deterministic
    in those inputs, so the cached tree is bit-identical to a recomputed
    one.
    """
    return _PREPARED.prepare(network, seed=seed, leader=leader)


def prepared_cache_stats() -> Dict[str, Optional[int]]:
    """Hit/miss/eviction counters of the process-wide setup cache."""
    return _PREPARED.stats()


def setup_network(
    network: Network, config: FrameworkConfig, rounds: RoundLedger
) -> PreparedNetwork:
    """Resolve (and charge) the setup phase a config asks for.

    Shared by :func:`run_framework` and the :mod:`repro.sched` scheduler
    so both charge setup identically: the process-wide cache runs the
    election and BFS on a miss.
    """
    prepared = prepare_network(network, seed=config.seed, leader=config.leader)
    prepared.charge_setup(rounds)
    return prepared


def build_oracle(
    network: Network,
    config: FrameworkConfig,
    tree: BFSResult,
    rounds: RoundLedger,
    recorder: Recorder,
) -> CongestBatchOracle:
    """The shared-oracle constructor both execution paths use."""
    return CongestBatchOracle(
        network=network,
        dist_input=config.dist_input,
        parallelism=config.parallelism,
        mode=config.mode,
        tree=tree,
        cost_model=CostModel.for_network(network),
        round_ledger=rounds,
        computer=config.computer,
        k=config.k,
        seed=config.seed,
        semigroup=config.semigroup,
        recorder=recorder,
    )


def run_framework(
    network: Network,
    algorithm: Callable[[CongestBatchOracle, np.random.Generator], object],
    *,
    config: Optional[FrameworkConfig] = None,
) -> FrameworkRun:
    """Evaluate f(x) = F(⊕_v x^{(v)}) per Theorem 8 / Corollary 9.

    Canonical signature (keyword-only)::

        run_framework(network, algorithm, config=FrameworkConfig(...))

    Args:
        network: the CONGEST network.
        algorithm: a parallel-query algorithm ``(oracle, rng) -> result``
            (any of :mod:`repro.queries`, or custom).
        config: a frozen :class:`FrameworkConfig` carrying everything
            else — parallelism p (the paper's applications use p=D),
            ``dist_input`` (Theorem 8 per-node vectors + semigroup) or
            ``computer``/``k`` (Corollary 9 on-the-fly values), ``mode``
            (``formula`` charged costs vs ``engine`` measured costs),
            ``seed`` and an optional designated ``leader``.  The setup
            phase comes from the process-wide cache, and the run records
            on the ambient recorder (:func:`repro.obs.install`), wrapped
            in ``setup``/``query`` spans with ``distribute``/
            ``convergecast``/``uncompute`` sub-spans per engine-mode
            batch.

    Returns:
        a :class:`FrameworkRun` with the algorithm result, per-phase round
        ledger, and query ledger.
    """
    if config is None:
        raise TypeError("run_framework() needs config=FrameworkConfig(...)")

    rec = current_recorder()
    rounds = RoundLedger(recorder=rec, model=network.model.event_token)
    rng = np.random.default_rng(config.seed)

    with rec.span("setup"):
        prepared = setup_network(network, config, rounds)
    tree = prepared.tree

    oracle = build_oracle(network, config, tree, rounds, rec)
    with rec.span("query"):
        result = algorithm(oracle, rng)
    return FrameworkRun(
        result=result,
        rounds=rounds,
        query_ledger=oracle.ledger,
        leader=prepared.leader,
        tree_depth=tree.eccentricity,
        mode=config.mode,
    )
