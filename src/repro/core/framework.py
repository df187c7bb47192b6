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
* ``engine`` — every batch runs *real node programs*: a pipelined downcast
  of the indices, a chunked pipelined upcast of the ⊕-aggregation, and the
  two uncompute passes; rounds are measured, not assumed.  Tests assert
  engine-measured ≈ formula within constant factors.

The oracle handed to the algorithm implements
:class:`repro.queries.oracle.BatchOracle`, so every Section 2 algorithm
runs unchanged over the network.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.algorithms.aggregate import (
    downcast_steps,
    drive,
    upcast_steps,
)
from ..congest.algorithms.bfs import BFSResult, bfs_with_echo
from ..congest.algorithms.leader import elect_leader
from ..congest.csr import CSRAdjacency, csr_for, invalidate_csr
from ..congest.errors import CongestError
from ..congest.models import CommModel, resolve_model
from ..congest.network import Network
from ..obs.recorder import Recorder, current_recorder, install
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
        """⊕_v x^{(v)}, the effective input string (ground truth)."""
        nodes = sorted(self.vectors)
        out = list(self.vectors[nodes[0]])
        for v in nodes[1:]:
            vec = self.vectors[v]
            out = [self.semigroup.combine(a, b) for a, b in zip(out, vec)]
        return out


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

    # -- BatchOracle interface ------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    def query_batch(self, indices: Sequence[int], label: str = "") -> List:
        return drive(self.query_batch_steps(indices, label=label))

    def query_batch_steps(
        self, indices: Sequence[int], label: str = ""
    ) -> Iterator[Tuple[str, int]]:
        """Stepwise :meth:`query_batch`: one engine round per ``next()``.

        Yields ``(phase, round_no)`` pairs — phase is ``distribute``,
        ``convergecast``, or ``uncompute`` — while the real node programs
        execute, and returns the batch values via ``StopIteration``.
        Formula-mode batches have no engine rounds and return without
        yielding.  :meth:`query_batch` drives this same generator, so the
        stepwise path is bit-identical (values, charges, events) to the
        blocking one; the :mod:`repro.serve` daemon interleaves many of
        these generators on one event loop.
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
        # 1. distribute indices (downcast), then 4. its uncompute.
        with self.recorder.span("distribute"):
            gen = downcast_steps(
                self.network, self.tree, indices, domain=max(self._k, 2),
                seed=self._seed,
            )
            down_rounds = None
            while down_rounds is None:
                try:
                    round_no = next(gen)
                except StopIteration as stop:
                    _, down_rounds = stop.value
                else:
                    yield ("distribute", round_no)
            self.rounds.charge("index-distribute", down_rounds)
        # 2. chunked pipelined ⊕-convergecast of the p values, and
        # 3. the send-back-down uncompute pass.
        values = yield from self._engine_aggregate_steps(indices, semigroup)
        # Uncompute passes mirror the forward passes round-for-round.
        with self.recorder.span("uncompute"):
            self.rounds.charge("index-uncompute", down_rounds)
        return values

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

    def _engine_aggregate_steps(
        self, indices: Sequence[int], semigroup: Optional[Semigroup]
    ) -> Iterator[Tuple[str, int]]:
        if semigroup is None:
            raise ValueError("engine mode requires a semigroup")
        if semigroup.identity is None:
            raise ValueError(
                "engine-mode chunked streaming requires a monoid identity"
            )
        words = self.cost_model.words(semigroup.bits)
        identity = semigroup.identity
        domain = max(semigroup.domain_size or (1 << semigroup.bits), 2)
        # Each logical value occupies `words` slots; the value rides in the
        # last slot, identity pads the rest (combine(identity, ·) = id).
        per_node_vectors: Dict[int, List[int]] = {}
        for v in self.network.nodes():
            row = []
            for j in indices:
                row.extend([identity] * (words - 1))
                if self.dist_input is not None:
                    row.append(self.dist_input.vectors[v][j])
                else:
                    row.append(self._cache_vectors[j].get(v, identity))
            per_node_vectors[v] = row
        with self.recorder.span("convergecast"):
            gen = upcast_steps(
                self.network,
                self.tree,
                per_node_vectors,
                combine=semigroup.combine,
                domain=domain,
                seed=self._seed,
            )
            combined = None
            while combined is None:
                try:
                    round_no = next(gen)
                except StopIteration as stop:
                    combined, up_rounds = stop.value
                else:
                    yield ("convergecast", round_no)
            self.rounds.charge("value-upcast", up_rounds)
        # Theorem 8's "sends the x^{(w)} back to the children, who
        # uncompute it": a mirrored downcast of the same volume.
        with self.recorder.span("uncompute"):
            gen = downcast_steps(
                self.network,
                self.tree,
                list(combined),
                domain=domain,
                seed=self._seed,
            )
            down_rounds = None
            while down_rounds is None:
                try:
                    round_no = next(gen)
                except StopIteration as stop:
                    _, down_rounds = stop.value
                else:
                    yield ("uncompute", round_no)
            self.rounds.charge("value-uncompute", down_rounds)
        values = [combined[i * words + (words - 1)] for i in range(len(indices))]
        return values


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything that parameterizes one framework execution, frozen.

    The canonical way to call the framework is::

        run_framework(network, algorithm, config=FrameworkConfig(
            parallelism=p, dist_input=di, mode="engine", seed=0,
        ))

    A config is immutable and reusable: sweeps derive variants with
    :meth:`replace` (``cfg.replace(seed=trial)``) instead of re-spelling
    ten keyword arguments per call, and the :mod:`repro.sched` scheduler
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
    prepared: Optional["PreparedNetwork"] = None
    recorder: Optional[Recorder] = None
    #: Communication model this run is declared for: a
    #: :class:`~repro.congest.models.CommModel` instance, a registered
    #: model name (``"congest"``, ``"congest-clique"``, ``"local"``), or
    #: ``None`` (the default) to accept whatever model the network
    #: carries.  When set, :func:`build_oracle` rejects a network whose
    #: model differs — a sweep config can't silently run under the wrong
    #: rules.  Names are normalized to model instances at construction,
    #: so two configs naming the same model compare equal.
    comm_model: "CommModel | str | None" = None
    #: Declared scenario (:class:`repro.scenarios.Scenario`) or ``None``
    #: (the default, and the paper's perfect-unit-cost setting).  When
    #: set, :func:`run_framework` additionally prices the run's charged
    #: rounds on the scenario's classical and quantum links
    #: (:attr:`FrameworkRun.wall_clock_us`) and emits ``scenario``
    #: events on the spine — pure annotation: round accounting, results,
    #: and scenario-free traces are byte-identical with or without it.
    scenario: "object | None" = None

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.mode not in ("formula", "engine"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.comm_model is not None:
            # Normalize (and validate) once, under frozen semantics.
            object.__setattr__(
                self, "comm_model", resolve_model(self.comm_model)
            )
        if self.scenario is not None:
            # Deferred import: repro.scenarios imports this module's
            # siblings, so validating here with a top-level import would
            # be circular.
            from ..scenarios.spec import Scenario

            if not isinstance(self.scenario, Scenario):
                raise TypeError(
                    f"scenario must be a repro.scenarios.Scenario, got "
                    f"{type(self.scenario).__name__}"
                )

    def replace(self, **changes) -> "FrameworkConfig":
        """A copy with the given fields swapped (sweep-friendly)."""
        return dataclasses.replace(self, **changes)


@dataclass
class FrameworkRun:
    """Everything a framework execution produced.

    ``wall_clock_us`` is populated only when the config declared a
    :class:`~repro.scenarios.Scenario`: the charged rounds priced on the
    scenario's links, keyed by link name ("Mind the Õ" annotation; the
    round ledger itself is unchanged).
    """

    result: object
    rounds: RoundLedger
    query_ledger: QueryLedger
    leader: int
    tree_depth: int
    mode: str
    wall_clock_us: Optional[Dict[str, float]] = None

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
    #: Topology fingerprint of the network the tree was built on (the
    #: staleness tripwire); None for hand-built PreparedNetworks.
    topology_fingerprint: Optional[str] = None
    #: Column-major adjacency of the same topology, shared with the
    #: vectorized engine's CSR cache (PR 7).  Attached by
    #: :class:`PreparedCache` so engine-mode batches, which run on the
    #: engine's bulk loop, never rebuild adjacency; ``None``
    #: for hand-built PreparedNetworks (the engine then builds/caches its
    #: own).  Carries no round charges — CSR is a simulator-side layout,
    #: not a protocol.
    csr: Optional[CSRAdjacency] = None

    def charge_setup(self, rounds: RoundLedger) -> None:
        """Replay the setup charges exactly as a fresh run would."""
        if self.election_rounds is not None:
            rounds.charge("setup:leader-election", self.election_rounds)
        rounds.charge("setup:bfs-tree", self.tree.rounds)


class StalePreparedNetworkError(RuntimeError):
    """A cached PreparedNetwork no longer matches its network's topology.

    Raised by :func:`prepare_network` when the fingerprint recorded at
    cache-fill time differs from the network's current edge set — i.e.
    the graph was mutated in place without :func:`invalidate_prepared`.
    Before this tripwire existed the stale BFS tree was silently reused.
    """


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
    :func:`prepared_cache_stats` and the daemon's pool report.

    The staleness tripwire survives the fingerprint keying: a weak side
    table remembers which fingerprint each *Network object* was last
    prepared with under each ``(seed, leader)``; preparing the same
    object after an in-place graph mutation raises
    :class:`StalePreparedNetworkError` instead of silently rebuilding,
    because an in-place mutation is almost always an accounting bug in
    the caller (see :func:`invalidate_prepared`).
    """

    def __init__(self, max_entries: Optional[int] = DEFAULT_PREPARED_CACHE_ENTRIES):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when set")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, PreparedNetwork]" = OrderedDict()
        self._seen: "weakref.WeakKeyDictionary[Network, Dict[Tuple, str]]" = (
            weakref.WeakKeyDictionary()
        )
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
        fingerprint = network.topology_fingerprint()
        seen = self._seen.get(network)
        key = (seed, leader)
        if seen is not None and seen.get(key) not in (None, fingerprint):
            raise StalePreparedNetworkError(
                f"network {network!r} was mutated in place after its setup "
                f"phase was cached (fingerprint {seen[key]} -> "
                f"{fingerprint}); call repro.core.framework."
                f"invalidate_prepared(network) after mutating a topology"
            )
        cache_key = (fingerprint, seed, leader)
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
                topology_fingerprint=fingerprint,
                csr=csr_for(network, fingerprint=fingerprint),
            )
            self._entries[cache_key] = prepared
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                self._entries.popitem(last=False)
                self.evictions += 1
        if seen is None:
            seen = {}
            self._seen[network] = seen
        seen[key] = fingerprint
        return prepared

    def invalidate(self, network: Optional[Network] = None) -> None:
        """Drop cached setup state — for one network, or all of it.

        Also drops the matching CSR adjacency entries: both caches key on
        the topology fingerprint, so a mutation that stales one stales
        the other.
        """
        if network is None:
            self._entries.clear()
            # WeakKeyDictionary.clear() while other threads hold refs is
            # fine; the tripwire table is advisory state only.
            self._seen = weakref.WeakKeyDictionary()
            invalidate_csr(None)
            return
        seen = self._seen.pop(network, None)
        stale = set(seen.values()) if seen else set()
        stale.add(network.topology_fingerprint())
        for cache_key in [
            k for k in self._entries if k[0] in stale
        ]:
            del self._entries[cache_key]
        invalidate_csr(network)

    def stats(self) -> Dict[str, Optional[int]]:
        """Counters for observability: size, bound, hits/misses/evictions."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide setup cache every run without ``prepared`` uses.
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
    one.  Mutating a network's graph in place without
    :func:`invalidate_prepared` raises
    :class:`StalePreparedNetworkError` on the next lookup — the cached
    tree describes an edge set that no longer exists.
    """
    return _PREPARED.prepare(network, seed=seed, leader=leader)


def invalidate_prepared(network: Optional[Network] = None) -> None:
    """Drop cached setup state — for one network, or all of them.

    Call this after mutating a network's graph in place; otherwise cached
    BFS trees would describe the old topology.
    """
    _PREPARED.invalidate(network)


def prepared_cache_stats() -> Dict[str, Optional[int]]:
    """Hit/miss/eviction counters of the process-wide setup cache."""
    return _PREPARED.stats()


def configure_prepared_cache(max_entries: Optional[int]) -> None:
    """Re-bound the process-wide setup cache (None = unbounded).

    Shrinking below the current population evicts oldest-first
    immediately, so a daemon can tighten its memory ceiling live.
    """
    if max_entries is not None and max_entries < 1:
        raise ValueError("max_entries must be positive when set")
    _PREPARED.max_entries = max_entries
    while (
        max_entries is not None and len(_PREPARED._entries) > max_entries
    ):
        _PREPARED._entries.popitem(last=False)
        _PREPARED.evictions += 1


def setup_network(
    network: Network, config: FrameworkConfig, rounds: RoundLedger
) -> PreparedNetwork:
    """Resolve (and charge) the setup phase a config asks for.

    Shared by :func:`run_framework` and the :mod:`repro.sched` scheduler
    so both charge setup identically: an explicit ``config.prepared``
    wins, else the process-wide cache, which runs the election and BFS
    on a miss.  Call :func:`invalidate_prepared` first to recompute it.
    """
    prepared = config.prepared
    if prepared is None:
        prepared = prepare_network(
            network, seed=config.seed, leader=config.leader
        )
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
    if config.comm_model is not None and config.comm_model != network.model:
        raise CongestError(
            f"config declares comm_model={config.comm_model.name!r} but the "
            f"network runs {network.model.name!r} "
            f"({network.model!r}); build the network with "
            f"comm_model={config.comm_model.name!r} or drop the declaration"
        )
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
            ``seed``, an optional designated ``leader``, an explicit
            ``prepared`` setup to reuse (else the process-wide cache),
            and the observability ``recorder`` (defaults to the
            ambient one; the run is wrapped in ``setup``/``query`` spans
            with ``distribute``/``convergecast``/``uncompute`` sub-spans
            per engine-mode batch).

    Returns:
        a :class:`FrameworkRun` with the algorithm result, per-phase round
        ledger, and query ledger.
    """
    if config is None:
        raise TypeError("run_framework() needs config=FrameworkConfig(...)")

    rec = (
        config.recorder if config.recorder is not None else current_recorder()
    )
    with install(rec):
        rounds = RoundLedger(recorder=rec, model=network.model.event_token)
        rng = np.random.default_rng(config.seed)

        with rec.span("setup"):
            prepared = setup_network(network, config, rounds)
        tree = prepared.tree

        oracle = build_oracle(network, config, tree, rounds, rec)
        with rec.span("query"):
            result = algorithm(oracle, rng)

        wall_clock: Optional[Dict[str, float]] = None
        if config.scenario is not None:
            # "Mind the Õ": price the charged rounds on the scenario's
            # links and annotate the spine.  Quantum links carry the
            # framework's quantum traffic; the classical link prices the
            # same round count as the commodity-network control.
            scenario = config.scenario
            word_bits = network.log_n_bits
            total = rounds.total
            wall_clock = {}
            for link in (scenario.classical_link, scenario.quantum_link):
                us = rounds.wall_clock_us(link, word_bits)
                wall_clock[link.name] = us
                if rec.active:
                    rec.scenario(scenario.name, link.name, total, us)
    return FrameworkRun(
        result=result,
        rounds=rounds,
        query_ledger=oracle.ledger,
        leader=prepared.leader,
        tree_depth=tree.eccentricity,
        mode=config.mode,
        wall_clock_us=wall_clock,
    )
