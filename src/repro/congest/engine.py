"""The synchronous round engine for the CONGEST model.

The engine drives a set of :class:`~repro.congest.program.NodeProgram`
instances through synchronized rounds over a
:class:`~repro.congest.network.Network`, enforcing the model rules
(bandwidth, adjacency, one message per edge direction per round) and
recording round and traffic statistics.

Round accounting matches the convention used in the paper's proofs: local
computation is free and unbounded; only communication rounds count.  The
reported ``rounds`` is the index of the last round in which any message was
in flight or any program executed.

Three scheduling strategies produce *identical* results (rounds, outputs,
traffic statistics — the determinism property tests pin this down, and
``tests/congest/reference_loop.py`` keeps the textbook loop they are held
to).  The engine chooses its loop: nothing above it selects one, and
``"active"`` and ``"dense"`` exist as pins for the tests that compare
loops and for the wall-clock gate on observation overhead
(``benchmarks/perf/bench_perf_obs.py``).

* ``"vectorized"`` (default) — the bulk loop: for audited structured
  program families (BFS, multi-source BFS, the max-id flood of leader
  election, the pipelined tree transfers) whole rounds execute as numpy
  array operations over a CSR adjacency (:mod:`repro.congest.vectorized`),
  removing per-node Python dispatch entirely.  It holds messages to the
  per-node loop's rules: a family whose messages exceed the bandwidth
  never starts on it, and payload values are checked against their
  ``Field`` domains every round.  Its ``deliver`` events carry what the
  per-node loop's do: the bare int of a one-field payload, the pair of a
  two-field one.  Anything unsupported, any model without a CSR port and
  any engine with a fault channel runs the ``"active"`` per-node loop
  instead, recording the reason on :attr:`Engine.vectorized_fallback`.
* ``"active"`` — a node executes a round only when it has deliveries,
  sent messages in its previous executed round (it may be mid-stream),
  has a due :meth:`~repro.congest.program.Context.request_wakeup`, or is
  in the always-awake set: its program declares
  :attr:`~repro.congest.program.NodeProgram.always_active`.  Programs
  whose ``on_round`` is a pure no-op on silent rounds opt out by setting
  ``always_active = False``; everything else runs every round
  automatically.  On flooding/pipelining workloads where most nodes are
  silent most rounds this removes the per-round O(n) scan entirely.
* ``"dense"`` — every live node executes every round, in program order,
  even with an empty inbox: the same per-node loop with every node in the
  always-awake set, so the run list is that set and a round stays O(n).

Round accounting and CONGEST semantics are unchanged by the scheduler: a
skipped node is exactly a node whose execution would have been a no-op.

Both loops are written as *round generators* (:meth:`Engine.steps`): each
``next()`` executes exactly one communication round and the generator's
return value is the :class:`RunResult`.  :meth:`Engine.run` simply drives
the generator to exhaustion, so the monolithic and stepwise paths are the
same code — bit-identity between ``run()`` and an :class:`EngineStepper`
is structural, and the hypothesis pinning in
``tests/congest/test_engine_step.py`` re-proves it end to end.  The
stepper is what lets one event loop interleave many in-flight executions
(the :mod:`repro.serve` daemon) and is the seam for live tracing and
cooperative timeouts.

Faults are not a variant of the loop but an object it calls: an engine
with a fault channel (:class:`repro.faults.FaultyEngine` sets one) hands
every round's in-flight messages to the channel, which may drop, corrupt
or hold them back, and skips the nodes the channel reports down.  Without
one the loop pays a single ``is not None`` check per round and per
executed node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from ..obs.recorder import Recorder, current_recorder
from .errors import RoundLimitExceeded
from .messages import Inbox, Message, TrafficStats
from .network import Network
from .program import Context, NodeProgram

#: Safety valve: CONGEST algorithms in this repo are all polylog·(n + D)
#: or small-polynomial; anything past this many rounds is a bug.
DEFAULT_MAX_ROUNDS_PER_NODE = 50
DEFAULT_MAX_ROUNDS_FLOOR = 10_000

#: Shared immutable inbox handed to nodes executing a silent round.
_EMPTY_INBOX = Inbox()

#: Recognized scheduling strategies.  ``"vectorized"``, the default,
#: executes whole rounds as numpy array ops over a CSR adjacency for
#: audited program families (:mod:`repro.congest.vectorized`) and
#: transparently falls back to ``"active"`` for everything else;
#: ``"active"`` and ``"dense"`` pin a per-node loop for comparisons.
SCHEDULES = ("active", "dense", "vectorized")


@dataclass
class RunResult:
    """Outcome of one engine execution."""

    rounds: int
    outputs: Dict[int, Any]
    stats: TrafficStats = field(default_factory=TrafficStats)

    def output_of(self, v: int) -> Any:
        return self.outputs.get(v)

    def common_output(self) -> Any:
        """The single output shared by all nodes that produced one.

        Hashable outputs are compared via a hash set (O(m)); unhashable
        outputs such as lists and dicts fall back to the equality scan,
        so both remain supported.

        Raises:
            ValueError: if nodes disagree or none produced output.
        """
        produced = [o for o in self.outputs.values() if o is not None]
        if not produced:
            raise ValueError("no node produced an output")
        first = produced[0]
        try:
            distinct_set = set(produced)
            if len(distinct_set) == 1:
                return first
            # Report disagreements in first-seen order, as the equality
            # scan always did.
            seen = set()
            distinct = []
            for o in produced:
                if o not in seen:
                    seen.add(o)
                    distinct.append(o)
        except TypeError:
            # Unhashable outputs: the original quadratic equality scan.
            distinct = [first]
            for o in produced[1:]:
                if not any(o == seen_o for seen_o in distinct):
                    distinct.append(o)
        if len(distinct) != 1:
            raise ValueError(f"nodes disagree on output: {distinct}")
        return first


class Engine:
    """Synchronous executor for CONGEST node programs.

    Args:
        network: the communication graph and bandwidth limit.
        programs: one program per node (all nodes must be covered).
        seed: seeds the per-node RNGs (each node gets an independent
            child generator, so runs are reproducible but nodes do not
            share randomness — the model has no shared coins).
        max_rounds: execution budget; exceeded budgets raise
            :class:`RoundLimitExceeded`.
        schedule: ``"vectorized"`` (default: whole rounds as numpy
            array ops for audited program families, the ``"active"``
            loop otherwise), ``"active"`` (skip provably idle nodes) or
            ``"dense"`` (execute every node every round).  Results are
            identical; only wall time differs, so callers leave it at
            the default and tests pin the others.
        recorder: observability spine bus (:mod:`repro.obs`).  Defaults
            to the ambient :func:`~repro.obs.current_recorder`, which is
            the null recorder unless one is installed; recording never
            changes rounds, outputs, or traffic statistics.
    """

    def __init__(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        seed: Optional[int] = None,
        max_rounds: Optional[int] = None,
        stop_on_quiescence: bool = False,
        schedule: str = "vectorized",
        recorder: Optional[Recorder] = None,
    ):
        missing = set(network.nodes()) - set(programs)
        if missing:
            raise ValueError(f"no program supplied for nodes {sorted(missing)}")
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
            )
        self.network = network
        self.programs = programs
        self.schedule = schedule
        self.recorder = recorder if recorder is not None else current_recorder()
        #: Cached at construction so the hot loops pay one boolean check;
        #: with the null recorder the engine is bit- and branch-identical
        #: to an uninstrumented one.
        self._recording = self.recorder.active
        if max_rounds is None:
            max_rounds = max(
                DEFAULT_MAX_ROUNDS_FLOOR,
                DEFAULT_MAX_ROUNDS_PER_NODE * network.n,
            )
        self.max_rounds = max_rounds
        #: When set, the run also ends once no messages are in flight, even
        #: if programs have not halted.  This models flooding algorithms
        #: (multi-source BFS, max-id election) whose natural end is network
        #: quiescence; a deployed version would add an O(D) termination-
        #: detection phase, which callers charge separately.
        self.stop_on_quiescence = stop_on_quiescence
        #: Per-node Contexts (with their spawned RNG streams) are built
        #: lazily on first access: the vectorized fast path never
        #: executes per-node programs, and constructing n Contexts plus n
        #: spawned Generators is a large fixed cost at large n (it
        #: dominated vectorized wall time before PR 7 deferred it).
        #: Construction is deterministic in ``seed`` alone, so a lazy
        #: build is bit-identical to the historical eager one.
        self._seed = seed
        self._contexts: Optional[Dict[int, Context]] = None
        #: Number of halted nodes, so :meth:`_all_halted` is O(1) instead
        #: of an O(n) per-round scan.
        self._halted_count = 0
        #: Program order of each node; the active scheduler sorts its
        #: candidate set by this so message ordering (and hence results)
        #: match running every node every round exactly.
        self._order: Dict[int, int] = {v: i for i, v in enumerate(programs)}
        #: Insertion-ordered set of non-halted nodes that execute every
        #: round: those whose programs are ``always_active``, or every node
        #: under ``"dense"``; pruned on halt.
        self._always_on: Dict[int, None] = {
            v: None
            for v, p in programs.items()
            if schedule == "dense" or getattr(p, "always_active", True)
        }
        #: Communication-model seam, cached once: the token stamped on
        #: round events ("" for the default CONGEST model, so default
        #: traces stay byte-identical), and the optional per-round
        #: routing biller (CONGEST-CLIQUE charges logical links routed
        #: over the physical graph; CONGEST/LOCAL attach none and the
        #: hot loops pay a single ``is not None`` check).
        self._model_token = network.model.event_token
        self._router = network.model.router(network)
        #: Reusable inbox buffer: node -> list of this round's deliveries.
        #: Lists are cleared and reused round to round (dict churn was a
        #: measurable cost at large n); an Inbox is only valid during the
        #: round it was handed to ``on_round``.
        self._inbox_buf: Dict[int, List[Message]] = {}
        self._inbox_touched: List[int] = []
        #: Re-entrancy latch: True while a :meth:`steps` generator is live.
        self._running = False
        #: The finished run's result; a later :meth:`steps` returns it
        #: without executing anything.
        self._result: Optional[RunResult] = None
        #: The fault channel messages and nodes pass through, or None for
        #: a perfect network (see :class:`repro.faults.FaultyEngine`).
        self._channel = None
        #: Rounds executed on the vectorized fast path (0 unless the bulk
        #: loop actually engaged; surfaced through the obs spine as the
        #: ``vectorized_rounds`` metric).
        self.vectorized_rounds = 0
        #: Why a vectorized run fell back to the per-node path (None
        #: when it did not, or under a pinned per-node schedule): a
        #: program-mix reason from
        #: :func:`repro.congest.vectorized.build_vectorized`, the model's,
        #: ``"fault-channel"`` or ``"message-exceeds-bandwidth"``.
        self.vectorized_fallback: Optional[str] = None

    @property
    def contexts(self) -> Dict[int, Context]:
        """node -> its :class:`Context`, built (deterministically) on demand."""
        if self._contexts is None:
            network = self.network
            children = np.random.SeedSequence(self._seed).spawn(network.n)
            self._contexts = {
                v: Context(
                    node=v,
                    neighbors=network.peers(v),
                    n=network.n,
                    bandwidth=network.bandwidth,
                    rng=np.random.default_rng(children[v]),
                    model=self._model_token,
                )
                for v in network.nodes()
            }
        return self._contexts

    def run(self) -> RunResult:
        """Execute until every node halts; return outputs and statistics."""
        return self.stepper().run_to_completion()

    def steps(self) -> Iterator[int]:
        """The round generator behind both :meth:`run` and the stepper.

        Each ``next()`` executes exactly one communication round (the
        first also runs every program's round-0 ``on_start``) and yields
        the round number just completed; the generator's ``return`` value
        (``StopIteration.value``) is the :class:`RunResult`.  Contexts
        mutate as rounds execute, so a second generator may only be
        created once the first has finished; it then returns the finished
        result without executing a round or emitting an event.
        Interleaving two live generators over one engine would corrupt the
        round state and is rejected.
        """
        if self._running:
            raise RuntimeError(
                "engine already mid-run; build a fresh Engine per execution"
            )
        self._running = True
        return self._finishing()

    def _finishing(self) -> Iterator[int]:
        """Run the round loop once, keep its result, clear the latch."""
        if self._result is None:
            if self.schedule == "vectorized":
                self._result = yield from self._vectorized_steps()
            else:
                self._result = yield from self._node_steps()
        self._running = False
        return self._result

    def stepper(self) -> "EngineStepper":
        """A re-entrant handle that advances this engine one round at a time."""
        return EngineStepper(self)

    # ------------------------------------------------------------------
    # per-node loop
    # ------------------------------------------------------------------

    def _node_steps(self) -> Iterator[int]:
        """The per-node loop: execute only nodes that can make progress.

        A node executes in round r iff it is live (not halted, not down in
        the fault channel) and at least one of:

        * a message was delivered to it at the start of round r,
        * it sent messages in the previous round it executed (streaming
          programs keep pushing until their queues drain),
        * it requested a wakeup for a round <= r,
        * it is in the always-awake set (its program is ``always_active``,
          the conservative default, or the schedule is ``"dense"``).

        Nodes run in program order, so the in-flight message order — and
        therefore every downstream observation — is bit-identical to
        running every node every round.
        """
        stats = TrafficStats()
        in_flight: List[Message] = []
        contexts = self.contexts
        programs = self.programs
        order = self._order
        always_on = self._always_on
        inbox_buf = self._inbox_buf
        touched = self._inbox_touched
        channel = self._channel
        # Under "dense" the always-awake set already holds every live node
        # in program order, so it is the run list as it stands.
        sparse = self.schedule != "dense"
        #: nodes that sent last round ("pending sends" — may be mid-stream)
        carry: set = set()
        #: (due_round, node) min-heap of requested wakeups
        wake_heap: List[tuple] = []

        # Round 0: local initialization, no communication charged.
        for v, program in programs.items():
            ctx = contexts[v]
            program.on_start(ctx)
            if ctx.halted:
                self._note_halt(v)
            if ctx._outbox:
                in_flight.extend(ctx._drain_outbox(0))
                if not ctx.halted:
                    carry.add(v)
            wake = ctx._take_wakeup()
            if wake is not None and not ctx.halted:
                heapq.heappush(wake_heap, (max(wake, 1), v))

        rounds = 0
        while True:
            if (
                not in_flight
                and (channel is None or not channel.pending())
                and (self._all_halted() or self.stop_on_quiescence)
            ):
                break
            if rounds >= self.max_rounds:
                raise RoundLimitExceeded(self.max_rounds)
            rounds += 1

            # Reset the inbox buffer from the previous round (clear only
            # the touched lists; the dict itself persists).
            for v in touched:
                inbox_buf[v].clear()
            touched.clear()

            delivered = in_flight
            if channel is not None:
                channel.begin_round(rounds)
                delivered = channel.transmit(in_flight, rounds)
            self._canonicalize(delivered)
            bits = 0
            for msg in delivered:
                dst = msg.dst
                lst = inbox_buf.get(dst)
                if lst is None:
                    lst = inbox_buf[dst] = []
                if not lst:
                    touched.append(dst)
                lst.append(msg)
                bits += msg.bits
                self._on_deliver(msg, rounds)
            if self._router is not None:
                bits += self._router.extra_bits(delivered)
            stats.record_round(len(delivered), bits)
            if self._recording:
                self.recorder.round(
                    rounds, len(delivered), bits, model=self._model_token
                )
            in_flight = []

            # Build this round's execution set in program order.
            due: List[int] = []
            while wake_heap and wake_heap[0][0] <= rounds:
                due.append(heapq.heappop(wake_heap)[1])
            if sparse and (carry or due or touched):
                cand = set(touched)
                cand.update(carry)
                cand.update(due)
                cand.update(always_on)
                run_list: List[int] = sorted(cand, key=order.__getitem__)
            else:
                run_list = list(always_on)
            carry = set()

            for v in run_list:
                ctx = contexts[v]
                if ctx.halted:
                    # Messages to halted nodes are dropped; well-formed
                    # algorithms never rely on them.
                    continue
                if channel is not None and channel.is_down(v, rounds):
                    # A crashed node neither executes nor receives; its
                    # inbox for this round is lost.
                    continue
                ctx.round = rounds
                msgs = inbox_buf.get(v)
                program = programs[v]
                program.on_round(ctx, Inbox._wrap(msgs) if msgs else _EMPTY_INBOX)
                if ctx.halted:
                    self._note_halt(v)
                if ctx._outbox:
                    in_flight.extend(ctx._drain_outbox(rounds))
                    if not ctx.halted:
                        carry.add(v)
                wake = ctx._take_wakeup()
                if wake is not None and not ctx.halted:
                    heapq.heappush(wake_heap, (max(wake, rounds + 1), v))
            yield rounds

        outputs = {v: contexts[v].output for v in self.network.nodes()}
        return RunResult(rounds=rounds, outputs=outputs, stats=stats)

    # ------------------------------------------------------------------
    # vectorized loop (column-major fast path)
    # ------------------------------------------------------------------

    def _vectorized_steps(self) -> Iterator[int]:
        """Whole-network rounds as array ops (see :mod:`.vectorized`).

        Engages only when (a) the engine has no fault channel (the channel
        must see every message and node individually), (b) the program
        dict is an audited homogeneous family with a bulk port, and (c)
        that family's messages fit the network's bandwidth.  Anything else
        silently falls back to the per-node loop, recording the reason on
        :attr:`vectorized_fallback` — results are bit-identical either
        way, only wall time differs.  Under (c) the per-node loop then
        raises :class:`~repro.congest.errors.MessageTooLargeError` at the
        first send, as it always has.
        """
        vp = None
        network = self.network
        if not network.model.csr_port:
            # The bulk loop assumes physical-edge delivery with uniform
            # per-message bits; models that route over logical links
            # (CLIQUE) or meter differently (LOCAL's unbounded messages)
            # take the per-node path.
            self.vectorized_fallback = f"model-{network.model.name}-lacks-csr-port"
        elif self._channel is not None:
            self.vectorized_fallback = "fault-channel"
        else:
            from .vectorized import build_vectorized

            vp, self.vectorized_fallback = build_vectorized(self)
            if vp is not None and vp.bits_per_message > network.bandwidth:
                vp, self.vectorized_fallback = None, "message-exceeds-bandwidth"
        if vp is None:
            result = yield from self._node_steps()
            return result

        stats = TrafficStats()
        csr = vp.csr
        one_field = len(vp.domains) == 1
        order_arr = np.empty(self.network.n, dtype=np.int64)
        for v, i in self._order.items():
            order_arr[v] = i
        active = np.ones(self.network.n, dtype=bool)

        # Round 0: local initialization, no communication charged.
        in_flight, halts = vp.start()
        vp.check_domains(in_flight, order_arr)
        if halts.any():
            for v in np.nonzero(halts)[0]:
                self._note_halt(int(v))
            active[halts] = False

        rounds = 0
        while True:
            if len(in_flight) == 0 and (
                self._all_halted() or self.stop_on_quiescence
            ):
                break
            if rounds >= self.max_rounds:
                raise RoundLimitExceeded(self.max_rounds)
            rounds += 1

            count = len(in_flight)
            bits = count * vp.bits_per_message
            if self._recording:
                # Deliver events in the canonical (program order, dst)
                # order the per-node loops emit, each carrying what the
                # per-node ``Message.value`` would: the bare int of a
                # one-field payload, the pair of a two-field one.
                src = csr.src[in_flight.edges]
                dst = csr.indices[in_flight.edges]
                a, b = in_flight.a, in_flight.b
                for i in np.lexsort((dst, order_arr[src])):
                    self.recorder.deliver(
                        rounds,
                        int(src[i]),
                        int(dst[i]),
                        vp.bits_per_message,
                        int(a[i]) if one_field else (int(a[i]), int(b[i])),
                    )
            stats.record_round(count, bits)
            if self._recording:
                self.recorder.round(
                    rounds, count, bits,
                    mode="vectorized", model=self._model_token,
                )

            in_flight, halts = vp.step_all(vp.state, in_flight, active, rounds)
            vp.check_domains(in_flight, order_arr)
            if halts.any():
                for v in np.nonzero(halts)[0]:
                    self._note_halt(int(v))
                active[halts] = False
            self.vectorized_rounds += 1
            yield rounds

        return RunResult(
            rounds=rounds, outputs=vp.outputs(rounds), stats=stats
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _canonicalize(self, delivered: List[Message]) -> None:
        """Sort a round's deliveries into canonical (sender, dst) order.

        Senders already appear in program order (each node's sends are
        appended as it executes); the stable sort additionally orders
        each sender's block by destination, which is the order the
        vectorized loop produces natively.  Applied *after* the fault
        channel's ``transmit`` so fault models consume their per-message
        randomness in unsorted send order (streams stay compatible),
        and stably, so a delayed message released this round still lands
        ahead of a fresh same-edge one.  Per-node inbox contents are
        unchanged (at most one message per (src, dst) pair per round per
        channel event); only the deliver-event order all three schedules
        share is fixed.
        """
        if len(delivered) > 1:
            order = self._order
            delivered.sort(key=lambda m: (order[m.src], m.dst))

    def _note_halt(self, v: int) -> None:
        """Record that node ``v`` halted (keeps :meth:`_all_halted` O(1))."""
        self._halted_count += 1
        self._always_on.pop(v, None)

    def _all_halted(self) -> bool:
        # network.n, not len(self.contexts): every node has a program
        # (validated at construction), and touching ``contexts`` here
        # would force the lazy per-node build the vectorized path avoids.
        if self._halted_count >= self.network.n:
            return True
        # Crash-stopped nodes never halt on their own; the channel counts
        # them as (involuntarily) finished.
        return self._channel is not None and self._channel.crash_stopped(
            self.contexts
        )

    # ------------------------------------------------------------------
    # observation seam
    # ------------------------------------------------------------------

    def _on_deliver(self, msg: Message, round_no: int) -> None:
        """Observation hook invoked for every delivered message.

        The default emits a ``deliver`` event on the recorder (a no-op
        branch when recording is off); subclasses that need richer
        observation still override it.
        """
        if self._recording:
            self.recorder.deliver(round_no, msg.src, msg.dst, msg.bits, msg.value)


class EngineStepper:
    """Re-entrant, one-round-at-a-time driver over an :class:`Engine`.

    The stepper owns the engine's round generator; every :meth:`step`
    executes exactly one communication round.  Because :meth:`Engine.run`
    drives the *same* generator, a stepped execution is bit-identical to a
    monolithic one — rounds, outputs, traffic statistics, and every
    recorder event, in the same order.  Many steppers over *different*
    engines interleave freely (no shared mutable state), which is what the
    :mod:`repro.serve` event loop relies on.

    Typical use::

        stepper = Engine(net, programs, seed=0).stepper()
        while stepper.step():
            ...  # yield to other work between rounds
        result = stepper.result
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._gen = engine.steps()
        self._result: Optional[RunResult] = None
        #: Rounds executed so far (mirrors the engine's round counter).
        self.rounds = 0

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def result(self) -> RunResult:
        """The finished :class:`RunResult`; raises until :attr:`done`."""
        if self._result is None:
            raise RuntimeError("engine still running; call step() until done")
        return self._result

    def step(self) -> bool:
        """Execute one communication round; False once the run finished.

        Raises whatever the round loop raises (:class:`RoundLimitExceeded`
        on budget exhaustion) at the step where it happens, exactly as
        :meth:`Engine.run` would.
        """
        if self._result is not None:
            return False
        try:
            self.rounds = next(self._gen)
            return True
        except StopIteration as stop:
            self._result = stop.value
            return False

    def run_to_completion(self) -> RunResult:
        """Drive the remaining rounds without yielding; returns the result."""
        while self.step():
            pass
        return self.result


def run_program(
    network: Network,
    programs: Dict[int, NodeProgram],
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    stop_on_quiescence: bool = False,
    schedule: str = "vectorized",
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Convenience wrapper: build an engine and run it."""
    engine = Engine(
        network,
        programs,
        seed=seed,
        max_rounds=max_rounds,
        stop_on_quiescence=stop_on_quiescence,
        schedule=schedule,
        recorder=recorder,
    )
    return engine.run()
