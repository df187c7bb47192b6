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

The engine has two round loops and picks one itself for every run, from
what it observes: the program types (or a transfer given as arrays), the
model, a fault channel and the bandwidth.  Nothing above it selects one.
Both produce *identical* results (rounds, outputs, traffic statistics,
deliver events), and both are held to the textbook loop kept in
``tests/congest/reference_loop.py``, faults included.

* The bulk loop, tried first: for audited structured program families
  (BFS, multi-source BFS, the max-id flood of leader election) and for
  the pipelined tree transfers, whole rounds execute as numpy array
  operations over a CSR adjacency (:mod:`repro.congest.vectorized`),
  removing per-node Python dispatch entirely.  A tree transfer reaches
  the bulk loop only as arrays, in place of a program dict (an
  ``Upcast`` or ``Downcast`` from
  :mod:`repro.congest.algorithms.aggregate`): it runs with no per-node
  object at all, and the engine builds the per-node programs only if it
  falls back; a dict of those programs runs per node.  A transfer's traffic
  is fixed by its tree and vector length, so the bulk loop runs it
  from the tree's cached schedule: one round per step, with no array
  work unless the round is recorded.  The bulk loop holds
  messages to the per-node loop's rules: a family whose messages exceed
  the bandwidth never starts on it, and payload values are checked
  against their ``Field`` domains every round.  Its ``deliver`` events
  carry what the per-node loop's do: the bare int of a one-field
  payload, the pair of a two-field one.
* Anything else — another program type (the audit matches exact types,
  so a subclass of an audited family too), a model without a CSR port,
  an engine with a fault channel, a family whose messages exceed the
  bandwidth — falls back to the per-node loop, recording the reason on
  :attr:`Engine.vectorized_fallback`.  That loop executes a node in a
  round only when it has deliveries, sent messages in its previous
  executed round (it may be mid-stream), has a due
  :meth:`~repro.congest.program.Context.request_wakeup`, or is in the
  always-awake set: its program declares
  :attr:`~repro.congest.program.NodeProgram.always_active`.  Programs
  whose ``on_round`` is a pure no-op on silent rounds opt out by setting
  ``always_active = False``; everything else runs every round
  automatically.  On flooding/pipelining workloads where most nodes are
  silent most rounds this removes the per-round O(n) scan entirely.
  The loop builds its order and always-awake tables, its inbox buffer
  and its halted count when it starts, so an engine that runs in bulk
  never pays for them.

Round accounting and CONGEST semantics are unchanged by the choice: a
skipped node is exactly a node whose execution would have been a no-op.

Every loop is written as a *round generator*: each ``next()`` executes
exactly one communication round and the generator's return value is the
:class:`RunResult`.  An :class:`EngineStepper` chooses the run's loop at
its first step and then resumes that one generator per round;
:meth:`Engine.run` simply drives a stepper to exhaustion, so the
monolithic and stepwise paths are the same code — bit-identity between
``run()`` and a stepper is structural, and the hypothesis pinning in
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
from collections.abc import Mapping
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

    Each run takes the bulk loop when its programs allow it and the
    per-node loop otherwise (see the module docstring); the engine makes
    that choice alone, and :attr:`vectorized_fallback` says why a run
    went per node.

    Args:
        network: the communication graph and bandwidth limit.
        programs: one program per node (all nodes must be covered), or a
            pipelined tree transfer given as arrays (an ``Upcast`` or
            ``Downcast`` from :mod:`repro.congest.algorithms.aggregate`),
            whose per-node programs are built only if the per-node loop
            runs.
        seed: seeds the per-node RNGs (each node gets an independent
            child generator, so runs are reproducible but nodes do not
            share randomness — the model has no shared coins).
        max_rounds: execution budget; exceeded budgets raise
            :class:`RoundLimitExceeded`.
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
        recorder: Optional[Recorder] = None,
    ):
        if isinstance(programs, Mapping):
            missing = set(network.nodes()) - set(programs)
            if missing:
                raise ValueError(
                    f"no program supplied for nodes {sorted(missing)}"
                )
            self.transfer = None
        else:
            if programs.parent.shape != (network.n,):
                raise ValueError(
                    f"the transfer's tree has {programs.parent.shape[0]} "
                    f"nodes, the network {network.n}"
                )
            self.transfer, programs = programs, None
        self.network = network
        self._programs = programs
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
        #: Communication-model seam, cached once: the token stamped on
        #: round events ("" for the default CONGEST model, so default
        #: traces stay byte-identical).
        self._model_token = network.model.event_token
        #: Run-once latch: True from a stepper's construction until its
        #: run finishes (see :class:`EngineStepper`).
        self._running = False
        #: The finished run's result; a later stepper returns it without
        #: executing anything.
        self._result: Optional[RunResult] = None
        #: The fault channel messages and nodes pass through, or None for
        #: a perfect network (see :class:`repro.faults.FaultyEngine`).
        self._channel = None
        #: Rounds executed on the vectorized fast path (0 unless the bulk
        #: loop actually engaged; surfaced through the obs spine as the
        #: ``vectorized_rounds`` metric).
        self.vectorized_rounds = 0
        #: Why the run fell back to the per-node loop (None while the
        #: bulk loop runs it): a program-mix reason from
        #: :func:`repro.congest.vectorized.build_vectorized`, the model's,
        #: ``"fault-channel"`` or ``"message-exceeds-bandwidth"``.
        self.vectorized_fallback: Optional[str] = None

    @property
    def programs(self) -> Dict[int, NodeProgram]:
        """node -> its program; a transfer's are built on first access."""
        if self._programs is None:
            self._programs = self.transfer.programs()
        return self._programs

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

    def stepper(self) -> "EngineStepper":
        """A re-entrant handle that advances this engine one round at a time."""
        return EngineStepper(self)

    def _choose_loop(self) -> Iterator[int]:
        """This run's round generator, on the bulk loop when it can.

        The bulk loop engages only when (a) the model has a CSR port,
        (b) the engine has no fault channel (the channel must see every
        message and node individually), (c) the program dict is one of
        the three audited homogeneous families, or the engine was given a
        tree transfer as arrays whose combine has a bulk port, and (d)
        that family's messages fit the network's bandwidth.  A tree
        transfer then runs off its schedule (:meth:`_transfer_steps`), a
        flood family one ``step_all`` per round (:meth:`_flood_steps`).
        Anything else falls back to the per-node loop
        (:meth:`_node_steps`, building a transfer's programs then),
        recording the reason on :attr:`vectorized_fallback` — results
        are bit-identical either way, only wall time differs.  Under (d)
        the per-node loop then raises
        :class:`~repro.congest.errors.MessageTooLargeError` at the first
        send, as it always has.
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
            return self._node_steps()
        if self.transfer is not None:
            return self._transfer_steps(vp)
        return self._flood_steps(vp)

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
          the conservative default).

        Nodes run in program order, so the in-flight message order — and
        therefore every downstream observation — is bit-identical to
        running every node every round.  Everything this loop alone reads
        (the order and always-awake tables, the inbox buffer, the routing
        biller, the halted count) is built here, when it starts.
        """
        network = self.network
        stats = TrafficStats()
        in_flight: List[Message] = []
        contexts = self.contexts
        programs = self.programs
        channel = self._channel
        #: The model's per-round routing biller (CONGEST-CLIQUE charges
        #: logical links routed over the physical graph; CONGEST/LOCAL
        #: attach none and the loop pays a single ``is not None`` check).
        router = network.model.router(network)
        #: Program order of each node: a round's deliveries and execution
        #: set are sorted by it, so message ordering (and hence results)
        #: match running every node every round exactly.
        order = {v: i for i, v in enumerate(programs)}
        #: Insertion-ordered set of non-halted nodes whose programs are
        #: ``always_active``, so execute every round; pruned on halt.
        always_on = {
            v: None
            for v, p in programs.items()
            if getattr(p, "always_active", True)
        }
        #: Halted nodes, counted as they halt: the termination test is
        #: O(1), not an O(n) per-round scan.
        halted = 0
        #: Reusable inbox buffer: node -> list of this round's deliveries.
        #: Lists are cleared and reused round to round (dict churn was a
        #: measurable cost at large n); an Inbox is only valid during the
        #: round it was handed to ``on_round``.
        inbox_buf: Dict[int, List[Message]] = {}
        touched: List[int] = []
        #: nodes that sent last round ("pending sends" — may be mid-stream)
        carry: set = set()
        #: (due_round, node) min-heap of requested wakeups
        wake_heap: List[tuple] = []

        # Round 0: local initialization, no communication charged.
        for v, program in programs.items():
            ctx = contexts[v]
            program.on_start(ctx)
            if ctx.halted:
                halted += 1
                always_on.pop(v, None)
            if ctx._outbox:
                in_flight.extend(ctx._drain_outbox(0))
                if not ctx.halted:
                    carry.add(v)
            wake = ctx._take_wakeup()
            if wake is not None and not ctx.halted:
                heapq.heappush(wake_heap, (max(wake, 1), v))

        rounds = 0
        while True:
            if not in_flight and (channel is None or not channel.pending()) and (
                halted >= network.n
                # Crash-stopped nodes never halt on their own; the channel
                # counts them as (involuntarily) finished.
                or (channel is not None and channel.crash_stopped(contexts))
                or self.stop_on_quiescence
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
            # Canonical (sender, dst) order: senders already appear in
            # program order (each node's sends are appended as it
            # executes); the stable sort also orders each sender's block
            # by destination, the order the bulk loop produces natively.
            # It follows the channel's ``transmit``, so fault models draw
            # their per-message randomness in send order, and is stable,
            # so a delayed message released this round still lands ahead
            # of a fresh same-edge one.  Inbox contents are unchanged;
            # only the deliver-event order both loops share is fixed.
            if len(delivered) > 1:
                delivered.sort(key=lambda m: (order[m.src], m.dst))
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
            if router is not None:
                bits += router.extra_bits(delivered)
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
            if carry or due or touched:
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
                    halted += 1
                    always_on.pop(v, None)
                if ctx._outbox:
                    in_flight.extend(ctx._drain_outbox(rounds))
                    if not ctx.halted:
                        carry.add(v)
                wake = ctx._take_wakeup()
                if wake is not None and not ctx.halted:
                    heapq.heappush(wake_heap, (max(wake, rounds + 1), v))
            yield rounds

        outputs = {v: contexts[v].output for v in network.nodes()}
        return RunResult(rounds=rounds, outputs=outputs, stats=stats)

    # ------------------------------------------------------------------
    # bulk loops (column-major fast path, see :mod:`.vectorized`)
    # ------------------------------------------------------------------

    def _flood_steps(self, vp) -> Iterator[int]:
        """A flood family's rounds, one ``step_all`` over the whole
        network per round; its halts update the ``active`` mask and a
        halted count in bulk."""
        network = self.network
        stats = TrafficStats()
        # Program order per node.
        order_arr = np.arange(network.n, dtype=np.int64)
        nodes = np.fromiter(
            self._programs, dtype=np.int64, count=len(self._programs)
        )
        order_arr[nodes] = np.arange(nodes.shape[0])
        active = np.ones(network.n, dtype=bool)

        # Round 0: local initialization, no communication charged.
        in_flight, halts = vp.start()
        vp.check_domains(in_flight, order_arr)
        halted = halts.shape[0]
        if halted:
            active[halts] = False

        bits_per_message = vp.bits_per_message
        step_all, check_domains = vp.step_all, vp.check_domains
        rounds = 0
        while True:
            count = len(in_flight)
            if count == 0 and (
                halted >= network.n or self.stop_on_quiescence
            ):
                break
            if rounds >= self.max_rounds:
                raise RoundLimitExceeded(self.max_rounds)
            rounds += 1

            bits = count * bits_per_message
            if self._recording:
                self._record_deliveries(rounds, vp, in_flight, order_arr)
            stats.record_round(count, bits)
            if self._recording:
                self.recorder.round(
                    rounds, count, bits,
                    mode="vectorized", model=self._model_token,
                )

            in_flight, halts = step_all(vp.state, in_flight, active, rounds)
            check_domains(in_flight, order_arr)
            if halts.shape[0]:
                halted += halts.shape[0]
                active[halts] = False
            self.vectorized_rounds += 1
            yield rounds

        return RunResult(
            rounds=rounds, outputs=vp.outputs(rounds), stats=stats
        )

    def _transfer_steps(self, vp) -> Iterator[int]:
        """A tree transfer's rounds, read off its port's fixed schedule.

        The port (:class:`~repro.congest.vectorized._TreeTransfer`) knows
        every round's message count and halting nodes before round 0, so
        a round does no array work: its messages are gathered only while
        recording, for the deliver events, and in the port's
        ``bad_round``, whose domain check raises the per-node loop's
        ``ValueError`` after that round's events (at the first step,
        before any event, when it is round 0).  ``RoundLimitExceeded``
        comes at the step that would run round ``max_rounds + 1``, and
        ``stop_on_quiescence`` ends the run at the first round that
        sends nothing, as on the other loops.  A transfer's program
        order is node order.
        """
        counts = vp.counts
        last = len(counts)
        if self.stop_on_quiescence and 0 in counts:
            last = counts.index(0)
        bits_per_message = vp.bits_per_message
        bad_round = vp.bad_round
        order = np.arange(self.network.n, dtype=np.int64)
        if bad_round == 0:
            vp.check_domains(vp.messages(0), order)
        for rounds in range(1, last + 1):
            if rounds > self.max_rounds:
                raise RoundLimitExceeded(self.max_rounds)
            if self._recording:
                count = counts[rounds - 1]
                self._record_deliveries(
                    rounds, vp, vp.messages(rounds - 1), order
                )
                self.recorder.round(
                    rounds, count, count * bits_per_message,
                    mode="vectorized", model=self._model_token,
                )
            if rounds == bad_round:
                vp.check_domains(vp.messages(rounds), order)
            self.vectorized_rounds += 1
            yield rounds

        per_round = list(counts[:last])
        messages = sum(per_round)
        stats = TrafficStats(
            messages, messages * bits_per_message, per_round,
            [count * bits_per_message for count in per_round],
        )
        return RunResult(rounds=last, outputs=vp.outputs(last), stats=stats)

    def _record_deliveries(self, rounds: int, vp, msgs, order) -> None:
        """Emit a bulk round's deliver events in the canonical (program
        order, dst) order the per-node loops emit, each carrying what the
        per-node ``Message.value`` would: the bare int of a one-field
        payload, the pair of a two-field one."""
        csr = vp.csr
        bits = vp.bits_per_message
        one_field = len(vp.domains) == 1
        src = csr.src[msgs.edges]
        dst = csr.indices[msgs.edges]
        a, b = msgs.a, msgs.b
        for i in np.lexsort((dst, order[src])):
            self.recorder.deliver(
                rounds,
                int(src[i]),
                int(dst[i]),
                bits,
                int(a[i]) if one_field else (int(a[i]), int(b[i])),
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

    An engine runs once.  The stepper takes the engine's run-once latch
    when it is built (a second stepper, or :meth:`Engine.run`, raises
    while the first is mid-run: the round state would be corrupted).
    Its first :meth:`step` chooses the engine's round loop — setting
    :attr:`Engine.vectorized_fallback`, and building a transfer's bulk
    port — and every step resumes that loop's round generator directly,
    executing exactly one communication round (the first also runs every
    program's round-0 ``on_start``).  When the generator returns, the
    stepper keeps its :class:`RunResult` on the engine and releases the
    latch: a later stepper, or :meth:`Engine.run`, returns that result
    without executing a round or emitting an event.  A loop that raised
    leaves the engine latched, and its stepper's later steps return
    False.

    :meth:`Engine.run` drives a stepper too, so a stepped execution is
    bit-identical to a monolithic one — rounds, outputs, traffic
    statistics, and every recorder event, in the same order.  Many
    steppers over *different* engines interleave freely (no shared
    mutable state), which is what the :mod:`repro.serve` event loop
    relies on.

    Typical use::

        stepper = Engine(net, programs, seed=0).stepper()
        while stepper.step():
            ...  # yield to other work between rounds
        result = stepper.result
    """

    def __init__(self, engine: Engine):
        if engine._running:
            raise RuntimeError(
                "engine already mid-run; build a fresh Engine per execution"
            )
        self.engine = engine
        self._result: Optional[RunResult] = engine._result
        if self._result is None:
            engine._running = True
        #: The engine's round generator, chosen at the first step.
        self._gen: Optional[Iterator[int]] = None
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
        gen = self._gen
        if gen is None:
            gen = self._gen = self.engine._choose_loop()
        try:
            self.rounds = next(gen)
            return True
        except StopIteration as stop:
            # A generator that raised at an earlier step stops with no
            # value: the run never finished, so the engine stays latched.
            if stop.value is not None:
                self._result = self.engine._result = stop.value
                self.engine._running = False
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
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Convenience wrapper: build an engine and run it."""
    engine = Engine(
        network,
        programs,
        seed=seed,
        max_rounds=max_rounds,
        stop_on_quiescence=stop_on_quiescence,
        recorder=recorder,
    )
    return engine.run()
