"""The textbook synchronous round loop, kept as a test-only oracle.

Every live node executes every round, in program order, with a freshly
built inbox: no skipping of idle nodes, no reused buffers.  Both of the
engine's loops must reproduce its rounds, outputs, traffic statistics
and ``deliver`` events.  Given an engine with a fault channel (a
:class:`~repro.faults.FaultyEngine`), it drives that channel at the
points the engine's per-node loop does, so a faulty run must also match
it on the fault counters and ``fault`` events.

The engine picks its loop itself, and its bulk loop audits exact program
types, so a test reaches the per-node loop on an audited family through
the subclasses here (:data:`PER_NODE`): each takes the engine's real
fallback, with reason ``unsupported-program-<subclass name>``.
:func:`flood_family` draws an instance of an audited family that builds
either.
"""

from hypothesis import strategies as st

from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.algorithms.leader import MaxIdFloodProgram
from repro.congest.algorithms.multibfs import MultiSourceBFSProgram
from repro.congest.engine import RunResult
from repro.congest.errors import RoundLimitExceeded
from repro.congest.messages import Inbox, TrafficStats


class PerNodeBFS(BFSEchoProgram):
    """BFS with echo on the engine's per-node loop."""


class PerNodeMultiBFS(MultiSourceBFSProgram):
    """Multi-source BFS on the engine's per-node loop."""


class PerNodeMaxIdFlood(MaxIdFloodProgram):
    """The max-id flood on the engine's per-node loop."""


#: Each audited family's program class -> its per-node subclass.
PER_NODE = {
    BFSEchoProgram: PerNodeBFS,
    MultiSourceBFSProgram: PerNodeMultiBFS,
    MaxIdFloodProgram: PerNodeMaxIdFlood,
}


def flood_family(draw, net, family):
    """A drawn instance of an audited family: ``(make, engine kwargs)``.

    ``family`` is ``"bfs"``, ``"multibfs"`` or ``"leader"``, and ``draw``
    picks its root or sources.  ``make()`` builds fresh programs from the
    same parameters on every call, since each run needs its own;
    ``make(per_node=True)`` builds them as the family's per-node subclass.
    """
    if family == "bfs":
        root = draw(st.integers(0, net.n - 1))
        cls, args, kwargs = BFSEchoProgram, (root,), {}
    elif family == "multibfs":
        count = draw(st.integers(1, min(3, net.n)))
        sources = draw(
            st.lists(st.integers(0, net.n - 1), min_size=count,
                     max_size=count, unique=True)
        )
        cls, args = MultiSourceBFSProgram, (sources,)
        kwargs = {"stop_on_quiescence": True}
    else:
        cls, args, kwargs = MaxIdFloodProgram, (), {"stop_on_quiescence": True}

    def make(per_node=False):
        program = PER_NODE[cls] if per_node else cls
        return {v: program(v, *args) for v in net.nodes()}

    return make, kwargs


def reference_run(engine):
    """Run ``engine``'s programs through the textbook loop.

    The engine supplies only its network, programs, per-node contexts,
    recorder, fault channel and run settings (round budget, quiescence
    stop); its own round loop is never entered, so build a fresh engine
    for each reference run.
    """
    network, programs, contexts = engine.network, engine.programs, engine.contexts
    channel, recorder = engine._channel, engine.recorder
    order = {v: i for i, v in enumerate(programs)}
    router = network.model.router(network)
    stats = TrafficStats()

    def finished():
        if channel is not None and channel.pending():
            return False
        # Crash-stopped nodes never halt; the channel counts them done.
        return (
            engine.stop_on_quiescence
            or all(c.halted for c in contexts.values())
            or (channel is not None and channel.crash_stopped(contexts))
        )

    # Round 0: local initialization, no communication charged.
    in_flight = []
    for v, program in programs.items():
        program.on_start(contexts[v])
        in_flight.extend(contexts[v]._drain_outbox(0))

    rounds = 0
    while in_flight or not finished():
        if rounds >= engine.max_rounds:
            raise RoundLimitExceeded(engine.max_rounds)
        rounds += 1
        delivered = in_flight
        if channel is not None:
            channel.begin_round(rounds)
            delivered = channel.transmit(in_flight, rounds)
        # The canonical delivery order: senders in program order, each
        # sender's messages by destination.
        delivered = sorted(delivered, key=lambda m: (order[m.src], m.dst))
        inboxes = {}
        for msg in delivered:
            inboxes.setdefault(msg.dst, []).append(msg)
            if recorder.active:
                recorder.deliver(rounds, msg.src, msg.dst, msg.bits, msg.value)
        bits = sum(msg.bits for msg in delivered)
        if router is not None:
            bits += router.extra_bits(delivered)
        stats.record_round(len(delivered), bits)

        in_flight = []
        for v, program in programs.items():
            ctx = contexts[v]
            if ctx.halted or (channel is not None and channel.is_down(v, rounds)):
                continue
            ctx.round = rounds
            program.on_round(ctx, Inbox(inboxes.get(v)))
            in_flight.extend(ctx._drain_outbox(rounds))

    outputs = {v: contexts[v].output for v in network.nodes()}
    return RunResult(rounds=rounds, outputs=outputs, stats=stats)
