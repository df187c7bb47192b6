"""The textbook synchronous round loop, kept as a test-only oracle.

Every live node executes every round, in program order, with a freshly
built inbox: no skipping of idle nodes, no reused buffers, no fault
channel.  The engine's per-node loop must reproduce its rounds, outputs
and traffic statistics under both ``schedule="active"`` and ``"dense"``.
"""

from repro.congest.engine import RunResult
from repro.congest.errors import RoundLimitExceeded
from repro.congest.messages import Inbox, TrafficStats


def reference_run(engine):
    """Run ``engine``'s programs through the textbook loop.

    The engine supplies only its network, programs, per-node contexts and
    run settings (round budget, quiescence stop); its own round loop is
    never entered, so build a fresh engine for each reference run.
    """
    network, programs, contexts = engine.network, engine.programs, engine.contexts
    order = {v: i for i, v in enumerate(programs)}
    router = network.model.router(network)
    stats = TrafficStats()

    # Round 0: local initialization, no communication charged.
    in_flight = []
    for v, program in programs.items():
        program.on_start(contexts[v])
        in_flight.extend(contexts[v]._drain_outbox(0))

    rounds = 0
    while in_flight or not (
        engine.stop_on_quiescence or all(c.halted for c in contexts.values())
    ):
        if rounds >= engine.max_rounds:
            raise RoundLimitExceeded(engine.max_rounds)
        rounds += 1
        # The canonical delivery order: senders in program order, each
        # sender's messages by destination.
        delivered = sorted(in_flight, key=lambda m: (order[m.src], m.dst))
        inboxes = {}
        for msg in delivered:
            inboxes.setdefault(msg.dst, []).append(msg)
        bits = sum(msg.bits for msg in delivered)
        if router is not None:
            bits += router.extra_bits(delivered)
        stats.record_round(len(delivered), bits)

        in_flight = []
        for v, program in programs.items():
            ctx = contexts[v]
            if ctx.halted:
                continue
            ctx.round = rounds
            program.on_round(ctx, Inbox(inboxes.get(v)))
            in_flight.extend(ctx._drain_outbox(rounds))

    outputs = {v: contexts[v].output for v in network.nodes()}
    return RunResult(rounds=rounds, outputs=outputs, stats=stats)
