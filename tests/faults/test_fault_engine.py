"""Tests for the fault-injecting engine: identity, determinism, tracing."""

import copy

import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.algorithms.leader import BoundedMaxIdFloodProgram
from repro.congest.encoding import Field
from repro.congest.engine import run_program
from repro.congest.errors import RoundLimitExceeded
from repro.congest.program import NodeProgram
from repro.congest.tracing import CRASH, DROP, RECOVER, traced_recorder
from repro.faults import (
    BernoulliLoss,
    BitCorruption,
    BoundedDelay,
    CrashSchedule,
    CrashSpec,
    FaultyEngine,
    NoFaults,
    run_with_faults,
)
from repro.obs import NULL_RECORDER


def bfs_programs(network, root=0):
    return {v: BFSEchoProgram(v, root) for v in network.nodes()}


class FloodForever(NodeProgram):
    """Broadcasts every round and never halts; runs expire at the budget.

    Unprotected programs livelock under faults, so tests that inspect
    fault traces drive the engine with this program for a fixed number
    of rounds and read the counters off the expired engine.
    """

    def on_start(self, ctx):
        ctx.broadcast(Field(0, 2))

    def on_round(self, ctx, inbox):
        ctx.broadcast(Field(0, 2))


def run_flood(network, budget=30, **engine_kwargs):
    """Run FloodForever everywhere until the round budget; return engine."""
    engine = FaultyEngine(
        network,
        {v: FloodForever() for v in network.nodes()},
        max_rounds=budget,
        **engine_kwargs,
    )
    with pytest.raises(RoundLimitExceeded):
        engine.run()
    return engine


class TestZeroFaultIdentity:
    def test_byte_identical_to_plain_engine(self, small_network):
        plain = run_program(small_network, bfs_programs(small_network), seed=3)
        faulty, trace, stats = run_with_faults(
            small_network,
            bfs_programs(small_network),
            fault_model=NoFaults(),
            seed=3,
        )
        assert plain.rounds == faulty.rounds
        assert plain.outputs == faulty.outputs
        assert plain.stats == faulty.stats
        assert stats.dropped == stats.corrupted == stats.delayed == 0
        assert stats.delivered == plain.stats.messages
        assert not trace.faults()

    def test_default_model_is_no_faults(self, path8):
        plain = run_program(path8, bfs_programs(path8), seed=0)
        faulty, _, _ = run_with_faults(path8, bfs_programs(path8), seed=0)
        assert plain.outputs == faulty.outputs

    def test_p_zero_bernoulli_is_identity_too(self, path8):
        plain = run_program(path8, bfs_programs(path8), seed=0)
        faulty, _, stats = run_with_faults(
            path8, bfs_programs(path8), fault_model=BernoulliLoss(0.0), seed=0
        )
        assert plain.rounds == faulty.rounds
        assert plain.stats == faulty.stats
        assert stats.loss_rate() == 0.0


class TestDeterminism:
    def test_same_fault_seed_same_fault_schedule(self, grid45):
        runs = []
        for _ in range(2):
            recorder, trace = traced_recorder()
            engine = run_flood(
                grid45,
                fault_model=BernoulliLoss(0.2),
                seed=0,
                fault_seed=17,
                recorder=recorder,
            )
            drops = [
                (e.round_no, e.src, e.dst)
                for e in trace.events_of_kind(DROP)
            ]
            runs.append((
                drops,
                engine.fault_stats.dropped,
                engine.fault_stats.per_round_drops,
            ))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0

    def test_different_fault_seeds_differ(self, grid45):
        def drops(fault_seed):
            recorder, trace = traced_recorder()
            run_flood(
                grid45,
                fault_model=BernoulliLoss(0.2),
                seed=0,
                fault_seed=fault_seed,
                recorder=recorder,
            )
            return [
                (e.round_no, e.src, e.dst)
                for e in trace.events_of_kind(DROP)
            ]

        assert drops(1) != drops(2)

    def test_fault_stream_does_not_perturb_node_rngs(self, path8):
        # The fault RNG is separate: a lossy run must see the same
        # per-node coin flips as a faultless run with the same seed.
        class CoinFlip(NodeProgram):
            def on_start(self, ctx):
                ctx.halt(output=int(ctx.rng.integers(0, 10**9)))

            def on_round(self, ctx, inbox):
                ctx.halt()

        plain = run_program(
            path8, {v: CoinFlip() for v in path8.nodes()}, seed=11
        )
        faulty, _, _ = run_with_faults(
            path8,
            {v: CoinFlip() for v in path8.nodes()},
            fault_model=BernoulliLoss(0.5),
            seed=11,
            fault_seed=99,
        )
        assert plain.outputs == faulty.outputs


class TestFaultTracing:
    def test_drops_are_first_class_trace_events(self, grid45):
        recorder, trace = traced_recorder()
        engine = run_flood(
            grid45, fault_model=BernoulliLoss(0.3), seed=0, fault_seed=4,
            recorder=recorder,
        )
        stats = engine.fault_stats
        drop_events = trace.events_of_kind(DROP)
        assert len(drop_events) == stats.dropped > 0
        # Deliveries and faults are disjoint views of the event stream.
        assert len(trace.deliveries()) == stats.delivered

    def test_null_recorder_records_nothing(self, grid45, monkeypatch):
        # A trace is asked for (run_with_faults, traced_recorder); under
        # the null recorder a lossy run builds no event at all.
        emitted = []
        monkeypatch.setattr(NULL_RECORDER, "emit", emitted.append)
        engine = run_flood(
            grid45, fault_model=BernoulliLoss(0.3), seed=0, fault_seed=4
        )
        assert engine.recorder is NULL_RECORDER
        assert engine.fault_stats.dropped > 0
        assert emitted == []

    def test_corruption_never_exceeds_bandwidth(self, small_network):
        # Corruption re-randomizes within declared domains, so no
        # delivered message may ever exceed the link bandwidth.
        recorder, trace = traced_recorder()
        engine = run_flood(
            small_network,
            fault_model=BitCorruption(1.0),
            seed=0,
            fault_seed=8,
            recorder=recorder,
        )
        assert engine.fault_stats.corrupted > 0
        for event in trace.deliveries():
            assert event.bits <= small_network.bandwidth

    def test_corrupted_messages_keep_their_bit_charge(self, path8):
        recorder, trace = traced_recorder()
        run_flood(
            path8, fault_model=BitCorruption(1.0), seed=0, fault_seed=8,
            recorder=recorder,
        )
        # FloodForever sends 1-bit Field(·, 2) frames; corrupted
        # deliveries must be charged identically.
        for event in trace.deliveries():
            assert event.bits == 1

    def test_stats_conservation(self, grid45):
        engine = run_flood(
            grid45, fault_model=BernoulliLoss(0.25), seed=0, fault_seed=2
        )
        stats = engine.fault_stats
        assert stats.attempted == (
            stats.delivered + stats.dropped + stats.delayed
        )
        assert 0.0 < stats.loss_rate() < 1.0
        assert sum(stats.per_round_drops) == stats.dropped

    @pytest.mark.parametrize(
        "make_model, crash_schedule, handed",
        [
            (lambda: BoundedDelay(0.3, max_delay=2), None, 233),
            (
                lambda: BernoulliLoss(0.2),
                CrashSchedule([CrashSpec(7, 2, 6)]),
                211,
            ),
        ],
        ids=["delay", "loss-and-crash-recovery"],
    )
    def test_attempted_counts_messages_handed_to_channel(
        self, grid45, make_model, crash_schedule, handed
    ):
        # A delayed message is handed over once (not again on release),
        # and one lost to a down node was handed over too.
        model = make_model()
        apply = model.apply
        calls = []

        def counting_apply(msg, round_no):
            calls.append(msg)
            return apply(msg, round_no)

        model.apply = counting_apply
        engine = FaultyEngine(
            grid45,
            {v: BoundedMaxIdFloodProgram(v, horizon=20) for v in grid45.nodes()},
            fault_model=model,
            crash_schedule=crash_schedule,
            seed=1,
            fault_seed=2,
        )
        engine.run()
        stats = engine.fault_stats
        assert len(calls) == handed
        assert stats.attempted == handed
        assert handed == (
            stats.delivered + stats.dropped + stats.lost_to_down_nodes
        )
        assert stats.loss_rate() == stats.dropped / handed


class TestFinishedEngine:
    def test_rerun_leaves_fault_stats_and_trace(self, grid45):
        recorder, trace = traced_recorder()
        engine = FaultyEngine(
            grid45,
            {v: BoundedMaxIdFloodProgram(v, horizon=20) for v in grid45.nodes()},
            fault_model=BernoulliLoss(0.2),
            crash_schedule=CrashSchedule([CrashSpec(7, 2, 6)]),
            seed=1,
            fault_seed=2,
            recorder=recorder,
        )
        first = engine.run()
        stats = copy.deepcopy(engine.fault_stats)
        events = list(trace.events)
        assert engine.run() is first
        assert engine.fault_stats == stats
        assert trace.events == events


class TestCrashFaults:
    def test_crash_and_recover_events_traced(self, path8):
        sched = CrashSchedule([CrashSpec(4, 2, 5)])
        recorder, trace = traced_recorder()
        engine = run_flood(
            path8, crash_schedule=sched, seed=0, recorder=recorder
        )
        assert engine.fault_stats.crashes == 1
        assert engine.fault_stats.recoveries == 1
        crashes = trace.events_of_kind(CRASH)
        recoveries = trace.events_of_kind(RECOVER)
        assert [(e.round_no, e.src) for e in crashes] == [(2, 4)]
        assert [(e.round_no, e.src) for e in recoveries] == [(5, 4)]

    def test_down_node_receives_nothing(self, path8):
        sched = CrashSchedule([CrashSpec(4, 1, 20)])
        recorder, trace = traced_recorder()
        engine = run_flood(
            path8, budget=25, crash_schedule=sched, seed=0, recorder=recorder
        )
        assert engine.fault_stats.lost_to_down_nodes > 0
        for event in trace.deliveries():
            if 1 <= event.round_no < 20:
                assert event.dst != 4

    def test_crash_stop_livelocks_plain_bfs(self):
        # An unprotected algorithm under crash-stop loses the wave and
        # honestly runs into the round-limit safety valve.
        net = topologies.path(6)
        sched = CrashSchedule([CrashSpec(3, 1)])
        with pytest.raises(RoundLimitExceeded):
            run_with_faults(
                net,
                bfs_programs(net),
                crash_schedule=sched,
                seed=0,
                max_rounds=120,
            )

    def test_crash_stop_of_halted_node_keeps_run_finishing(self, path8):
        # A node that crash-stops only after the algorithm finished must
        # not prevent termination accounting.
        sched = CrashSchedule([CrashSpec(7, 100)])
        result, _, _ = run_with_faults(
            path8,
            bfs_programs(path8),
            crash_schedule=sched,
            seed=0,
            max_rounds=500,
        )
        assert result.outputs[0] is not None
