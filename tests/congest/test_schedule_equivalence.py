"""Both engine loops are observationally identical to the textbook loop.

The engine picks its round loop itself: the bulk loop for the audited
families, and otherwise the per-node loop, which skips nodes whose round
would be a provable no-op.  These tests pin the contract down: over
random topologies, programs and seeds, each loop must produce the rounds,
outputs, traffic statistics and deliver events of the textbook loop in
``reference_loop.py``, which steps every node every round.  A
fault-injecting engine must match that loop driving the same fault
channel: its fault RNG stream, fault counters and fault events line up
too.  The per-node loop is reached on an audited family through the
per-node subclasses of ``reference_loop.py``.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.algorithms.leader import (
    BoundedMaxIdFloodProgram,
    MaxIdFloodProgram,
)
from repro.congest.engine import Engine, run_program
from repro.congest.errors import RoundLimitExceeded
from repro.faults import (
    BernoulliLoss,
    BoundedDelay,
    CrashSchedule,
    CrashSpec,
    FaultyEngine,
    ResilientProgram,
)
from repro.obs import MemorySink, Recorder

from ..property.test_prop_faults import fault_models
from .reference_loop import flood_family, reference_run


def _make_network(draw):
    kind = draw(st.sampled_from(["grid", "cycle", "regular", "star", "tree"]))
    if kind == "grid":
        rows = draw(st.integers(2, 5))
        cols = draw(st.integers(2, 5))
        return topologies.grid(rows, cols)
    if kind == "cycle":
        return topologies.cycle(draw(st.integers(3, 24)))
    if kind == "regular":
        n = draw(st.integers(4, 16).filter(lambda v: v % 2 == 0))
        return topologies.random_regular(n, 3, seed=draw(st.integers(0, 5)))
    if kind == "star":
        return topologies.star(draw(st.integers(3, 20)))
    return topologies.balanced_tree(2, draw(st.integers(1, 3)))


def _assert_identical(res_a, res_b):
    assert res_a.rounds == res_b.rounds
    assert res_a.outputs == res_b.outputs
    assert res_a.stats == res_b.stats


def _recorded(run, net, programs, **kwargs):
    """A fresh engine, ``run(engine)``'s result, and its deliver events."""
    sink = MemorySink()
    engine = Engine(net, programs, recorder=Recorder([sink]), **kwargs)
    return engine, run(engine), sink.events_of_kind("deliver")


class TestScheduleEquivalence:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_topologies_and_programs(self, data):
        net = _make_network(data.draw)
        family = data.draw(st.sampled_from(["bfs", "multibfs", "leader"]))
        seed = data.draw(st.integers(0, 100))
        make, kwargs = flood_family(data.draw, net, family)
        engine = Engine(net, make(per_node=True), seed=seed, **kwargs)
        per_node = engine.run()
        reference = reference_run(Engine(net, make(), seed=seed, **kwargs))
        _assert_identical(per_node, reference)
        assert engine.vectorized_fallback.startswith("unsupported-program-")
        assert engine.vectorized_rounds == 0

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_schedules_match_reference_loop(self, data):
        net = _make_network(data.draw)
        family = data.draw(st.sampled_from(["bfs", "multibfs", "leader"]))
        seed = data.draw(st.integers(0, 100))
        make, kwargs = flood_family(data.draw, net, family)
        _, reference, expected = _recorded(
            reference_run, net, make(), seed=seed, **kwargs
        )
        for per_node in (False, True):
            engine, result, delivered = _recorded(
                Engine.run, net, make(per_node), seed=seed, **kwargs
            )
            _assert_identical(result, reference)
            assert delivered == expected
            assert engine.vectorized_rounds == (0 if per_node else result.rounds)

    def test_unknown_schedule_rejected(self):
        # The engine picks its loop; no caller can name one.
        net = topologies.cycle(4)
        programs = {v: MaxIdFloodProgram(v) for v in net.nodes()}
        with pytest.raises(TypeError, match="schedule"):
            Engine(net, programs, schedule="active")
        with pytest.raises(TypeError, match="schedule"):
            run_program(net, programs, schedule="vectorized")


class RoundCounter(MaxIdFloodProgram):
    """A program that (implicitly) relies on executing every round.

    It inherits the library flooding logic but counts its own executions;
    because it does not declare ``always_active = False`` it must be run
    every round on every loop — the safety default for unaudited
    programs.
    """

    always_active = True

    def __init__(self, node):
        super().__init__(node)
        self.executions = 0

    def on_round(self, ctx, inbox):
        self.executions += 1
        super().on_round(ctx, inbox)


class TestSafetyDefault:
    def test_unaudited_programs_execute_every_round(self):
        net = topologies.grid(3, 3)
        progs = {v: RoundCounter(v) for v in net.nodes()}
        result = run_program(net, progs, seed=0, stop_on_quiescence=True)
        # Every node must have executed on_round exactly `rounds` times.
        assert {p.executions for p in progs.values()} == {result.rounds}


class SkippableRoundCounter(RoundCounter):
    """The same counter on a program that may skip silent rounds."""

    always_active = False


class TestDenseSchedule:
    def test_dense_executes_idle_nodes_every_round(self):
        # The textbook loop executes idle nodes every round; the engine's
        # per-node loop skips them once the flood has passed.
        net = topologies.path(6)
        executions = {}
        for run in (reference_run, Engine.run):
            progs = {v: SkippableRoundCounter(v) for v in net.nodes()}
            result = run(Engine(net, progs, seed=0, stop_on_quiescence=True))
            assert result.rounds == 6
            executions[run] = [progs[v].executions for v in net.nodes()]
        assert executions == {
            reference_run: [6, 6, 6, 6, 6, 6],
            Engine.run: [6, 6, 5, 4, 3, 2],
        }


def _faulty_outcome(make_engine, run):
    """How ``run`` ends on a fresh faulty engine: its result (or the
    round limit), the fault counters, and every deliver and fault event
    in emission order."""
    sink = MemorySink()
    engine = make_engine(Recorder([sink]))
    try:
        result = run(engine)
        outcome = (result.rounds, result.outputs, result.stats)
    except RoundLimitExceeded:
        outcome = "round-limit"
    events = [e for e in sink.events if e.kind != "round"]
    return outcome, asdict(engine.fault_stats), events


def _assert_faulty_run_matches_reference(make_engine):
    expected = _faulty_outcome(make_engine, reference_run)
    assert _faulty_outcome(make_engine, Engine.run) == expected


#: family -> (node program factory, engine kwargs): an always-active run,
#: a livelock-prone one, a quiescing one and the reliable-link wrapper.
FAULT_FAMILIES = {
    "bounded-flood": (lambda v: BoundedMaxIdFloodProgram(v, horizon=12), {}),
    "bfs-echo": (lambda v: BFSEchoProgram(v, 0), {"max_rounds": 150}),
    "max-id-flood": (MaxIdFloodProgram, {"stop_on_quiescence": True}),
    "resilient-bfs": (
        lambda v: ResilientProgram(BFSEchoProgram(v, 0)), {"max_rounds": 300}
    ),
}


class TestFaultyEngineEquivalence:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 50),
        fault_seed=st.integers(0, 50),
        delay_p=st.floats(0.0, 0.5),
    )
    def test_delay_model(self, seed, fault_seed, delay_p):
        # Under heavy delay BFS-with-echo can livelock; the round budget
        # then fires.  That outcome must also match the reference.
        net = topologies.grid(3, 4)
        _assert_faulty_run_matches_reference(
            lambda recorder: FaultyEngine(
                net,
                {v: BFSEchoProgram(v, 0) for v in net.nodes()},
                fault_model=BoundedDelay(delay_p, max_delay=2),
                fault_seed=fault_seed,
                seed=seed,
                max_rounds=300,
                recorder=recorder,
            )
        )

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 50),
        fault_seed=st.integers(0, 50),
        loss_p=st.floats(0.0, 0.3),
    )
    def test_loss_model_with_bounded_flooding(self, seed, fault_seed, loss_p):
        net = topologies.cycle(8)
        _assert_faulty_run_matches_reference(
            lambda recorder: FaultyEngine(
                net,
                {v: BoundedMaxIdFloodProgram(v, horizon=net.n)
                 for v in net.nodes()},
                fault_model=BernoulliLoss(loss_p),
                fault_seed=fault_seed,
                seed=seed,
                recorder=recorder,
            )
        )

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_every_fault_model_with_crashes(self, data):
        """Any channel model or chain of them, with a crash-stop or a
        crash-recovery of a drawn node, on each program family."""
        net = topologies.grid(3, 4)
        make, kwargs = FAULT_FAMILIES[
            data.draw(st.sampled_from(sorted(FAULT_FAMILIES)))
        ]
        crash_round = data.draw(st.integers(1, 6))
        crash = CrashSpec(
            data.draw(st.integers(0, net.n - 1)),
            crash_round,
            data.draw(st.none() | st.integers(crash_round + 1, 12)),
        )
        seed = data.draw(st.integers(0, 50))
        fault_seed = data.draw(st.integers(0, 50))
        # Each engine re-binds the model, which resets its state.
        model = data.draw(fault_models())
        _assert_faulty_run_matches_reference(
            lambda recorder: FaultyEngine(
                net,
                {v: make(v) for v in net.nodes()},
                fault_model=model,
                crash_schedule=CrashSchedule([crash]),
                fault_seed=fault_seed,
                seed=seed,
                recorder=recorder,
                **kwargs,
            )
        )
