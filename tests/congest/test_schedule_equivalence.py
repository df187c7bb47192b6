"""Active-set scheduling is observationally identical to the dense loop.

The engine's ``schedule="active"`` mode skips nodes whose round would be a
provable no-op.  These tests pin the contract down: for every library
program, over random topologies and seeds, the active run must produce
bit-identical rounds, outputs, and traffic statistics — including under a
fault-injecting engine, whose fault RNG stream must also line up.  Every
schedule, the bulk ``"vectorized"`` loop included, must also match the
textbook reference loop.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.algorithms.leader import (
    BoundedMaxIdFloodProgram,
    MaxIdFloodProgram,
)
from repro.congest.algorithms.multibfs import MultiSourceBFSProgram
from repro.congest.engine import Engine, run_program
from repro.congest.errors import RoundLimitExceeded
from repro.faults import BernoulliLoss, BoundedDelay, FaultyEngine

from .reference_loop import reference_run


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


def _make_program_factory(draw, net, family):
    """Return (zero-arg factory of fresh programs, run_program kwargs).

    A factory (rather than one programs dict) because each schedule needs
    its own pristine program instances built from identical parameters.
    """
    if family == "bfs":
        root = draw(st.integers(0, net.n - 1))
        return (
            lambda: {v: BFSEchoProgram(v, root) for v in net.nodes()},
            {},
        )
    if family == "multibfs":
        count = draw(st.integers(1, min(3, net.n)))
        sources = draw(
            st.lists(st.integers(0, net.n - 1), min_size=count,
                     max_size=count, unique=True)
        )
        return (
            lambda: {
                v: MultiSourceBFSProgram(v, sources) for v in net.nodes()
            },
            {"stop_on_quiescence": True},
        )
    return (
        lambda: {v: MaxIdFloodProgram(v) for v in net.nodes()},
        {"stop_on_quiescence": True},
    )


def _assert_identical(res_a, res_b):
    assert res_a.rounds == res_b.rounds
    assert res_a.outputs == res_b.outputs
    assert res_a.stats == res_b.stats


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
        make, kwargs = _make_program_factory(data.draw, net, family)
        active = run_program(net, make(), seed=seed, schedule="active",
                             **kwargs)
        dense = run_program(net, make(), seed=seed, schedule="dense",
                            **kwargs)
        _assert_identical(active, dense)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_schedules_match_reference_loop(self, data):
        net = _make_network(data.draw)
        family = data.draw(st.sampled_from(["bfs", "multibfs", "leader"]))
        seed = data.draw(st.integers(0, 100))
        make, kwargs = _make_program_factory(data.draw, net, family)
        reference = reference_run(Engine(net, make(), seed=seed, **kwargs))
        for schedule in ("active", "dense", "vectorized"):
            result = run_program(net, make(), seed=seed, schedule=schedule,
                                 **kwargs)
            _assert_identical(result, reference)

    def test_unknown_schedule_rejected(self):
        net = topologies.cycle(4)
        with pytest.raises(ValueError, match="schedule"):
            Engine(net, {v: MaxIdFloodProgram(v) for v in net.nodes()},
                   schedule="eager")


class RoundCounter(MaxIdFloodProgram):
    """A program that (implicitly) relies on executing every round.

    It inherits the library flooding logic but counts its own executions;
    because it does not declare ``always_active = False`` it must be run
    every round under either schedule — the safety default for unaudited
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
        result = run_program(net, progs, seed=0, schedule="active",
                             stop_on_quiescence=True)
        # Every node must have executed on_round exactly `rounds` times.
        assert {p.executions for p in progs.values()} == {result.rounds}


class SkippableRoundCounter(RoundCounter):
    """The same counter on a program that may skip silent rounds."""

    always_active = False


class TestDenseSchedule:
    def test_dense_executes_idle_nodes_every_round(self):
        net = topologies.path(6)
        executions = {}
        for schedule in ("dense", "active"):
            progs = {v: SkippableRoundCounter(v) for v in net.nodes()}
            result = run_program(net, progs, seed=0, schedule=schedule,
                                 stop_on_quiescence=True)
            assert result.rounds == 6
            executions[schedule] = [progs[v].executions for v in net.nodes()]
        assert executions == {
            "dense": [6, 6, 6, 6, 6, 6],
            "active": [6, 6, 5, 4, 3, 2],
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
        # then fires.  That outcome must also match between schedules.
        net = topologies.grid(3, 4)
        results = []
        for schedule in ("active", "dense"):
            engine = FaultyEngine(
                net,
                {v: BFSEchoProgram(v, 0) for v in net.nodes()},
                fault_model=BoundedDelay(delay_p, max_delay=2),
                fault_seed=fault_seed,
                seed=seed,
                schedule=schedule,
                max_rounds=300,
            )
            try:
                outcome = ("completed", engine.run())
            except RoundLimitExceeded:
                outcome = ("budget", None)
            results.append((outcome, engine.fault_stats.delayed))
        ((kind_a, res_a), delayed_a), ((kind_b, res_b), delayed_b) = results
        assert kind_a == kind_b
        if kind_a == "completed":
            _assert_identical(res_a, res_b)
        assert delayed_a == delayed_b

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
        results = []
        for schedule in ("active", "dense"):
            engine = FaultyEngine(
                net,
                {v: BoundedMaxIdFloodProgram(v, horizon=net.n)
                 for v in net.nodes()},
                fault_model=BernoulliLoss(loss_p),
                fault_seed=fault_seed,
                seed=seed,
                schedule=schedule,
            )
            results.append((engine.run(), engine.fault_stats.dropped))
        (res_a, dropped_a), (res_b, dropped_b) = results
        _assert_identical(res_a, res_b)
        assert dropped_a == dropped_b
