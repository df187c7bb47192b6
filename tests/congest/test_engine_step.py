"""Stepwise execution is bit-identical to the monolithic round loop.

The :mod:`repro.serve` daemon relies on :class:`~repro.congest.engine.
EngineStepper` to interleave many in-flight executions on one event
loop.  That is only sound if stepping changes *nothing* observable:
rounds, outputs, traffic statistics, and the recorder event stream must
match :meth:`~repro.congest.engine.Engine.run` exactly, on both the bulk
and the per-node loop — including when several steppers advance in
interleaved order, which is precisely the daemon's execution shape.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.congest.algorithms.leader import MaxIdFloodProgram
from repro.congest.engine import Engine, EngineStepper
from repro.congest.errors import RoundLimitExceeded
from repro.faults import FaultyEngine
from repro.obs import MemorySink, Recorder

from .reference_loop import PerNodeMaxIdFlood, flood_family


def _make_network(draw):
    kind = draw(st.sampled_from(["grid", "cycle", "regular", "star", "tree"]))
    if kind == "grid":
        return topologies.grid(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    if kind == "cycle":
        return topologies.cycle(draw(st.integers(3, 16)))
    if kind == "regular":
        n = draw(st.integers(4, 12).filter(lambda v: v % 2 == 0))
        return topologies.random_regular(n, 3, seed=draw(st.integers(0, 5)))
    if kind == "star":
        return topologies.star(draw(st.integers(3, 12)))
    return topologies.balanced_tree(2, draw(st.integers(1, 3)))


def _assert_identical(res_a, res_b):
    assert res_a.rounds == res_b.rounds
    assert res_a.outputs == res_b.outputs
    assert res_a.stats == res_b.stats


class TestStepperIdentity:
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_stepped_equals_monolithic(self, data):
        """run() and step()-to-exhaustion agree on rounds/outputs/stats/trace."""
        net = _make_network(data.draw)
        family = data.draw(st.sampled_from(["bfs", "multibfs", "leader"]))
        seed = data.draw(st.integers(0, 100))
        per_node = data.draw(st.booleans())
        make, kwargs = flood_family(data.draw, net, family)

        mono_sink, step_sink = MemorySink(), MemorySink()
        mono = Engine(net, make(per_node), seed=seed,
                      recorder=Recorder([mono_sink]), **kwargs).run()

        stepper = Engine(net, make(per_node), seed=seed,
                         recorder=Recorder([step_sink]), **kwargs).stepper()
        steps = 0
        while stepper.step():
            steps += 1
            assert stepper.rounds == steps
        _assert_identical(mono, stepper.result)
        assert stepper.rounds in (steps, 0)  # 0-round runs never stepped
        # The recorder event stream must match event for event.
        assert mono_sink.events == step_sink.events

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_interleaved_steppers_stay_independent(self, data):
        """Two engines stepped in interleaved order match two serial runs.

        This is the serving daemon's execution shape: one loop advancing
        several in-flight engines round by round.  Any hidden coupling
        (shared module state, ambient recorder leakage) breaks it.
        """
        net_a = _make_network(data.draw)
        net_b = _make_network(data.draw)
        seed_a = data.draw(st.integers(0, 50))
        seed_b = data.draw(st.integers(0, 50))
        per_node = data.draw(st.booleans())
        make_a, kw_a = flood_family(
            data.draw, net_a, data.draw(st.sampled_from(["bfs", "leader"])))
        make_b, kw_b = flood_family(
            data.draw, net_b, data.draw(st.sampled_from(["bfs", "leader"])))

        serial_a = Engine(net_a, make_a(per_node), seed=seed_a, **kw_a).run()
        serial_b = Engine(net_b, make_b(per_node), seed=seed_b, **kw_b).run()

        sa = Engine(net_a, make_a(per_node), seed=seed_a, **kw_a).stepper()
        sb = Engine(net_b, make_b(per_node), seed=seed_b, **kw_b).stepper()
        # Interleave with a data-drawn pattern until both finish.
        while not (sa.done and sb.done):
            pick_a = data.draw(st.booleans()) if not (sa.done or sb.done) \
                else sb.done
            (sa if pick_a else sb).step()
        _assert_identical(serial_a, sa.result)
        _assert_identical(serial_b, sb.result)


class TestStepperContract:
    def test_result_before_done_raises(self):
        net = topologies.cycle(6)
        stepper = Engine(
            net, {v: MaxIdFloodProgram(v) for v in net.nodes()},
            stop_on_quiescence=True,
        ).stepper()
        assert stepper.step()  # still mid-run after one round
        with pytest.raises(RuntimeError, match="still running"):
            stepper.result
        stepper.run_to_completion()
        assert stepper.done
        assert stepper.result.rounds >= 1

    def test_step_after_done_is_false(self):
        net = topologies.path(3)
        stepper = Engine(
            net, {v: MaxIdFloodProgram(v) for v in net.nodes()},
            stop_on_quiescence=True,
        ).stepper()
        stepper.run_to_completion()
        assert stepper.step() is False
        assert stepper.run_to_completion() is stepper.result

    def test_midflight_reentry_rejected(self):
        net = topologies.cycle(5)
        engine = Engine(
            net, {v: MaxIdFloodProgram(v) for v in net.nodes()},
            stop_on_quiescence=True,
        )
        stepper = engine.stepper()
        assert stepper.step()
        with pytest.raises(RuntimeError, match="mid-run"):
            engine.stepper()
        with pytest.raises(RuntimeError, match="mid-run"):
            EngineStepper(engine)
        with pytest.raises(RuntimeError, match="mid-run"):
            engine.run()
        # The original stepper is unaffected and finishes cleanly.
        assert stepper.run_to_completion().rounds >= 1

    @pytest.mark.parametrize("program", [MaxIdFloodProgram, PerNodeMaxIdFlood])
    def test_loop_that_raised_stays_latched(self, program):
        """A run that raised never finished: its engine stays mid-run."""
        net = topologies.path(6)
        engine = Engine(
            net, {v: program(v) for v in net.nodes()},
            stop_on_quiescence=True, max_rounds=2,
        )
        stepper = engine.stepper()
        assert stepper.step() and stepper.step()
        with pytest.raises(RoundLimitExceeded):
            stepper.step()
        assert stepper.step() is False
        assert not stepper.done
        with pytest.raises(RuntimeError, match="mid-run"):
            engine.stepper()
        with pytest.raises(RuntimeError, match="mid-run"):
            engine.run()

    def test_loop_is_chosen_at_the_first_step(self):
        """Building a stepper chooses nothing; its first step does."""
        net = topologies.path(4)
        engine = FaultyEngine(
            net, {v: MaxIdFloodProgram(v) for v in net.nodes()},
            stop_on_quiescence=True,
        )
        stepper = engine.stepper()
        assert engine.vectorized_fallback is None
        assert stepper.step()
        assert engine.vectorized_fallback == "fault-channel"
