"""Context.request_wakeup and RunResult.common_output behavior."""

import pytest

from repro.congest import topologies
from repro.congest.encoding import Field
from repro.congest.engine import Engine, RunResult, run_program
from repro.congest.program import NodeProgram

from .reference_loop import reference_run


class SilentCountdown(NodeProgram):
    """Halts after N self-scheduled silent rounds; sends nothing.

    On the engine's per-node loop, which skips idle nodes, this program is
    only ever executed because it requests wakeups — there are no
    deliveries or sends to carry it.
    """

    always_active = False

    def __init__(self, node, countdown):
        self.node = node
        self.remaining = countdown
        self.executed_rounds = []

    def on_start(self, ctx):
        if self.remaining <= 0:
            ctx.halt(output=0)
            return
        ctx.request_wakeup()

    def on_round(self, ctx, inbox):
        self.executed_rounds.append(ctx.round)
        self.remaining -= 1
        if self.remaining <= 0:
            ctx.halt(output=ctx.round)
        else:
            ctx.request_wakeup()


class SparseWaker(NodeProgram):
    """Wakes itself at an explicit future round."""

    always_active = False

    def __init__(self, node, wake_round):
        self.node = node
        self.wake_round = wake_round
        self.executed_rounds = []

    def on_start(self, ctx):
        ctx.request_wakeup(self.wake_round)

    def on_round(self, ctx, inbox):
        self.executed_rounds.append(ctx.round)
        ctx.halt(output=ctx.round)


class TestRequestWakeup:
    def test_next_round_wakeups_drive_countdown(self):
        net = topologies.path(3)
        progs = {v: SilentCountdown(v, countdown=v + 1) for v in net.nodes()}
        result = run_program(net, progs, seed=0)
        assert result.outputs == {0: 1, 1: 2, 2: 3}
        for v, p in progs.items():
            assert p.executed_rounds == list(range(1, v + 2))

    def test_explicit_future_round(self):
        net = topologies.path(2)
        progs = {v: SparseWaker(v, wake_round=5 + v) for v in net.nodes()}
        result = run_program(net, progs, seed=0)
        assert progs[0].executed_rounds == [5]
        assert progs[1].executed_rounds == [6]
        assert result.outputs == {0: 5, 1: 6}

    def test_identical_under_dense_schedule(self):
        # The textbook loop runs every node every round, so it needs no
        # wakeups; the per-node loop must match it on wakeups alone.
        net = topologies.path(3)
        runs = []
        for run in (Engine.run, reference_run):
            progs = {
                v: SilentCountdown(v, countdown=v + 1) for v in net.nodes()
            }
            res = run(Engine(net, progs, seed=0))
            runs.append((res.rounds, res.outputs, res.stats))
        assert runs[0] == runs[1]

    def test_past_round_rejected(self):
        class BadWaker(NodeProgram):
            def on_start(self, ctx):
                ctx.request_wakeup(0)

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = topologies.path(2)
        with pytest.raises(ValueError, match="wake"):
            run_program(
                net, {v: BadWaker() for v in net.nodes()}, seed=0
            )


class EchoOnce(NodeProgram):
    """Node 0 broadcasts once; everyone halts after round 1."""

    def __init__(self, node, output):
        self.node = node
        self._output = output

    def on_start(self, ctx):
        if self.node == 0:
            ctx.broadcast(Field(1, 2))

    def on_round(self, ctx, inbox):
        ctx.halt(output=self._output)


class TestCommonOutput:
    def _result(self, outputs):
        return RunResult(rounds=1, outputs=outputs)

    def test_hashable_agreement(self):
        res = self._result({0: ("a", 1), 1: ("a", 1), 2: None})
        assert res.common_output() == ("a", 1)

    def test_hashable_disagreement(self):
        res = self._result({0: 1, 1: 2})
        with pytest.raises(ValueError, match="disagree"):
            res.common_output()

    def test_unhashable_agreement(self):
        res = self._result({0: [1, 2], 1: [1, 2], 2: None})
        assert res.common_output() == [1, 2]

    def test_unhashable_disagreement(self):
        res = self._result({0: [1], 1: [2]})
        with pytest.raises(ValueError, match="disagree"):
            res.common_output()

    def test_no_output(self):
        res = self._result({0: None})
        with pytest.raises(ValueError):
            res.common_output()

    def test_large_hashable_consensus_from_run(self):
        net = topologies.star(40)
        progs = {v: EchoOnce(v, output=7) for v in net.nodes()}
        result = run_program(net, progs, seed=0)
        assert result.common_output() == 7
