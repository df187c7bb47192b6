"""Engine edge cases and failure injection."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.congest import topologies
from repro.congest.algorithms.aggregate import (
    Downcast,
    Upcast,
    build_downcast_programs,
    build_upcast_programs,
    parent_array,
)
from repro.congest.algorithms.bfs import BFSEchoProgram, bfs_with_echo
from repro.congest.algorithms.leader import MaxIdFloodProgram
from repro.congest.encoding import Field
from repro.congest.engine import Engine, run_program
from repro.congest.errors import BandwidthExceeded, MessageTooLargeError
from repro.congest.models import CongestModel
from repro.congest.network import Network
from repro.congest.program import IdleProgram, NodeProgram
from repro.core.semigroup import combine_sum
from repro.obs import MemorySink, Recorder

from .reference_loop import PerNodeBFS, PerNodeMaxIdFlood


def _violation(net, programs):
    """(error type, message, rounds completed, events) of a failing run.

    Round events lose their advisory ``mode`` tag, the one field that
    names the loop that ran them.
    """
    sink = MemorySink()
    stepper = Engine(
        net, programs, seed=0, recorder=Recorder([sink])
    ).stepper()
    with pytest.raises((BandwidthExceeded, ValueError)) as info:
        while stepper.step():
            pass
    events = [
        dataclasses.replace(e, mode="") if hasattr(e, "mode") else e
        for e in sink.events
    ]
    return type(info.value), str(info.value), stepper.rounds, events


#: The two forms a tree transfer enters the engine in: its program dict,
#: which runs per node, or arrays, which run on the bulk loop.
ENTRIES = ("dict", "arrays")


def _entry(entry, make, transfer):
    """The programs of one of :data:`ENTRIES`."""
    return transfer if entry == "arrays" else make()


class TestHaltedNodes:
    def test_messages_to_halted_nodes_are_dropped(self, path8):
        class SendThenHalt(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.halt(output="early")

            def on_round(self, ctx, inbox):
                if ctx.node == 1 and ctx.round == 1:
                    ctx.send(0, Field(1, 4))  # node 0 already halted
                if ctx.round >= 2:
                    ctx.halt(output="late")

        result = run_program(path8, {v: SendThenHalt() for v in path8.nodes()})
        assert result.outputs[0] == "early"
        assert result.outputs[1] == "late"

    def test_sends_in_halting_round_still_delivered(self, path8):
        class LastWords(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, Field(3, 4))
                    ctx.halt()

            def on_round(self, ctx, inbox):
                if inbox:
                    ctx.halt(output=inbox.values()[0])
                elif ctx.round > 2:
                    ctx.halt()

        result = run_program(path8, {v: LastWords() for v in path8.nodes()})
        assert result.outputs[1] == 3


class TestFailureInjection:
    def test_program_exception_propagates(self, path8):
        class Crashes(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 3:
                    raise RuntimeError("node 3 is broken")
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(RuntimeError, match="node 3"):
            run_program(path8, {v: Crashes() for v in path8.nodes()})

    @pytest.mark.parametrize("program,reason", [
        pytest.param(BFSEchoProgram, "message-exceeds-bandwidth",
                     id="BFSEchoProgram"),
        pytest.param(PerNodeBFS, "unsupported-program-PerNodeBFS",
                     id="PerNodeBFS"),
    ])
    def test_bfs_on_starved_bandwidth_raises_model_violation(
        self, program, reason
    ):
        """Protocols must fail loudly, not silently truncate, when the
        bandwidth cannot carry their messages — whichever loop the
        engine picks: an audited family that cannot fit never starts on
        the bulk loop."""
        import networkx as nx

        # Too small for (tag, dist).
        net = Network(nx.path_graph(6), comm_model=CongestModel(bandwidth=2))

        def make(cls):
            return {v: cls(v, 0) for v in net.nodes()}

        engine = Engine(net, make(program))
        with pytest.raises(BandwidthExceeded):
            engine.run()
        assert engine.vectorized_fallback == reason
        assert _violation(net, make(program)) == _violation(
            net, make(PerNodeBFS)
        )

    @pytest.mark.parametrize("program,reason", [
        pytest.param(MaxIdFloodProgram, "message-exceeds-bandwidth",
                     id="MaxIdFloodProgram"),
        pytest.param(PerNodeMaxIdFlood, "unsupported-program-PerNodeMaxIdFlood",
                     id="PerNodeMaxIdFlood"),
    ])
    def test_flood_on_starved_bandwidth_raises_model_violation(
        self, program, reason
    ):
        """The one-field flood is held to the bandwidth like the
        two-field families: ``Field(id, 6)`` is 3 bits."""
        import networkx as nx

        net = Network(nx.path_graph(6), comm_model=CongestModel(bandwidth=2))

        def make(cls):
            return {v: cls(v) for v in net.nodes()}

        engine = Engine(net, make(program), stop_on_quiescence=True)
        with pytest.raises(MessageTooLargeError):
            engine.run()
        assert engine.vectorized_fallback == reason
        assert _violation(net, make(program)) == _violation(
            net, make(PerNodeMaxIdFlood)
        )

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_transfer_on_starved_bandwidth_raises_model_violation(self, entry):
        """An (index, value) pair past the bandwidth never starts on the
        bulk loop: on every entry the per-node loop raises
        ``MessageTooLargeError`` at the first send."""
        import networkx as nx

        tree = bfs_with_echo(Network(nx.path_graph(6)), 0)
        net = Network(nx.path_graph(6), comm_model=CongestModel(bandwidth=2))
        values = {v: [1] for v in net.nodes()}
        make = partial(build_upcast_programs, net, tree, values, combine_sum, 8)
        transfer = Upcast(
            parent_array(tree, net.n), np.ones((net.n, 1)), combine_sum, 8
        )
        got = _violation(net, _entry(entry, make, transfer))
        assert got[0] is MessageTooLargeError
        assert got == _violation(net, make())

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_upcast_value_outside_domain_raises(self, entry):
        net = topologies.grid(3, 3)
        tree = bfs_with_echo(net, 0)
        values = {v: [3, 1] for v in net.nodes()}
        make = partial(build_upcast_programs, net, tree, values, combine_sum, 8)
        transfer = Upcast(
            parent_array(tree, net.n), np.full((net.n, 2), [3, 1]),
            combine_sum, 8,
        )
        got = _violation(net, _entry(entry, make, transfer))
        assert got[:2] == (ValueError, "value 9 outside domain [0, 8)")
        assert got == _violation(net, make())

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_downcast_value_outside_domain_raises(self, entry):
        net = topologies.grid(3, 3)
        tree = bfs_with_echo(net, 0)
        make = partial(build_downcast_programs, net, tree, [5, 1, 9], 8)
        transfer = Downcast(parent_array(tree, net.n), np.array([5, 1, 9]), 8)
        got = _violation(net, _entry(entry, make, transfer))
        assert got[:3] == (ValueError, "value 9 outside domain [0, 8)", 1)
        assert got == _violation(net, make())

    def test_mid_protocol_violation_detected(self, path8):
        class GoodThenGreedy(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, Field(0, 4))

            def on_round(self, ctx, inbox):
                if ctx.node == 1 and inbox:
                    ctx.send(0, "x" * 50)  # way over budget
                elif ctx.round > 3:
                    ctx.halt()

        with pytest.raises(BandwidthExceeded):
            run_program(path8, {v: GoodThenGreedy() for v in path8.nodes()})


class TestEngineLifecycle:
    def test_run_after_completion_is_noop(self, path8):
        engine = Engine(path8, {v: IdleProgram() for v in path8.nodes()})
        first = engine.run()
        second = engine.run()
        assert first.rounds == 0
        assert second.rounds == 0

    def test_rerun_of_finished_engine_executes_nothing(self):
        net = topologies.path(5)
        sink = MemorySink()
        engine = Engine(
            net, {v: BFSEchoProgram(v, 0) for v in net.nodes()}, seed=0,
            recorder=Recorder([sink]),
        )
        first = engine.run()
        assert (first.rounds, first.stats.messages) == (8, 8)
        emitted = len(sink.events)
        assert engine.run() is first
        assert not engine.stepper().step()
        assert len(sink.events) == emitted

    def test_single_node_network_runs(self):
        net = topologies.path(1)
        result = run_program(net, {0: IdleProgram()})
        assert result.rounds == 0
        assert result.stats.messages == 0


class TestContextHelpers:
    def test_broadcast_reaches_all_neighbors(self, star10):
        class Announcer(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.broadcast(Field(7, 8))
                    ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt(output=inbox.values()[0] if inbox else None)

        result = run_program(star10, {v: Announcer() for v in star10.nodes()})
        assert all(result.outputs[v] == 7 for v in range(1, star10.n))

    def test_inbox_helpers(self, path8):
        class Inspector(NodeProgram):
            def on_start(self, ctx):
                if ctx.node in (0, 2):
                    ctx.send(1, Field(ctx.node, 8))
                ctx_is_mid = ctx.node == 1
                if not ctx_is_mid:
                    ctx.halt()

            def on_round(self, ctx, inbox):
                assert len(inbox) == 2
                assert bool(inbox)
                assert inbox.from_node(0).value == 0
                assert inbox.from_node(2).value == 2
                assert inbox.from_node(5) is None
                assert sorted(inbox.senders()) == [0, 2]
                ctx.halt(output="checked")

        result = run_program(path8, {v: Inspector() for v in path8.nodes()})
        assert result.outputs[1] == "checked"
