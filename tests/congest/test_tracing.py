"""Tests for execution tracing (and the pipelining it makes visible)."""

import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram, bfs_with_echo
from repro.congest.encoding import Field
from repro.congest.program import NodeProgram
from repro.congest.tracing import (
    CORRUPT,
    DELAY,
    DELIVER,
    DROP,
    Trace,
    TraceEvent,
    run_traced,
)
from repro.core.state_transfer import RegisterStreamProgram


def _delivery(round_no, src=0, dst=1, bits=4, kind=DELIVER):
    return TraceEvent(round_no=round_no, src=src, dst=dst, bits=bits,
                      value=None, kind=kind)


class PingPong(NodeProgram):
    """Node 0 volleys to node 1, which echoes; a 'last' flag ends the game."""

    def __init__(self, node, volleys=3):
        self.node = node
        self.volleys = volleys
        self.sent = 0

    def _volley(self, ctx):
        last = self.sent == self.volleys - 1
        ctx.send(1, (Field(self.sent % 8, 8), last))
        self.sent += 1

    def on_start(self, ctx):
        if ctx.node == 0:
            self._volley(ctx)
        elif ctx.node != 1:
            ctx.halt()

    def on_round(self, ctx, inbox):
        msg = inbox.from_node(1 - ctx.node) if ctx.node in (0, 1) else None
        if msg is None:
            return
        value, last = msg.value
        if ctx.node == 1:
            ctx.send(0, (Field(value, 8), last))
            if last:
                ctx.halt()
        else:
            if last:
                ctx.halt()
            else:
                self._volley(ctx)


class TestTraceBasics:
    def test_events_recorded(self, path8):
        programs = {v: PingPong(v) for v in path8.nodes()}
        result, trace = run_traced(path8, programs, seed=1)
        assert len(trace.events) > 0
        assert trace.rounds_used() == result.rounds

    def test_event_fields(self, path8):
        programs = {v: PingPong(v) for v in path8.nodes()}
        _, trace = run_traced(path8, programs, seed=1)
        first = trace.events[0]
        assert first.round_no == 1
        assert first.src == 0 and first.dst == 1
        assert first.bits == 4  # Field(·, 8) + the 'last' flag bit

    def test_edge_filter(self, path8):
        programs = {v: PingPong(v) for v in path8.nodes()}
        _, trace = run_traced(path8, programs, seed=1)
        forward = trace.events_on_edge(0, 1)
        backward = trace.events_on_edge(1, 0)
        assert len(forward) >= 1 and len(backward) >= 1
        assert not trace.events_on_edge(3, 4)

    def test_results_match_untraced_engine(self, grid45):
        """Tracing must not change behaviour: BFS gives identical output."""
        programs = {v: BFSEchoProgram(v, 0) for v in grid45.nodes()}
        result, _ = run_traced(grid45, programs, seed=2)
        reference = bfs_with_echo(grid45, 0, seed=2)
        assert result.rounds == reference.rounds

    def test_busiest_round_and_bits(self, path8):
        programs = {v: PingPong(v) for v in path8.nodes()}
        _, trace = run_traced(path8, programs, seed=1)
        round_no, count = trace.busiest_round()
        assert count == 1  # ping-pong: one message per round
        assert trace.total_bits() == 4 * len(trace.events)


class TestPipeliningVisible:
    def test_register_stream_fills_pipe(self):
        """Lemma 7 pipelining: consecutive edges busy in consecutive rounds."""
        net = topologies.path(6)
        tree = bfs_with_echo(net, 0)
        children = tree.children()
        q_bits = 200
        chunk_bits = net.bandwidth - 8

        from repro.core.state_transfer import _chunk_register

        bits = [1] * q_bits
        chunks = _chunk_register(bits, chunk_bits)
        programs = {
            v: RegisterStreamProgram(
                v, tree.parent.get(v), children.get(v, []),
                chunks if v == 0 else None, len(chunks),
                1 << chunk_bits, pipelined=True,
            )
            for v in net.nodes()
        }
        _, trace = run_traced(net, programs, seed=3)
        # Edge (i, i+1) first carries a chunk in round i+1: the wavefront.
        for i in range(5):
            first = min(e.round_no for e in trace.events_on_edge(i, i + 1))
            assert first == i + 1
        # Interior edges stay busy nearly every round (the full pipe).
        assert trace.edge_utilization(0, 1) > 0.6

    def test_timeline_renders(self):
        net = topologies.path(4)
        tree = bfs_with_echo(net, 0)
        programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
        _, trace = run_traced(net, programs, seed=4)
        art = trace.render_timeline([(0, 1), (1, 2), (2, 3)])
        lines = art.splitlines()
        assert len(lines) == 4
        assert "#" in art and "." in art

    def test_busiest_round_tie_breaks_to_lowest_round(self):
        """Regression: among equally busy rounds, the lowest wins —
        independent of event recording order."""
        trace = Trace(events=[
            _delivery(5), _delivery(5), _delivery(2), _delivery(2),
        ])
        assert trace.busiest_round() == (2, 2)
        # Reversed recording order gives the same answer.
        trace_rev = Trace(events=list(reversed(trace.events)))
        assert trace_rev.busiest_round() == (2, 2)

    def test_busiest_round_counts_deliveries_only(self):
        trace = Trace(events=[
            _delivery(1),
            _delivery(2, kind=DROP), _delivery(2, kind=DROP),
        ])
        assert trace.busiest_round() == (1, 1)

    def test_edge_utilization_exact_fraction(self):
        # Edge (0, 1) busy in rounds 1 and 3 of a 4-round trace: 1/2.
        trace = Trace(events=[
            _delivery(1), _delivery(3), _delivery(4, src=1, dst=2),
        ])
        assert trace.edge_utilization(0, 1) == pytest.approx(0.5)
        assert trace.edge_utilization(1, 2) == pytest.approx(0.25)
        assert trace.edge_utilization(2, 1) == 0.0

    def test_edge_utilization_ignores_faults(self):
        trace = Trace(events=[
            _delivery(1), _delivery(2, kind=DROP),
        ])
        assert trace.edge_utilization(0, 1) == pytest.approx(0.5)

    def test_empty_trace(self, path8):
        from repro.congest.program import IdleProgram

        _, trace = run_traced(path8, {v: IdleProgram() for v in path8.nodes()})
        assert trace.rounds_used() == 0
        assert trace.busiest_round() == (0, 0)
        assert trace.edge_utilization(0, 1) == 0.0


class TestRenderTimeline:
    def test_rows_and_symbols(self):
        trace = Trace(events=[
            _delivery(1), _delivery(3),
            _delivery(2, src=1, dst=2, kind=DROP),
            _delivery(3, src=1, dst=2, kind=CORRUPT),
            _delivery(1, src=2, dst=3, kind=DELAY),
            _delivery(2, src=2, dst=3),
        ])
        art = trace.render_timeline([(0, 1), (1, 2), (2, 3)])
        lines = art.splitlines()
        assert len(lines) == 4  # header + one row per edge
        assert lines[0].endswith("123")
        assert lines[1].endswith("#.#")   # deliveries on (0, 1)
        assert lines[2].endswith(".x!")   # drop then corruption on (1, 2)
        assert lines[3].endswith("~#.")   # delay then delivery on (2, 3)

    def test_fault_symbol_outranks_delivery(self):
        """A retransmitted round shows the delivery-masking fault symbol."""
        trace = Trace(events=[
            _delivery(1), _delivery(1, kind=DROP),
        ])
        art = trace.render_timeline([(0, 1)])
        assert art.splitlines()[1].endswith("x")

    def test_max_rounds_clamps_horizon(self):
        trace = Trace(events=[_delivery(r) for r in (1, 2, 3, 4, 5)])
        art = trace.render_timeline([(0, 1)], max_rounds=3)
        header, row = art.splitlines()
        assert header.endswith("123")
        assert row.endswith("###")

    def test_unlisted_edges_not_rendered(self):
        trace = Trace(events=[_delivery(1), _delivery(1, src=5, dst=6)])
        art = trace.render_timeline([(0, 1)])
        assert len(art.splitlines()) == 2
        assert "5" not in art.splitlines()[1]
