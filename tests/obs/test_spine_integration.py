"""Integration tests: every layer emits into one attributed event stream.

The spine's acceptance criteria: one installed recorder collects engine
rounds, deliveries, faults, query batches, and ledger charges from a real
run with consistent span attribution — and with the null recorder the
refactored emitters change nothing observable.
"""

import dataclasses

import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.engine import Engine
from repro.congest.tracing import TraceSink, run_traced
from repro.core.cost import RoundLedger
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    run_framework,
)
from repro.core.semigroup import min_semigroup
from repro.faults.engine import run_with_faults
from repro.faults.models import BoundedDelay
from repro.obs import (
    NULL_RECORDER,
    MemorySink,
    MetricsSink,
    Recorder,
    install,
)
from repro.queries.ledger import ParallelismViolation, QueryLedger

from ..congest.reference_loop import PerNodeBFS


def _bfs_programs(net, program=BFSEchoProgram):
    return {v: program(v, 0) for v in net.nodes()}


class TestEngineEmission:
    def test_round_events_match_traffic_stats(self, grid45):
        sink = MemorySink()
        result = Engine(
            grid45, _bfs_programs(grid45), seed=1, recorder=Recorder([sink])
        ).run()
        rounds = sink.events_of_kind("round")
        assert [e.round_no for e in rounds] == list(range(1, result.rounds + 1))
        assert [e.messages for e in rounds] == result.stats.per_round_messages
        assert sum(e.messages for e in rounds) == result.stats.messages
        assert sum(e.bits for e in rounds) == result.stats.bits

    def test_deliver_events_match_round_totals(self, grid45):
        sink = MemorySink()
        Engine(
            grid45, _bfs_programs(grid45), seed=1, recorder=Recorder([sink])
        ).run()
        deliveries = sink.events_of_kind("deliver")
        by_round = {}
        for e in deliveries:
            by_round[e.round_no] = by_round.get(e.round_no, 0) + 1
        for r in sink.events_of_kind("round"):
            assert by_round.get(r.round_no, 0) == r.messages

    @pytest.mark.parametrize(
        "program", [BFSEchoProgram, PerNodeBFS], ids=["default", "active"]
    )
    def test_null_recorder_run_identical_to_recorded(self, grid45, program):
        """Recording must never change behaviour, on either loop: the
        engine's default pick for BFS (the bulk loop) or the per-node
        active-set loop."""
        plain = Engine(
            grid45, _bfs_programs(grid45, program), seed=2
        ).run()
        recorded = Engine(
            grid45, _bfs_programs(grid45, program), seed=2,
            recorder=Recorder([MemorySink()]),
        ).run()
        assert plain.rounds == recorded.rounds
        assert plain.outputs == recorded.outputs
        assert plain.stats.messages == recorded.stats.messages
        assert plain.stats.bits == recorded.stats.bits
        assert plain.stats.per_round_messages == recorded.stats.per_round_messages

    def test_schedules_emit_identical_streams(self, grid45):
        """Both loops emit the same events; only the advisory round
        ``mode`` names the loop."""
        streams = []
        for program in (BFSEchoProgram, PerNodeBFS):
            sink = MemorySink()
            Engine(
                grid45, _bfs_programs(grid45, program), seed=3,
                recorder=Recorder([sink]),
            ).run()
            streams.append(sink.events)
        bulk, per_node = streams
        assert {e.mode for e in bulk if e.kind == "round"} == {"vectorized"}
        assert [
            dataclasses.replace(e, mode="") if e.kind == "round" else e
            for e in bulk
        ] == per_node


class TestTracingShim:
    def test_tracing_engine_trace_matches_direct_sink(self, grid45):
        sink = TraceSink()
        Engine(
            grid45, _bfs_programs(grid45), seed=4, recorder=Recorder([sink])
        ).run()
        _, trace = run_traced(grid45, _bfs_programs(grid45), seed=4)
        assert trace.events == sink.trace.events

    def test_tracing_engine_forwards_to_ambient_sinks(self, grid45):
        """The shim forks: ambient sinks keep seeing the engine's events."""
        ambient = MemorySink()
        with install(Recorder([ambient])):
            _, trace = run_traced(grid45, _bfs_programs(grid45), seed=4)
        assert len(ambient.events_of_kind("deliver")) == len(
            trace.deliveries()
        )

    def test_faulty_run_identical_under_null_recorder(self, grid45):
        """Fault injection's RNG stream must not depend on recording."""
        kwargs = dict(
            fault_model=BoundedDelay(0.3, max_delay=2), seed=5, fault_seed=6
        )
        plain, plain_trace, plain_stats = run_with_faults(
            grid45, _bfs_programs(grid45), **kwargs
        )
        recorded, rec_trace, rec_stats = run_with_faults(
            grid45, _bfs_programs(grid45),
            recorder=Recorder([MemorySink()]), **kwargs,
        )
        assert plain.rounds == recorded.rounds
        assert plain.outputs == recorded.outputs
        assert plain_stats == rec_stats
        assert plain_trace.events == rec_trace.events


class TestLedgerEmission:
    def test_query_ledger_emits_after_validation(self):
        sink = MemorySink()
        ledger = QueryLedger(parallelism=4, recorder=Recorder([sink]))
        ledger.record(3, label="grover")
        with pytest.raises(ParallelismViolation):
            ledger.record(5)
        batches = sink.events_of_kind("query_batch")
        assert [(e.size, e.label) for e in batches] == [(3, "grover")]

    def test_query_ledger_resolves_ambient_late(self):
        """A ledger built before install() still reports into the bus."""
        ledger = QueryLedger(parallelism=4)
        sink = MemorySink()
        with install(Recorder([sink])):
            ledger.record(2)
        ledger.record(2)  # outside: null recorder, not emitted
        assert len(sink.events_of_kind("query_batch")) == 1
        assert ledger.batches == 2

    def test_round_ledger_emits_charges(self):
        sink = MemorySink()
        ledger = RoundLedger(recorder=Recorder([sink]))
        ledger.charge("setup", 10)
        ledger.charge("setup", 5)
        charges = sink.events_of_kind("charge")
        assert [(e.phase, e.rounds) for e in charges] == [("setup", 10), ("setup", 5)]


class TestUnifiedStream:
    def test_framework_and_faults_share_one_stream(self, grid45):
        """One recorder, one run of each layer: all six kinds, attributed."""
        vectors = {v: [v + j for j in range(6)] for v in grid45.nodes()}
        di = DistributedInput(vectors, min_semigroup(64))

        def algorithm(oracle, _rng):
            return oracle.query_batch([0, 2], label="probe")

        sink, metrics = MemorySink(), MetricsSink()
        rec = Recorder([sink, metrics])
        with install(rec):
            run = run_framework(grid45, algorithm, config=FrameworkConfig(
                parallelism=4, dist_input=di, mode="engine", seed=7,
            ))
            with rec.span("faulty"):
                run_with_faults(
                    grid45, _bfs_programs(grid45),
                    fault_model=BoundedDelay(0.3, max_delay=2),
                    seed=7, fault_seed=8,
                )

        kinds = {e.kind for e in sink.events}
        assert kinds == {"round", "deliver", "fault", "query_batch",
                         "charge", "span"}
        # Span attribution: setup charges under "setup", batch work under
        # "query/..." sub-spans, fault events under "faulty".
        charge_spans = {e.span for e in sink.events_of_kind("charge")}
        assert any(s == "setup" for s in charge_spans)
        assert any(s.startswith("query/") for s in charge_spans)
        assert all(e.span == "faulty" for e in sink.events_of_kind("fault"))
        # The metrics registry aggregates the same stream.
        assert metrics.total_charged == run.rounds.total
        assert metrics.query_batches == run.query_ledger.batches
        assert metrics.total_faults == len(sink.events_of_kind("fault")) > 0
        assert metrics.engine_rounds > 0 and metrics.messages > 0

    def test_framework_result_unchanged_by_recording(self, grid45, cold_setup):
        vectors = {v: [v + j for j in range(4)] for v in grid45.nodes()}

        def algorithm(oracle, _rng):
            return oracle.query_batch([1, 3])

        def once(recorder):
            di = DistributedInput(vectors, min_semigroup(64))
            cold_setup()  # setup runs under the recorder too
            with install(recorder):
                return run_framework(grid45, algorithm, config=FrameworkConfig(
                    parallelism=4, dist_input=di, mode="engine", seed=9,
                ))

        plain = once(NULL_RECORDER)
        recorded = once(Recorder([MemorySink()]))
        assert plain.result == recorded.result
        assert plain.rounds.charges == recorded.rounds.charges
        assert plain.query_ledger.records == recorded.query_ledger.records


class TestEngineRecorderResolution:
    def test_engine_adopts_ambient_at_construction(self):
        net = topologies.path(4)
        sink = MemorySink()
        with install(Recorder([sink])):
            engine = Engine(net, _bfs_programs(net), seed=1)
        # Constructed inside install(): still records after the block.
        engine.run()
        assert sink.events_of_kind("round")

    def test_engine_built_outside_install_stays_silent(self):
        net = topologies.path(4)
        sink = MemorySink()
        engine = Engine(net, _bfs_programs(net), seed=1)
        with install(Recorder([sink])):
            # The recorder is resolved at construction, not at run time.
            engine.run()
        assert sink.events == []
