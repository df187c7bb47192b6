"""SketchScheduler: FIFO writes, memo invalidation, daemon surface."""

import pytest

from repro.apps.sketches import AmplitudeSketch, SketchSpec
from repro.core.operation import Operation
from repro.obs import MemorySink, MetricsSink, Recorder
from repro.sched import ResultMemo, SketchScheduler


def make_sched(memo=True, recorder=None, parallelism=64, m=64):
    sketch = AmplitudeSketch(
        SketchSpec(family="qcount", m=m, backend="emulated"),
        name="lane0",
    )
    return SketchScheduler(
        sketch, parallelism=parallelism, memo=memo, recorder=recorder
    )


class TestSubmit:
    def test_operation_only_no_legacy_form(self):
        sched = make_sched()
        with pytest.raises(TypeError):
            sched.submit("caller", ["x"])

    def test_indices_payload_rejected(self):
        sched = make_sched()
        with pytest.raises(ValueError, match="CoalescingScheduler"):
            sched.submit(Operation.query("a", [0, 1]))

    def test_insert_then_query_roundtrip(self):
        sched = make_sched()
        ti = sched.submit(Operation.insert("a", ["x"]))
        tq = sched.submit(Operation.sketch_query("a", ["x"]))
        assert sched.result(ti) == [True]
        assert sched.result(tq) == [pytest.approx(1.0)]

    def test_take_releases_the_ticket(self):
        sched = make_sched()
        ti = sched.submit(Operation.insert("a", ["x"]))
        tq = sched.submit(Operation.sketch_query("a", ["x"]))
        assert sched.take(tq) == [pytest.approx(1.0)]  # forces the insert
        assert sched.result(ti) == sched.take(ti) == [True]
        for t in (ti, tq):
            for read in (sched.done, sched.result, sched.take):
                with pytest.raises(KeyError, match="unknown ticket"):
                    read(t)
        assert sched._by_ticket == {}

    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("kind", ["insert", "query"])
    def test_item_the_sketch_cannot_encode_is_refused(self, kind, memo):
        """Refused at submit, like an out-of-range oracle index: queued,
        it would fail every later batch after applying the items ahead."""
        sched = make_sched(memo=memo)
        make = Operation.insert if kind == "insert" else Operation.sketch_query
        with pytest.raises(TypeError, match="unsupported sketch item"):
            sched.submit(make("t", ["a", [1, 2]]))
        assert sched.pack_would_be_empty()
        assert sched.pending_queries == 0
        assert sched.report().submissions == 0
        ack = sched.submit(Operation.insert("t", ["b"]))
        assert sched.flush() == 1
        assert sched.take(ack) == [True]
        assert sched.sketch.inserts == 1
        assert sched.sketch.query("a") == pytest.approx(
            sched.sketch.baseline_overlap("a")
        )


class TestFIFO:
    def test_query_after_insert_sees_the_write(self):
        """The write-path invariant: no query is served its stale past."""
        sched = make_sched()
        before = sched.submit(Operation.sketch_query("a", ["x"]))
        sched.submit(Operation.insert("b", ["x"]))
        after = sched.submit(Operation.sketch_query("a", ["x"]))
        sched.drain()
        baseline = sched.sketch.baseline_overlap("x")
        assert sched.result(before) == [pytest.approx(baseline)]
        assert sched.result(after) == [pytest.approx(1.0)]

    def test_whole_operations_per_batch(self):
        sched = make_sched(parallelism=3)
        sched.submit(Operation.insert("a", ["x", "y"]))
        sched.submit(Operation.insert("a", ["z", "w"]))  # 4 > 3: next batch
        assert sched.flush() == 2
        assert sched.pending_queries == 2
        assert sched.flush() == 2
        assert sched.pack_would_be_empty()

    def test_oversized_operation_still_runs_alone(self):
        sched = make_sched(parallelism=2)
        t = sched.submit(
            Operation.insert("a", ["k1", "k2", "k3", "k4"])
        )
        assert sched.result(t) == [True] * 4
        assert sched.report().physical_batches == 1


class TestMemo:
    def test_repeat_query_hits_without_pending_writes(self):
        sched = make_sched()
        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        t = sched.submit(Operation.sketch_query("b", ["x"]))
        assert sched.done(t)  # submit-time fast path answered it
        assert sched.report().memo_hits == 1

    def test_pending_insert_blocks_the_fast_path(self):
        sched = make_sched()
        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        sched.submit(Operation.insert("b", ["y"]))
        t = sched.submit(Operation.sketch_query("a", ["x"]))
        assert not sched.done(t)  # must wait behind the write

    def test_insert_invalidates_and_query_sees_new_value(self):
        sched = make_sched()
        stale = sched.result(
            sched.submit(Operation.sketch_query("a", ["x"]))
        )
        sched.drain()
        sched.result(sched.submit(Operation.insert("b", ["x"])))
        fresh = sched.result(
            sched.submit(Operation.sketch_query("a", ["x"]))
        )
        assert stale != fresh
        assert fresh == [pytest.approx(1.0)]
        assert sched.report().memo_invalidations >= 1

    def test_shared_memo_instance(self):
        memo = ResultMemo()
        sched = make_sched(memo=memo)
        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        assert len(memo) >= 1

    def test_memo_disabled(self):
        sched = make_sched(memo=False)
        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        assert sched.report().memo_hits == 0
        assert sched.report().memo_invalidations == 0


class TestReportAndEvents:
    def test_report_accounting(self):
        sched = make_sched()
        sched.submit(Operation.insert("a", ["x", "y"]))
        sched.submit(Operation.sketch_query("b", ["x"]))
        sched.drain()
        report = sched.report()
        assert report.callers == 2
        assert report.submissions == 2
        assert report.insert_items == 2
        assert report.query_items == 1
        assert report.total_ops == 3
        assert report.attributed_rounds == 0

    def test_memo_edges_emit_sketch_events(self):
        sink = MemorySink()
        sched = make_sched(recorder=Recorder([sink]))
        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        t = sched.submit(Operation.sketch_query("b", ["x"]))
        assert sched.done(t)
        sched.result(sched.submit(Operation.insert("c", ["x"])))
        memos = [
            e.memo for e in sink.events if e.kind == "sketch" and e.memo
        ]
        assert "hit" in memos
        assert "invalidate" in memos

    def test_metrics_sink_counts_physical_and_memo(self):
        metrics = MetricsSink()
        recorder = Recorder([metrics])
        sketch = AmplitudeSketch(
            SketchSpec(family="qcount", m=64, backend="emulated"),
            name="lane0", recorder=recorder,
        )
        sched = SketchScheduler(sketch, memo=True, recorder=recorder)
        sched.result(sched.submit(Operation.insert("a", ["x", "y"])))
        sched.result(sched.submit(Operation.sketch_query("b", ["x"])))
        t = sched.submit(Operation.sketch_query("c", ["x"]))
        assert sched.done(t)
        assert metrics.sketch_ops == {"insert": 2, "query": 1}
        assert metrics.sketch_memo == {"hit": 1}


class TestSteppable:
    def test_execute_batch_steps_returns_size(self):
        sched = make_sched()
        sched.submit(Operation.insert("a", ["x", "y", "z"]))
        gen = sched.execute_batch_steps()
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == 3

    def test_pending_queries_is_the_queued_item_count(self):
        # ``pending_queries`` is a running count; it must equal the
        # queue's summed sizes after every way the queue changes.
        sched = make_sched(parallelism=4)

        def check():
            assert sched.pending_queries == sum(
                sub.op.size for sub in sched._queue
            )

        sched.result(sched.submit(Operation.sketch_query("a", ["x"])))
        check()
        hit = sched.submit(Operation.sketch_query("b", ["x"]))
        assert sched.done(hit)  # a memo hit never enters the queue
        check()
        for op in [
            Operation.insert("a", ["x", "y"]),
            Operation.sketch_query("b", ["x"]),  # behind a write: queued
            Operation.insert("c", ["z", "w", "v"]),
            Operation.sketch_query("a", ["y", "z"]),
        ]:
            sched.submit(op)
            check()
        assert sched.pending_queries == 8
        assert sched.flush() == 3
        check()
        sched.drain()
        check()
        assert sched.pending_queries == 0
