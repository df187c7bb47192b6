"""Operation/OperationStream: validation, and positional-submit rejection."""

import pytest

from repro.core.operation import OPERATION_KINDS, Operation, OperationStream
from repro.sched import CoalescingScheduler
from repro.serve import QueryService, TenantQuota, build_profile

NET, CFG = build_profile(rows=2, cols=2, k=8, parallelism=4)


class TestOperation:
    def test_query_constructor(self):
        op = Operation.query("alice", [3, 1, 4], label="probe")
        assert op.kind == "query"
        assert op.indices == (3, 1, 4)
        assert op.items == ()
        assert op.size == 3
        assert not op.is_write

    def test_sketch_query_constructor(self):
        op = Operation.sketch_query("bob", ["key-1", "key-2"])
        assert op.kind == "query"
        assert op.indices == ()
        assert op.items == ("key-1", "key-2")
        assert op.size == 2
        assert not op.is_write

    def test_insert_constructor(self):
        op = Operation.insert("carol", ["key-9"])
        assert op.kind == "insert"
        assert op.is_write
        assert op.size == 1

    def test_frozen_and_hashable(self):
        op = Operation.query("a", [0, 1])
        with pytest.raises(AttributeError):
            op.caller = "b"
        assert op == Operation.query("a", [0, 1])
        assert len({op, Operation.query("a", [0, 1])}) == 1

    def test_replace_revalidates(self):
        op = Operation.query("a", [0, 1])
        assert op.replace(label="x").label == "x"
        with pytest.raises(ValueError):
            op.replace(indices=())  # empty operation

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operation kind"):
            Operation(kind="compose", caller="a", items=("x",))
        assert OPERATION_KINDS == ("query", "insert")

    def test_empty_caller_rejected(self):
        with pytest.raises(ValueError, match="caller"):
            Operation.query("", [0])

    def test_both_payloads_rejected(self):
        with pytest.raises(ValueError, match="never both"):
            Operation(kind="query", caller="a", indices=(0,), items=("x",))

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="empty operation"):
            Operation.query("a", [])

    def test_insert_needs_items(self):
        with pytest.raises(ValueError, match="carry items"):
            Operation(kind="insert", caller="a", indices=(0,))

    def test_indices_must_be_ints(self):
        with pytest.raises(ValueError, match="plain ints"):
            Operation.query("a", [0, True])


class TestOperationStream:
    def test_order_and_access(self):
        ops = [
            Operation.insert("a", ["x"]),
            Operation.sketch_query("a", ["x"]),
        ]
        stream = OperationStream(ops)
        assert list(stream) == ops
        assert len(stream) == 2
        assert stream[0].is_write

    def test_counts_and_fraction(self):
        stream = OperationStream([
            Operation.insert("a", ["x"]),
            Operation.sketch_query("a", ["x"]),
            Operation.sketch_query("b", ["y"]),
            Operation.insert("b", ["y"]),
        ])
        assert stream.counts == {"insert": 2, "query": 2}
        assert stream.insert_fraction == 0.5
        assert OperationStream().insert_fraction == 0.0

    def test_extended_is_new_stream(self):
        base = OperationStream([Operation.query("a", [0])])
        grown = base.extended([Operation.query("b", [1])])
        assert len(base) == 1
        assert len(grown) == 2

    def test_non_operation_rejected(self):
        with pytest.raises(TypeError):
            OperationStream([("a", [0], "")])


class TestSchedulerShim:
    """The oracle lane takes an Operation and nothing else."""

    def make(self):
        return CoalescingScheduler(NET, CFG, memo=False)

    def test_positional_submit_rejected(self):
        with pytest.raises(TypeError):
            self.make().submit("a", [0, 3, 5], label="x")

    def test_operation_plus_indices_is_an_error(self):
        sched = self.make()
        with pytest.raises(TypeError):
            sched.submit(Operation.query("a", [0]), [1, 2])

    def test_write_op_rejected_by_oracle_lane(self):
        sched = self.make()
        with pytest.raises(ValueError, match="SketchScheduler"):
            sched.submit(Operation.insert("a", ["key-1"]))

    def test_items_op_rejected_by_oracle_lane(self):
        sched = self.make()
        with pytest.raises(ValueError, match="SketchScheduler"):
            sched.submit(Operation.sketch_query("a", ["key-1"]))


class TestDaemonShim:
    def test_positional_submit_rejected(self):
        import asyncio

        async def drive():
            service = QueryService(
                default_quota=TenantQuota("default", max_pending=64),
                flush_after_ms=1.0,
            )
            service.add_profile(NET, CFG)
            with pytest.raises(TypeError):
                service.submit("t", [1, 2])
            canonical = await service.submit(Operation.query("t", [1, 2]))
            await service.drain()
            return canonical

        assert len(asyncio.run(drive()).values) == 2
