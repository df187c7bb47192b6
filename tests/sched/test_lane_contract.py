"""The lane contract both schedulers keep: a batch runs only when asked.

``submit`` queues, however much is pending; ``flush`` runs exactly one
batch; ``result`` and ``take`` run batches until their ticket is done;
``take`` releases the ticket; ``pending_queries`` is the payload still
queued.  The serving daemon relies on all of it for oracle and sketch
lanes alike.
"""

import pytest

from repro.apps.sketches import AmplitudeSketch, SketchSpec
from repro.core.operation import Operation
from repro.sched import CoalescingScheduler, SketchScheduler
from repro.serve import build_profile

P = 4


def oracle_lane():
    net, cfg = build_profile(rows=2, cols=2, k=16, parallelism=P)
    sched = CoalescingScheduler(net, cfg, memo=False)

    def op(i):
        return Operation.query(f"c{i % 2}", [i % 16, (i + 5) % 16])

    return sched, op, lambda sub: sub.remaining


def sketch_lane():
    sketch = AmplitudeSketch(
        SketchSpec(family="qcount", m=64, backend="emulated"), name="lane"
    )
    sched = SketchScheduler(sketch, parallelism=P, memo=False)

    def op(i):
        make = Operation.insert if i % 2 else Operation.sketch_query
        return make(f"c{i % 2}", [f"x{i}", f"y{i}"])

    return sched, op, lambda sub: sub.op.size


@pytest.mark.parametrize("lane", [oracle_lane, sketch_lane],
                         ids=["oracle", "sketch"])
def test_batches_run_only_when_the_owner_asks(lane):
    sched, op, unexecuted = lane()

    def check_pending():
        assert sched.pending_queries == sum(
            unexecuted(sub) for sub in sched._queue
        )

    tickets = []
    for i in range(3):  # 6 queued items at p = 4: submit never fills
        tickets.append(sched.submit(op(i)))
        check_pending()
    assert sched.pending_queries == 6 > P
    assert sched.physical_batches == 0
    assert not any(sched.done(t) for t in tickets)

    assert sched.flush() == P
    assert sched.physical_batches == 1
    check_pending()
    assert sched.pending_queries == 2
    assert sched.done(tickets[0]) and sched.done(tickets[1])
    assert not sched.done(tickets[2])

    late = sched.submit(op(3))
    check_pending()
    assert sched.physical_batches == 1
    assert len(sched.take(late)) == 2  # forces the batch that finishes it
    assert sched.physical_batches == 2
    check_pending()
    assert sched.pending_queries == 0 and sched.pack_would_be_empty()
    with pytest.raises(KeyError, match="unknown ticket"):
        sched.done(late)
    assert sched.done(tickets[2])

    forced = sched.submit(op(4))
    check_pending()
    assert len(sched.result(forced)) == 2
    assert sched.physical_batches == 3
    assert sched.result(forced) == sched.take(forced)
    check_pending()
    assert sched.flush() == 0
    assert sched.physical_batches == 3
    assert set(sched._by_ticket) == {t.id for t in tickets}
