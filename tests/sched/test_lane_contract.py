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
from repro.sched import CoalescingScheduler, SketchScheduler, scheduler
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


@pytest.mark.parametrize("n", [200, 800])
def test_draining_reads_each_submission_a_bounded_number_of_times(
    n, monkeypatch
):
    """Draining N queued submissions costs O(N), not O(N) per batch.

    A batch packs from the queue's head, so the submissions it finishes
    leave from the head and no batch rescans the queue: the ``done``
    reads while draining stay under three per submission (a batch of two
    two-query submissions reads five), where a rescan after every batch
    reads about N²/4.
    """
    reads = 0
    done = scheduler._Submission.done

    def counted(sub):
        nonlocal reads
        reads += 1
        return done.fget(sub)

    sched, op, _ = oracle_lane()
    tickets = [sched.submit(op(i)) for i in range(n)]
    monkeypatch.setattr(scheduler._Submission, "done", property(counted))
    sched.drain()
    assert sched.physical_batches == n // 2
    assert 0 < reads <= 3 * n
    monkeypatch.undo()
    assert all(sched.done(t) for t in tickets)
    assert sched.pending_queries == 0 and sched.pack_would_be_empty()
