"""A frozen replay of one sketch lane: values, report and event stream.

Open-loop serving makes the memo counts depend on timing, so this pins
the scheduler's accounting on a deterministic replay instead.  One
seeded stream (about 7.5% inserts, 1-2 Zipf-hot keys per operation) is
submitted to a recording :class:`~repro.sched.SketchScheduler` over the
serving profile's sketch, flushed whenever 64 items are pending, and
drained.  ``golden_sketch_replay.json`` is what :func:`replay` returned
when the sketch still hashed every item on every call; it is frozen, so
regenerate it only for a deliberate change of the lane's accounting,
never to make this module pass.
"""

import bisect
import dataclasses
import itertools
import json
import random
from pathlib import Path

from repro.core.operation import Operation
from repro.obs import MemorySink, Recorder
from repro.sched import SketchScheduler
from repro.serve.session import build_sketch_profile

GOLDEN = Path(__file__).parent / "golden_sketch_replay.json"
TENANTS = ("t0", "t1", "t2", "t3")
OPS = 400
KEYS = 2048
ZIPF_S = 1.1
INSERT_SHARE = 0.075
PARALLELISM = 64


def stream(seed: int = 7):
    """The seeded operations; draws only ``Random.random()``, whose
    sequence Python keeps stable across versions."""
    rnd = random.Random(seed)
    cumulative = list(
        itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(KEYS))
    )

    def key() -> str:
        rank = bisect.bisect_left(cumulative, rnd.random() * cumulative[-1])
        return f"key-{rank}"

    ops = []
    for i in range(OPS):
        write = rnd.random() < INSERT_SHARE
        items = tuple(key() for _ in range(1 + (rnd.random() < 0.5)))
        kind = Operation.insert if write else Operation.sketch_query
        ops.append(kind(TENANTS[i % len(TENANTS)], items))
    return ops


def replay():
    sink = MemorySink()
    recorder = Recorder([sink])
    sched = SketchScheduler(
        build_sketch_profile(recorder=recorder),
        parallelism=PARALLELISM, recorder=recorder,
    )
    tickets = []
    for op in stream():
        tickets.append(sched.submit(op))
        if sched.pending_queries >= PARALLELISM:
            sched.flush()
    sched.drain()
    return {
        "values": [sched.take(t) for t in tickets],
        "report": dataclasses.asdict(sched.report()),
        "events": [[e.kind, *dataclasses.astuple(e)] for e in sink.events],
    }


class TestGoldenSketchReplay:
    def test_replay_matches_fixture(self):
        expected = json.loads(GOLDEN.read_text())
        got = json.loads(json.dumps(replay()))
        assert got["report"] == expected["report"]
        assert got["values"] == expected["values"]
        assert got["events"] == expected["events"]

    def test_stream_exercises_every_edge(self):
        expected = json.loads(GOLDEN.read_text())
        report = expected["report"]
        assert report["insert_items"] > 0 and report["query_items"] > 0
        assert report["memo_hits"] > 0 and report["memo_invalidations"] > 0
        memo_edges = {e[4] for e in expected["events"] if e[0] == "sketch"}
        assert memo_edges == {"", "hit", "invalidate"}
