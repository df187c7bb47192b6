"""Exact fault outcomes, frozen: rounds, outputs, traffic, fault counters, trace.

``golden_faults.json`` holds, for every case in :data:`CASES`, what a
faulty run produced when the file was written: the round count (or the
round-limit outcome), the outputs and :class:`TrafficStats` of a finished
run, the :class:`FaultStats` counters except ``attempted``, and a SHA-256
of the trace's ``(round, src, dst, bits, repr(value), kind)`` tuples.  The
grid crosses six channel models with no crash, a crash-stop and a
crash-recovery, on two loops over three programs (one always active, two
skippable), plus one resilient BFS per model and crash setting.  The
loops are the engine's own (``active``: a ``FaultyEngine`` always runs
its per-node loop, which skips idle nodes) and the textbook loop of
``tests/congest/reference_loop.py`` driving the same fault channel
(``dense``: every live node steps every round); each case's entry is the
same on both.  Equivalence tests compare loops with each other, so a
change to the fault RNG draw order that shifts every loop alike passes
them; this file does not.  Regenerate it only for a deliberate change of
fault semantics, never to make this module pass.
"""

import hashlib
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.algorithms.leader import (
    BoundedMaxIdFloodProgram,
    MaxIdFloodProgram,
)
from repro.congest.errors import RoundLimitExceeded
from repro.congest.tracing import traced_recorder
from repro.faults import (
    BernoulliLoss,
    BitCorruption,
    BoundedDelay,
    CompositeFaults,
    CrashSchedule,
    CrashSpec,
    FaultyEngine,
    GilbertElliottLoss,
    NoFaults,
    ResilientProgram,
)

from ..congest.reference_loop import reference_run

GOLDEN = Path(__file__).parent / "golden_faults.json"

MODELS = {
    "none": NoFaults,
    "bernoulli": lambda: BernoulliLoss(0.2),
    "burst": lambda: GilbertElliottLoss(0.1, 0.3, 0.0, 0.8),
    "corrupt": lambda: BitCorruption(0.2),
    "delay": lambda: BoundedDelay(0.3, max_delay=2),
    "composite": lambda: CompositeFaults(
        [BernoulliLoss(0.1), BoundedDelay(0.2, max_delay=2)]
    ),
}

CRASHES = {
    "none": None,
    "stop": lambda: CrashSchedule([CrashSpec(7, 3)]),
    "recover": lambda: CrashSchedule([CrashSpec(7, 2, 6)]),
}

#: family -> (node program factory, extra engine kwargs): an always-active
#: run, a livelock-prone one, a quiescing one and the reliable-link wrapper.
FAMILIES = {
    "bounded-flood": (lambda v: BoundedMaxIdFloodProgram(v, horizon=20), {}),
    "bfs-echo": (lambda v: BFSEchoProgram(v, 0), {"max_rounds": 150}),
    "max-id-flood": (MaxIdFloodProgram, {"stop_on_quiescence": True}),
    "resilient-bfs": (
        lambda v: ResilientProgram(BFSEchoProgram(v, 0)), {"max_rounds": 400}
    ),
}

#: loop label -> how a case's engine runs: its own (per-node) loop, or
#: the textbook loop over the same fault channel.
LOOPS = {"active": FaultyEngine.run, "dense": reference_run}

CASES = [
    f"{family}/{model}/{crash}/{loop}/{seed}"
    for model, crash, loop, (seed, family) in itertools.product(
        MODELS, CRASHES, LOOPS,
        enumerate(("bounded-flood", "bfs-echo", "max-id-flood")),
    )
] + [
    f"resilient-bfs/{model}/{crash}/active/1"
    for model, crash in itertools.product(MODELS, CRASHES)
]


def _trace_digest(trace):
    rows = [
        (e.round_no, e.src, e.dst, e.bits, repr(e.value), e.kind)
        for e in trace.events
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _fault_counters(stats):
    counters = asdict(stats)
    counters.pop("attempted", None)
    return counters


def run_case(case):
    """The frozen observables of one ``family/model/crash/loop/seed``."""
    family, model, crash, loop, seed = case.split("/")
    net = topologies.grid(4, 5)
    make, kwargs = FAMILIES[family]
    recorder, trace = traced_recorder()
    engine = FaultyEngine(
        net,
        {v: make(v) for v in net.nodes()},
        fault_model=MODELS[model](),
        crash_schedule=CRASHES[crash]() if CRASHES[crash] else None,
        seed=int(seed),
        fault_seed=int(seed) + 1,
        recorder=recorder,
        **kwargs,
    )
    try:
        result = LOOPS[loop](engine)
        record = {
            "rounds": result.rounds,
            "outputs": repr(sorted(result.outputs.items())),
            "traffic": asdict(result.stats),
        }
    except RoundLimitExceeded:
        record = {"rounds": "round-limit"}
    record["faults"] = _fault_counters(engine.fault_stats)
    record["trace_sha256"] = _trace_digest(trace)
    return record


def write_golden():
    """Rewrite the fixture from the code under test (see module docstring)."""
    lines = [
        f"{json.dumps(case)}: {json.dumps(run_case(case), sort_keys=True)}"
        for case in CASES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    outcomes = {record["rounds"] == "round-limit" for record in golden.values()}
    assert outcomes == {True, False}


@pytest.mark.parametrize("case", CASES)
def test_fault_outcome_matches_golden(case, golden):
    assert json.loads(json.dumps(run_case(case))) == golden[case]
