"""Wall-clock gate: the disabled observability spine costs under 5%.

The spine's contract (DESIGN.md §6d) is that *disabled* instrumentation
is free: with the null recorder installed the engine pays one
cached-boolean branch per delivery and per round, and nothing else.
This gate times BFS-with-echo flooding three ways — with the
observation seam compiled out (``_BareEngine``), with the null recorder,
and with a dense :class:`~repro.obs.MetricsSink` receiving every event —
asserts the three runs agree, and fails when the null-recorder run is
:data:`OVERHEAD_BUDGET` or more slower than the bare one.  The dense
sink has no budget (recording is allowed to cost); its time is reported
in the failure message for context.

It is a wall-clock bound, so it stays out of tier-1; see README.md here.
"""

import time

import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.engine import Engine
from repro.obs import MetricsSink, Recorder

#: Maximum tolerated slowdown of the null-recorder (disabled) path
#: relative to an engine with no observation seam at all.
OVERHEAD_BUDGET = 0.05

#: Timed repetitions per variant, after one warm-up run of each.
REPS = 9


class _BareEngine(Engine):
    """The pre-spine engine: recorder branches forced out of every path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recording = False

    def _on_deliver(self, msg, round_no):
        pass


def _flood(net, engine_cls=Engine, recorder=None):
    programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
    # Pinned to the per-node loop: its per-delivery seam is what the
    # budget guards, and the default bulk loop never calls it.
    engine = engine_cls(
        net, programs, seed=1, schedule="active", recorder=recorder
    )
    return engine.run()


def _dense_flood(net):
    # A fresh recorder and sink per run, so repetitions do not accumulate.
    return _flood(net, recorder=Recorder([MetricsSink()]))


def _best_of_interleaved(thunks, reps):
    """Best-of-``reps`` wall time per thunk, one rep of each per pass.

    Interleaving makes drift on the host (a background process starting
    mid-run) hit every variant alike, which is what a ratio needs.
    """
    for fn in thunks.values():
        fn()
    best = {name: float("inf") for name in thunks}
    for _ in range(reps):
        for name, fn in thunks.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name,build", [
    ("random_regular(n=400,d=4)",
     lambda: topologies.random_regular(400, 4, seed=1)),
    ("grid(20x15)", lambda: topologies.grid(20, 15)),
])
def test_disabled_spine_overhead_within_budget(name, build):
    net = build()
    bare = _flood(net, engine_cls=_BareEngine)
    for label, other in (("null", _flood(net)), ("dense", _dense_flood(net))):
        assert (other.rounds, other.outputs) == (bare.rounds, bare.outputs), (
            f"{label}-recorder run diverged on {name}"
        )
    times = _best_of_interleaved(
        {
            "bare": lambda: _flood(net, engine_cls=_BareEngine),
            "null": lambda: _flood(net),
            "dense": lambda: _dense_flood(net),
        },
        reps=REPS,
    )
    overhead = times["null"] / times["bare"] - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled-path overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget on {name} (bare {times['bare']:.4f}s, "
        f"null {times['null']:.4f}s, dense {times['dense']:.4f}s)"
    )
