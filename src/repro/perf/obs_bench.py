"""Instrumentation overhead: null recorder vs. a dense sink.

The observability spine's contract (DESIGN.md §"Observability spine") is
that *disabled* instrumentation is free: with the null recorder installed
the engine pays one cached-boolean branch per delivery and per round, and
nothing else.  This workload measures that claim on the engine flooding
benchmark and **enforces it** — the disabled path must stay within
:data:`OVERHEAD_BUDGET` (5 %) of a bare engine whose observation seam is
compiled out entirely, or the workload raises.

The enabled path (a dense :class:`~repro.obs.MetricsSink` receiving every
round and delivery event) is timed alongside for the report; it has no
budget — recording is allowed to cost — but the ratio documents what a
run under ``python -m repro trace`` pays.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

from ..congest import topologies
from ..congest.algorithms.bfs import BFSEchoProgram
from ..congest.engine import Engine, RunResult
from ..congest.network import Network
from ..obs import MetricsSink, Recorder
from .harness import WorkloadResult

#: Maximum tolerated slowdown of the null-recorder (disabled) path
#: relative to an engine with no observation seam at all.
OVERHEAD_BUDGET = 0.05


class _BareEngine(Engine):
    """The pre-spine engine: recorder branches forced out of every path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recording = False

    def _on_deliver(self, msg, round_no):
        pass


def _flood(net: Network, engine_cls=Engine, recorder=None) -> RunResult:
    programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
    # Pinned to the per-node loop: its per-delivery seam is what the
    # budget guards, and the default bulk loop never calls it.
    engine = engine_cls(
        net, programs, seed=1, schedule="active", recorder=recorder
    )
    return engine.run()


def _dense_flood(net: Network) -> RunResult:
    # A fresh recorder+sink per run so timed repetitions don't accumulate.
    return _flood(net, recorder=Recorder([MetricsSink()]))


def _topologies(quick: bool) -> Dict[str, Tuple[Network, int]]:
    """name -> (network, timing reps)."""
    if quick:
        return {
            "random_regular(n=400,d=4)": (
                topologies.random_regular(400, 4, seed=1), 9),
            "grid(20x15)": (topologies.grid(20, 15), 9),
        }
    return {
        "random_regular(n=1000,d=4)": (
            topologies.random_regular(1000, 4, seed=1), 5),
        "grid(40x25)": (topologies.grid(40, 25), 5),
    }


def _measure_interleaved(thunks: Dict[str, Any], reps: int) -> Dict[str, float]:
    """Best-of-``reps`` wall time per thunk, with the variants interleaved.

    Timing each variant in its own block lets system-level drift (thermal
    throttling, a background process starting mid-benchmark) bias the
    *ratio* between them even when each best-of is individually stable.
    Interleaving — one rep of every variant per pass — makes any drift
    hit all variants equally, which is what an overhead assertion needs.
    """
    for fn in thunks.values():  # warmup
        fn()
    best = {name: float("inf") for name in thunks}
    for _ in range(reps):
        for name, fn in thunks.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def obs_overhead_workload(quick: bool = False) -> WorkloadResult:
    """Time bare vs null-recorder vs dense-sink engine flooding runs."""
    result = WorkloadResult(
        name="obs_overhead",
        description=(
            "BFS-with-echo flooding; wall time with the observation seam "
            "removed (bare) vs the null recorder (disabled spine) vs a "
            "dense MetricsSink (every event counted).  Asserts identical "
            "results and a disabled-path overhead under "
            f"{OVERHEAD_BUDGET:.0%}."
        ),
    )
    for name, (net, reps) in _topologies(quick).items():
        bare = _flood(net, engine_cls=_BareEngine)
        null = _flood(net)
        dense = _dense_flood(net)
        for label, other in (("null", null), ("dense", dense)):
            if (bare.rounds, bare.outputs) != (other.rounds, other.outputs):
                raise AssertionError(
                    f"{label}-recorder run diverged on {name}: "
                    f"{bare.rounds} vs {other.rounds} rounds"
                )
        times = _measure_interleaved(
            {
                "bare": lambda net=net: _flood(net, engine_cls=_BareEngine),
                "null": lambda net=net: _flood(net),
                "dense": lambda net=net: _dense_flood(net),
            },
            reps=reps,
        )
        t_bare, t_null, t_dense = times["bare"], times["null"], times["dense"]
        disabled_overhead = t_null / t_bare - 1.0
        if disabled_overhead >= OVERHEAD_BUDGET:
            raise AssertionError(
                f"disabled-path instrumentation overhead {disabled_overhead:.1%} "
                f"exceeds the {OVERHEAD_BUDGET:.0%} budget on {name} "
                f"(bare {t_bare:.4f}s, null recorder {t_null:.4f}s)"
            )
        result.sweep.append({
            "topology": name,
            "n": net.n,
            "rounds": bare.rounds,
            "bare_s": t_bare,
            "null_s": t_null,
            "dense_s": t_dense,
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": t_dense / t_null - 1.0,
        })
    return result


if __name__ == "__main__":  # pragma: no cover - manual convenience
    start = time.perf_counter()
    wl = obs_overhead_workload()
    for entry in wl.sweep:
        print(entry)
    print(f"({time.perf_counter() - start:.1f}s total)")
