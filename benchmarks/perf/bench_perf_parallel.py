"""Wall-clock gates on the :mod:`repro.parallel` sweep executor.

Two bars, both 1.5x:

* **Fan-out.** Two 0.2 s sleep tasks at ``jobs=2`` must finish more than
  1.5x faster than back to back.  Sleeps do not compete for cores, so
  this shows real task overlap, dispatch and collection included, on
  any host.
* **CPU-bound sweep.** The quick verification sweep at ``jobs=4`` must
  run more than 1.5x faster than the serial sweep, with identical
  verdicts.  The speedup cannot exceed the usable cores, so the check
  is skipped on hosts with fewer than four (DESIGN.md §6e).

They are wall-clock bounds, so they stay out of tier-1; see README.md
here.  The verdict identity of serial and ``jobs=2`` sweeps is judged
by CI's all-claims verify step.
"""

import os
import time

import pytest

from repro.experiments.runner import RunRequest, verify_all
from repro.parallel import Task, run_parallel

#: The bar both gates must clear.
PARALLEL_SPEEDUP_TARGET = 1.5


def _cpus():
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _nap(seconds):
    """Module-level sleep task (workers need a top-level callable)."""
    time.sleep(seconds)
    return seconds


def _wall(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_sleep_fanout_overlaps():
    jobs, nap_s = 2, 0.2
    tasks = [
        Task(key=f"nap{i}", fn=_nap, kwargs={"seconds": nap_s})
        for i in range(jobs)
    ]
    _, elapsed = _wall(lambda: run_parallel(tasks, jobs=jobs))
    # 1.5x on two 0.2 s naps leaves about 130 ms for dispatch overhead.
    speedup = jobs * nap_s / elapsed
    assert speedup > PARALLEL_SPEEDUP_TARGET, (speedup, elapsed)


def test_quick_sweep_speedup_at_four_jobs():
    if _cpus() < 4:
        pytest.skip(
            f"host exposes {_cpus()} core(s); the CPU-bound speedup bar "
            f"needs >= 4 (the fan-out gate covers concurrency here)"
        )
    request = RunRequest(quick=True)
    # One untimed serial sweep first, so the timed serial sweep runs on
    # warm process-wide caches, as the forked workers do.
    serial = verify_all(request)
    _, t_serial = _wall(lambda: verify_all(request))
    parallel, t_parallel = _wall(
        lambda: verify_all(request.replace(jobs=4))
    )
    verdicts = [
        [(v.experiment, v.passed, v.detail) for v in run]
        for run in (serial, parallel)
    ]
    assert verdicts[0] == verdicts[1]
    speedup = t_serial / t_parallel
    assert speedup > PARALLEL_SPEEDUP_TARGET, (speedup, t_serial, t_parallel)
