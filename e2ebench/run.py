#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one workload, one seed.

Usage, from the repository root::

    python3 e2ebench/run.py --workload serve_formula --seed 0 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric, from a traced run set beside an untraced one.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

Every measurement runs in a fresh interpreter (this script re-invoked
with ``--role``), so the process-wide caches start cold, as they do for a
user of the CLI, and set-up time and memory are the run's own.  CPU-bound
times are reported at a reference host speed (``hostclock.py``).  See
README.md for the workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The workloads, in BENCHMARK.json's order.
WORKLOADS = ("serve_formula", "serve_engine", "sketch_mixed", "verify_quick")

#: Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_REPS = 3
#: Measured interpreters per untraced run (one unless named here); the
#: end-to-end figures are their medians.  See workloads.VerifyQuick.
PARTS = {"verify_quick": 2}
#: Whole-run budget; a run that would exceed it fails instead.
RUN_BUDGET_S = 170.0
#: The traced run fails when layer self times plus idle time miss its wall
#: time by more than this share.  On a shared virtual machine, time the
#: hypervisor takes from the CPU counts both inside spans and in idle time
#: (wall minus process CPU), so the tolerance must absorb it.
RESIDUAL_TOLERANCE = 0.10

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "fraction",
}

PER_LAYER = {
    # run-level figures taken from the untraced run beside the traced one
    "latency_p99_ms": "ms",
    "rounds_per_op": "rounds",
    "verify_s": "s",
    "error_rate": "fraction",
    # driver and inputs (validity checks)
    "driver.lag_p99_ms": "ms",
    "input.repeat_share": "fraction",
    "input.insert_share": "fraction",
    "input.mean_op_size": "count",
    # repro.serve.daemon, serve.tenants
    "daemon.queue_wait_p50_ms": "ms",
    "daemon.queue_wait_p99_ms": "ms",
    "daemon.self_us_per_op": "us",
    "daemon.rejected": "count",
    # repro.sched.scheduler
    "sched.batches": "count",
    "sched.batch_fill": "fraction",
    "sched.coalesce_wait_p50_ms": "ms",
    "sched.self_us_per_batch": "us",
    # repro.sched.memo
    "memo.lookups": "count",
    "memo.hit_ratio": "fraction",
    "memo.invalidated_entries": "count",
    "memo.self_us_per_call": "us",
    # repro.sched.sketch, repro.apps.sketches
    "sketch.batch_fill": "fraction",
    "sketch.sched_self_us_per_batch": "us",
    "sketch.us_per_insert": "us",
    "sketch.us_per_query": "us",
    "sketch.recompute_share": "fraction",
    # repro.core.framework
    "framework.batches": "count",
    "framework.self_ms_per_batch": "ms",
    "framework.rounds_distribute": "rounds",
    "framework.rounds_convergecast": "rounds",
    "framework.rounds_uncompute": "rounds",
    # repro.congest.engine, congest.vectorized
    "engine.runs": "count",
    "engine.rounds": "rounds",
    "engine.us_per_round": "us",
    "engine.messages_per_round": "count",
    "engine.vectorized_share": "fraction",
    # repro.faults
    "faults.engine_ms": "ms",
    "faults.rounds": "rounds",
    # repro.parallel (worker processes; their inner layers are not traced)
    "workers.wait_ms": "ms",
    # repro.quantum
    "quantum.kernel_ms": "ms",
    # repro.experiments
    **{f"experiment.E{i}_s": "s" for i in range(1, 24)},
    # set-up: serve.pool, PreparedCache, CSR cache
    "setup.prepare_ms": "ms",
    "setup.prepared_cache_misses": "count",
    # runtime
    "loop.busy_frac": "fraction",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
    "host.calib_ms": "ms",
    "host.tick_us": "us",
    # tracing (validity checks)
    "trace.overhead_frac": "fraction",
    "trace.residual_frac": "fraction",
}


class RunFailed(Exception):
    """A child interpreter crashed, timed out or printed no result."""


# -- child side ----------------------------------------------------------


def host_calib_ms() -> float:
    """A fixed pure-Python CPU loop, timed, to show how fast the host was."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def child(args: argparse.Namespace) -> int:
    tracer = clock = None
    if args.role == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        from hostclock import HostClock

        clock = HostClock()
    # Set-up runs under the host clock from the first line the interpreter
    # runs; the interpreter's own start-up is scaled at its first tick.
    with clock or contextlib.nullcontext():
        import checks
        import workloads

        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, clock,
            part=args.part, parts=PARTS.get(args.workload, 1),
        )
        workload.setup()
        setup_end = time.monotonic()
    setup_raw_s = setup_end - args.spawned_at
    setup_s = clock.scaled(args.spawned_at, setup_end) if clock else setup_raw_s
    if args.role == "setup":
        _emit({"correct": True, "setup_s": setup_s})
        return 0
    calib = host_calib_ms()
    try:
        out = workload.run()
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        _emit({"correct": False, "attempted": workload.out.attempted,
               "failed": workload.out.failed})
        return 1
    result = {
        "correct": True,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "host.calib_ms": calib,
        "host.tick_us": clock.median_tick_us() if clock else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **out.figures(),
    }
    if tracer is not None:
        layers = workload.layer_metrics()
        result["layers"] = layers
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-s{args.seed}.json"))
        if abs(layers["trace.residual_frac"]) > RESIDUAL_TOLERANCE:
            print(
                f"attribution check failed: layer self times plus idle miss "
                f"the wall time by {layers['trace.residual_frac']:+.3f} "
                f"(tolerance {RESIDUAL_TOLERANCE})",
                file=sys.stderr,
            )
            return 2
    _emit(result)
    return 0


# -- parent side ---------------------------------------------------------


def _spawn(role: str, args: argparse.Namespace, deadline: float, part: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--part", str(part),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role} run exceeded the {RUN_BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    payload = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 and payload.get("correct") is not False:
        raise RunFailed(f"{role} run exited with code {proc.returncode}")
    if not payload:
        raise RunFailed(f"{role} run printed no result")
    return payload


#: Run-level figures on every summary line, and per-layer metrics of the
#: traced run (taken from the untraced run beside it).
RUN_FIGURES = ("latency_p99_ms", "rounds_per_op", "verify_s", "error_rate")


def _summary(args: argparse.Namespace, run: dict) -> None:
    stats = run["inputs"]
    print(
        f"# {args.workload} seed={args.seed} digest={stats['digest']} "
        + " ".join(f"{k}={v:.4f}" for k, v in stats.items() if k != "digest")
    )
    figures = ("attempted", "failed", "samples", "host.calib_ms", "driver.lag_p99_ms") + RUN_FIGURES
    print("# " + " ".join(f"{k}={run[k]:.6g}" for k in figures))
    # As measured, beside the figures scaled to the reference host speed.
    raw = ("host.tick_us", "throughput_raw_ops_s", "setup_raw_s")
    print("# " + " ".join(f"{k}={run[k]:.6g}" for k in raw))


def _result(run: dict, metrics: dict, units: dict) -> dict:
    return {
        "correct": True,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }


def parent(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        runs = []
        if args.trace:
            for role in ("measure", "trace"):
                runs.append(_spawn(role, args, deadline))
                if not runs[-1]["correct"]:
                    break
        else:
            parts = PARTS.get(args.workload, 1)
            setups = [
                _spawn("setup", args, deadline)["setup_s"]
                for _ in range(max(0, SETUP_REPS - parts))
            ]
            for part in range(parts):
                runs.append(_spawn("measure", args, deadline, part))
                if not runs[-1]["correct"]:
                    break
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counted = runs[-1:] if args.trace else runs  # a traced run reports its own
    totals = {
        "attempted": sum(run["attempted"] for run in counted),
        "failed": sum(run["failed"] for run in counted),
    }
    if not runs[-1]["correct"]:
        print(json.dumps({"correct": False, **totals, "metrics": {}}))
        return 1

    if args.trace:
        plain, traced = runs
        _summary(args, traced)
        metrics = dict(traced["layers"])
        metrics.update({k: plain[k] for k in RUN_FIGURES})
        metrics.update({k: v for k, v in plain["inputs"].items() if k != "digest"})
        metrics["driver.lag_p99_ms"] = traced["driver.lag_p99_ms"]
        metrics["host.calib_ms"] = traced["host.calib_ms"]
        metrics["host.tick_us"] = plain["host.tick_us"]
        metrics["trace.overhead_frac"] = traced["work_s"] / plain["work_s"] - 1
        # A layer this workload never reaches did no work: its figures are 0.
        print(json.dumps(_result(traced, {n: metrics.get(n, 0.0) for n in PER_LAYER}, PER_LAYER)))
        return 0

    for run in runs:
        _summary(args, run)
    metrics = {
        "throughput_ops_s": statistics.median(run["throughput_ops_s"] for run in runs),
        "latency_p50_ms": statistics.median(run["latency_p50_ms"] for run in runs),
        "setup_s": statistics.median(setups + [run["setup_s"] for run in runs]),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "success_rate": 1.0 - totals["failed"] / totals["attempted"],
    }
    print(json.dumps(_result(totals, metrics, END_TO_END)))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    ap.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return child(args) if args.role else parent(args)


if __name__ == "__main__":
    sys.exit(main())
