"""Command-line entry point.

Usage::

    python -m repro list                 # list experiments
    python -m repro run E7 [--full]     # run one experiment, print its table
    python -m repro run all [--full]    # run everything
    python -m repro faults --losses 0,0.05,0.1   # loss-rate sweep under
                                         # the resilience layer
    python -m repro bench [--quick]      # hot-path micro-benchmarks,
                                         # writes BENCH_PR2.json
    python -m repro trace E7 [--jsonl trace.jsonl]
                                         # run one experiment under the
                                         # observability spine and print
                                         # its per-phase cost breakdown
    python -m repro verify --jobs 4      # check every reproduction
                                         # criterion, fanned across
                                         # worker processes
    python -m repro verify --jobs 4 --resume verify.ckpt.jsonl
                                         # ... checkpointing completed
                                         # experiments so a killed sweep
                                         # resumes where it stopped
    python -m repro report --full        # run and judge every claim,
                                         # regenerate EXPERIMENTS.md
    python -m repro serve --clients 1000 --tenants 4 --jsonl serve.jsonl
                                         # run the multi-tenant serving
                                         # daemon against a deterministic
                                         # open-loop load, drain cleanly,
                                         # print qps + latency percentiles
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import ALL_EXPERIMENTS


def _print_verdicts(verdicts) -> int:
    """Print one line per verdict; return how many failed."""
    from .parallel import TaskFailure

    failed = 0
    for verdict in verdicts:
        if isinstance(verdict, TaskFailure):
            failed += 1
            print(f"{verdict.key:>4}  ERROR  {verdict}")
        else:
            status = "ok" if verdict.passed else "FAIL"
            if not verdict.passed:
                failed += 1
            print(f"{verdict.experiment:>4}  {status:<5} {verdict.detail}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    bounds_parser = sub.add_parser(
        "bounds", help="print the paper's bound table at given parameters"
    )
    bounds_parser.add_argument("--n", type=int, default=4096)
    bounds_parser.add_argument("--k", type=int, default=65536)
    bounds_parser.add_argument("--diameter", type=int, default=16)
    bounds_parser.add_argument("--epsilon", type=float, default=0.5)
    bounds_parser.add_argument("--girth", type=int, default=6)
    run_parser = sub.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment", help="experiment id (E1..E23) or 'all'")
    run_parser.add_argument("--full", action="store_true", help="full sweep")
    run_parser.add_argument("--seed", type=int, default=0)
    faults_parser = sub.add_parser(
        "faults",
        help="sweep a channel loss rate against the resilience-layer "
        "round overhead on one algorithm",
    )
    faults_parser.add_argument(
        "--losses", default="0,0.01,0.05,0.1",
        help="comma-separated per-message loss probabilities",
    )
    faults_parser.add_argument(
        "--algorithm", choices=["bfs", "convergecast", "leader"],
        default="bfs",
    )
    faults_parser.add_argument(
        "--model", choices=["bernoulli", "burst", "corrupt", "delay"],
        default="bernoulli",
        help="channel fault model driven by the loss/fault probability",
    )
    faults_parser.add_argument("--rows", type=int, default=4)
    faults_parser.add_argument("--cols", type=int, default=4)
    faults_parser.add_argument("--seed", type=int, default=0)
    bench_parser = sub.add_parser(
        "bench",
        help="run the hot-path micro-benchmarks and write a JSON report "
        "(schema: benchmarks/perf/README.md)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="small instances; a correctness smoke check, not a perf claim",
    )
    bench_parser.add_argument(
        "--out", default=None,
        help="report output path (default BENCH_PR2.json; a serve-only "
        "run defaults to BENCH_PR6.json)",
    )
    bench_parser.add_argument(
        "--workload", action="append", dest="workloads", default=None,
        metavar="NAME",
        help="run only this workload (repeatable): engine (alias "
        "engine_flooding), gates, framework, obs, parallel, sched, "
        "serve, scaling_ceiling, scenarios, sketches",
    )
    serve_parser = sub.add_parser(
        "serve",
        help="run the multi-tenant query-serving daemon against a "
        "deterministic open-loop synthetic load, drain on completion "
        "(or SIGINT/SIGTERM), and print throughput and latency "
        "percentiles",
    )
    serve_parser.add_argument("--clients", type=int, default=1000,
                              help="simulated client requests to offer")
    serve_parser.add_argument("--tenants", type=int, default=4)
    serve_parser.add_argument("--rate-hz", type=float, default=2000.0,
                              help="aggregate Poisson arrival rate")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--rows", type=int, default=4)
    serve_parser.add_argument("--cols", type=int, default=4)
    serve_parser.add_argument("--k", type=int, default=64,
                              help="query index domain size")
    serve_parser.add_argument("--parallelism", type=int, default=8,
                              help="oracle batch width p")
    serve_parser.add_argument("--mode", choices=["formula", "engine"],
                              default="formula")
    serve_parser.add_argument(
        "--max-pending", type=int, default=1 << 16,
        help="per-tenant queue bound (lower it to see backpressure)",
    )
    serve_parser.add_argument(
        "--time-scale", type=float, default=0.0,
        help="virtual-to-wall clock factor for arrivals (0 = as fast "
        "as the loop allows)",
    )
    serve_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="stream the session's serve.*/coalesce/charge events to "
        "PATH in the repro-trace/1 schema (validated after the run)",
    )
    serve_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the session report as pure JSON to PATH "
        "(stdout mixes the report with human-readable summary lines)",
    )
    verify_parser = sub.add_parser(
        "verify",
        help="run the reproduction criteria sweep (optionally in "
        "parallel worker processes with checkpoint/resume)",
    )
    verify_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process serial sweep)",
    )
    verify_parser.add_argument(
        "--only", nargs="+", default=None, metavar="EXP",
        help="verify only these experiment ids (e.g. --only E1 E13 E15)",
    )
    verify_parser.add_argument("--full", action="store_true",
                               help="full (non-quick) sweeps")
    verify_parser.add_argument("--seed", type=int, default=0)
    verify_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget; over-budget tasks are "
        "terminated, retried, then reported as failures",
    )
    verify_parser.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per experiment after a failure or timeout",
    )
    verify_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="JSONL checkpoint file; completed experiments recorded "
        "there are replayed instead of re-run (the file is created on "
        "first use)",
    )
    verify_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="run instrumented and merge every worker's trace shard "
        "into one repro-trace/1 stream at PATH",
    )
    report_parser = sub.add_parser(
        "report",
        help="run every experiment, judge its reproduction claim and "
        "write the paper-bound-vs-measured report (exit 1 when a claim "
        "fails)",
    )
    report_parser.add_argument("--full", action="store_true",
                               help="full (non-quick) sweeps")
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--out", default="EXPERIMENTS.md",
                               metavar="PATH", help="report path")
    trace_parser = sub.add_parser(
        "trace",
        help="run one experiment under the observability spine and print "
        "a per-phase cost breakdown (rounds, query batches, busiest "
        "edge, fault counts)",
    )
    trace_parser.add_argument("experiment", help="experiment id (E1..E23)")
    trace_parser.add_argument("--full", action="store_true", help="full sweep")
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="additionally stream every event to PATH in the "
        "repro-trace/1 JSONL schema (validated after the run)",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, module in ALL_EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:>4}  {doc}")
        return 0

    if args.command == "bounds":
        from .analysis.bounds import bounds_summary

        bounds_summary(
            n=args.n, k=args.k, diameter=args.diameter,
            epsilon=args.epsilon, girth=args.girth,
        ).show()
        return 0

    if args.command == "bench":
        from .perf import run_all, write_report
        from .perf.harness import format_summary

        out = args.out
        if out is None:
            # The serving and scaling workloads ship their own report
            # files so the PR 2 baseline report is never clobbered by a
            # single-workload run.
            if args.workloads == ["serve"]:
                out = "BENCH_PR6.json"
            elif args.workloads == ["scaling_ceiling"]:
                out = "BENCH_PR7.json"
            elif args.workloads == ["models"]:
                out = "BENCH_PR8.json"
            elif args.workloads == ["scenarios"]:
                out = "BENCH_PR9.json"
            elif args.workloads == ["sketches"]:
                out = "BENCH_PR10.json"
            else:
                out = "BENCH_PR2.json"
        start = time.time()
        report = run_all(quick=args.quick, workloads=args.workloads)
        write_report(report, out)
        print(format_summary(report))
        print(f"(wrote {out} in {time.time() - start:.1f}s)")
        return 0

    if args.command == "serve":
        import json

        from .serve import run_serve_session

        start = time.time()
        session = run_serve_session(
            clients=args.clients, tenants=args.tenants,
            rate_hz=args.rate_hz, seed=args.seed, rows=args.rows,
            cols=args.cols, k=args.k, parallelism=args.parallelism,
            mode=args.mode, max_pending=args.max_pending,
            time_scale=args.time_scale, jsonl=args.jsonl,
        )
        load = session["load"]
        if args.report is not None:
            with open(args.report, "w") as fh:
                json.dump(session, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
        print(json.dumps(session, indent=2, sort_keys=True, default=str))
        print(
            f"(served {load['completed']}/{load['offered']} requests at "
            f"{load['qps']:.0f} q/s, p50 {load['p50_ms']:.2f}ms, "
            f"p99 {load['p99_ms']:.2f}ms, drained in "
            f"{time.time() - start:.1f}s)"
        )
        if args.jsonl is not None:
            total = sum(session["trace"]["records"].values())
            print(f"wrote {args.jsonl}: {total} records valid")
        return 0

    if args.command == "verify":
        from .experiments.runner import RunRequest, verify_sweep
        from .obs.jsonl import validate_jsonl

        request = RunRequest(
            experiments=tuple(args.only) if args.only is not None else (),
            quick=not args.full,
            seed=args.seed,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint=args.resume,
            jsonl=args.jsonl,
        )
        try:
            request.targets
        except KeyError:
            unknown = [
                t for t in request.experiments if t not in ALL_EXPERIMENTS
            ]
            print(f"unknown experiment(s): {unknown}", file=sys.stderr)
            print(f"available: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
        start = time.time()
        sweep = verify_sweep(request)
        failed = _print_verdicts(sweep.verdicts)
        if args.jsonl is not None and sweep.jsonl_path is not None:
            counts = validate_jsonl(sweep.jsonl_path)
            total = sum(counts.values())
            print(f"wrote {sweep.jsonl_path}: {total} records valid")
        n = len(sweep.verdicts)
        print(
            f"({n - failed}/{n} criteria ok, jobs={args.jobs}, "
            f"{time.time() - start:.1f}s)"
        )
        return 1 if failed else 0

    if args.command == "report":
        from .experiments.runner import RunRequest, report

        verdicts = report(
            RunRequest(quick=not args.full, seed=args.seed), args.out
        )
        failed = _print_verdicts(verdicts)
        print(f"(wrote {args.out}: {len(verdicts) - failed}/{len(verdicts)} "
              f"criteria ok)")
        return 1 if failed else 0

    if args.command == "trace":
        from .analysis.report import cost_breakdown_table
        from .experiments.runner import RunRequest, run_instrumented
        from .obs.jsonl import validate_jsonl

        target = args.experiment.upper()
        if target not in ALL_EXPERIMENTS:
            print(f"unknown experiment: {target}", file=sys.stderr)
            print(f"available: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
        start = time.time()
        run = run_instrumented(RunRequest(
            experiments=(target,), quick=not args.full, seed=args.seed,
            jsonl=args.jsonl,
        ))
        table = getattr(run.result, "table", None)
        if table is not None:
            table.show()
        cost_breakdown_table(target, run.metrics).show()
        if args.jsonl is not None:
            counts = validate_jsonl(args.jsonl)
            total = sum(counts.values())
            per_kind = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"wrote {args.jsonl}: {total} records valid ({per_kind})")
        print(f"({target} traced in {time.time() - start:.1f}s)")
        return 0

    if args.command == "faults":
        from .faults.sweep import fault_sweep

        fault_sweep(
            losses=[float(p) for p in args.losses.split(",")],
            algorithm=args.algorithm,
            model=args.model,
            rows=args.rows,
            cols=args.cols,
            seed=args.seed,
        ).show()
        return 0

    from .experiments.runner import RunRequest, run_experiment

    request = RunRequest(
        experiments=(
            () if args.experiment.lower() == "all"
            else (args.experiment,)
        ),
        quick=not args.full,
        seed=args.seed,
    )
    try:
        targets = request.targets
    except KeyError:
        unknown = [t for t in request.experiments if t not in ALL_EXPERIMENTS]
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"available: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    for target in targets:
        start = time.time()
        result = run_experiment(request.replace(experiments=(target,)))[target]
        result.table.show()
        print(f"({target} finished in {time.time() - start:.1f}s)\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
