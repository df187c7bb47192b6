"""Tests of the benchmark itself: its output checks, seed discipline and
result contract.  Run from the repository root::

    python3 -m pytest e2ebench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import hostclock  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.operation import Operation  # noqa: E402
from repro.experiments.runner import Verdict  # noqa: E402
from repro.serve.session import build_sketch_profile  # noqa: E402


def test_corrupted_oracle_value_fails():
    ops = [Operation.query("t0", (0, 2)), Operation.query("t1", (1,))]
    expected = [5, 6, 7]
    checks.check_oracle_results(ops, [[5, 7], [6]], expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle_results(ops, [[5, 7], [7]], expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle_results(ops, [[5, 7], None], expected)


def test_corrupted_value_fails_a_served_run(monkeypatch):
    """A whole serve_formula run fails when one expected value is off."""
    workload = workloads.ServeFormula(seed=0, seconds=0.2, tracer=None)
    workload.setup()
    real = checks.expected_sums

    def corrupted(vectors, k):
        sums = real(vectors, k)
        sums[workload.ops[0].indices[0]] += 1
        return sums

    monkeypatch.setattr(checks, "expected_sums", corrupted)
    with pytest.raises(checks.CheckFailed):
        workload.run()


def test_round_conservation_and_resolution():
    class Report:
        attributed_rounds = 10
        physical_query_rounds = 11

    with pytest.raises(checks.CheckFailed):
        checks.check_round_conservation(Report())
    checks.check_resolved_once([1, 1])
    with pytest.raises(checks.CheckFailed):
        checks.check_resolved_once([1, 2])


def test_sketch_checks():
    ins = Operation.insert("t0", ("a", "b"))
    query = Operation.sketch_query("t1", ("a",))
    checks.check_sketch_acks([ins, query], [[True, True], [0.9]])
    with pytest.raises(checks.CheckFailed):
        checks.check_sketch_acks([ins, query], [[True, False], [0.9]])

    served = build_sketch_profile()
    for item in ins.items:
        served.insert(item)
    probes = inputs.sketch_probes() + ["a", "b"]
    checks.check_sketch_state(served, build_sketch_profile, [ins], probes)
    served.insert("a")  # one write the benchmark never saw acknowledged
    with pytest.raises(checks.CheckFailed):
        checks.check_sketch_state(served, build_sketch_profile, [ins], probes)


def test_failed_verdict_fails():
    checks.check_verdicts([Verdict("E1", True, "")])
    with pytest.raises(checks.CheckFailed):
        checks.check_verdicts([Verdict("E1", True, ""), Verdict("E2", False, "")])


@pytest.mark.parametrize("name", ["serve_formula", "serve_engine", "sketch_mixed"])
def test_seed_discipline(name):
    def stats(seed):
        if name == "serve_engine":
            clients = inputs.engine_ops(seed, 10)
            return inputs.input_stats([op for ops in clients for op in ops])
        generate = inputs.formula_ops if name == "serve_formula" else inputs.sketch_ops
        timed = generate(seed, 10)
        return inputs.input_stats([op for _, op in timed], [t for t, _ in timed])

    assert stats(3) == stats(3)
    assert stats(3)["digest"] != stats(4)["digest"]


def test_host_clock_scales_by_the_sampled_speed():
    """Busy time leaves the kernel's ticks out; scaled time divides it by
    the sampled slowdown against the reference host."""
    clock = hostclock.HostClock()
    for t in range(10):  # a tick a second, each 1 ms long, on a host at half speed
        clock.starts.append(float(t))
        clock.ends.append(t + 0.001)
        clock.costs.append(2 * hostclock.REF_TICK_S)
    assert clock.busy(0.5, 3.5) == pytest.approx(3.0 - 3 * 0.001)
    assert clock.scaled(0.5, 3.5) == pytest.approx((3.0 - 3 * 0.001) / 2)

    with hostclock.HostClock() as live:
        end = time.monotonic() + 0.2
        while time.monotonic() < end:
            pass
    assert len(live.costs) >= 5
    assert 0 < live.busy(live.starts[0], end) < end - live.starts[0]


def test_benchmark_json_matches_the_script():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "serve_formula",
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Where only the benchmark exists, it exits non-zero and prints no result."""
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "verify_quick",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
