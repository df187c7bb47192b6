"""run_serve_session: the CLI/CI entry point, including trace validity."""

import json

from repro.obs.jsonl import validate_jsonl
from repro.serve import run_serve_session


def test_session_report_is_complete_and_json_ready():
    out = run_serve_session(
        clients=60, tenants=3, rows=2, cols=2, k=8, parallelism=4,
        flush_after_ms=1.0,
    )
    json.dumps(out)  # must not raise
    assert out["load"]["offered"] == 60
    assert out["load"]["completed"] == 60
    assert out["load"]["failed"] == 0
    assert out["service"]["completed"] == 60
    assert out["metrics"]["serve_requests"]["accepted"] == 60
    assert out["metrics"]["serve_requests"]["completed"] == 60
    assert out["metrics"]["serve_drains"] == 1
    assert out["amortized_rounds_per_query"] > 0


def test_session_trace_validates_and_counts_serve_events(tmp_path):
    path = str(tmp_path / "serve.jsonl")
    out = run_serve_session(
        clients=40, tenants=2, rows=2, cols=2, k=8, parallelism=4,
        flush_after_ms=1.0, jsonl=path,
    )
    counts = out["trace"]["records"]
    # validate_jsonl already re-read the file; spot-check the counts.
    assert counts == validate_jsonl(path)
    # accepted + completed request events, at least one batch, one drain.
    assert counts["serve.request"] >= 80
    assert counts["serve.batch"] >= 1
    assert counts["serve.drain"] == 1


def test_memo_off_session_reports_no_hits():
    out = run_serve_session(
        clients=30, tenants=2, rows=2, cols=2, k=8, parallelism=4,
        flush_after_ms=1.0, memo=False,
    )
    # Executed batches still log memo="miss" coalesce events; what a
    # disabled memo can never produce is a hit or an eviction.
    assert out["metrics"]["memo"]["hits"] == 0
    assert out["metrics"]["memo"]["evictions"] == 0
    assert out["load"]["completed"] == 30


def test_memo_block_counts_lookups_not_batches():
    # Every submission looks the memo up once, so hits plus misses is the
    # lane's submission count; a miss is not a physical batch.
    out = run_serve_session(clients=300, tenants=4, seed=3)
    memo = out["metrics"]["memo"]
    lane = out["service"]["lanes"]["default"]["report"]
    assert memo["hits"] + memo["misses"] == lane["submissions"] == 300
    assert memo["misses"] > lane["physical_batches"]
