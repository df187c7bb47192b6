"""Tests for the python -m repro command-line interface."""

from repro.__main__ import main


class TestCLI:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E16" in out

    def test_run_one_experiment(self, capsys):
        assert main(["run", "E15"]) == 0
        out = capsys.readouterr().out
        assert "E15" in out

    def test_run_lowercase_accepted(self, capsys):
        assert main(["run", "e15"]) == 0

    def test_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_seed_flag(self, capsys):
        assert main(["run", "E15", "--seed", "3"]) == 0


class TestTraceCommand:
    def test_trace_prints_cost_breakdown(self, capsys):
        assert main(["trace", "E15"]) == 0
        out = capsys.readouterr().out
        assert "per-phase cost breakdown" in out
        assert "(total charged)" in out
        assert "query batches" in out

    def test_trace_lowercase_accepted(self, capsys):
        assert main(["trace", "e15"]) == 0

    def test_trace_jsonl_written_and_validated(self, capsys, tmp_path):
        from repro.obs.jsonl import validate_jsonl

        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "E15", "--jsonl", path]) == 0
        out = capsys.readouterr().out
        assert "records valid" in out
        counts = validate_jsonl(path)
        assert counts["meta"] == 1

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err


class TestVerifyCommand:
    def test_verify_subset_serial(self, capsys):
        assert main(["verify", "--only", "E15", "E17"]) == 0
        out = capsys.readouterr().out
        assert "E15" in out and "E17" in out
        assert "2/2 criteria ok" in out

    def test_verify_parallel_matches_serial_output(self, capsys):
        assert main(["verify", "--only", "E15", "E17"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["verify", "--jobs", "2", "--only", "E15", "E17"]) == 0
        parallel_out = capsys.readouterr().out
        # Identical verdict lines; only the jobs= footer differs.
        serial_lines = serial_out.splitlines()[:-1]
        parallel_lines = parallel_out.splitlines()[:-1]
        assert serial_lines == parallel_lines

    def test_verify_lowercase_accepted(self, capsys):
        assert main(["verify", "--only", "e15"]) == 0

    def test_verify_unknown_experiment(self, capsys):
        assert main(["verify", "--only", "E99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_verify_resume_checkpoint(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        assert main(["verify", "--only", "E15", "--resume", ckpt]) == 0
        capsys.readouterr()
        import json

        records = [
            json.loads(line)
            for line in open(ckpt).read().splitlines()
        ]
        assert records[0]["schema"] == "repro-checkpoint/1"
        assert records[1]["key"] == "E15"
        # Resuming replays without re-running (and still exits 0).
        assert main(["verify", "--only", "E15", "--resume", ckpt]) == 0

    def test_verify_jsonl_merged_trace(self, capsys, tmp_path):
        from repro.obs.jsonl import validate_jsonl

        path = str(tmp_path / "merged.jsonl")
        assert main(
            ["verify", "--jobs", "2", "--only", "E15", "E17",
             "--jsonl", path]
        ) == 0
        out = capsys.readouterr().out
        assert "records valid" in out
        assert validate_jsonl(path)["meta"] == 1

    def test_verify_timeout_failure_exits_nonzero(self, capsys):
        assert main(
            ["verify", "--only", "E13", "--timeout", "0.05",
             "--retries", "0", "--jobs", "1"]
        ) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out


class TestBoundsCommand:
    def test_bounds_renders(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "meeting scheduling" in out

    def test_bounds_custom_parameters(self, capsys):
        assert main(["bounds", "--n", "256", "--k", "1024",
                     "--diameter", "4"]) == 0
        out = capsys.readouterr().out
        assert "n=256" in out
