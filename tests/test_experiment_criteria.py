"""Reproduction claims as tests (the fast experiments only).

CI judges all 23 claims with ``python -m repro verify``; this module keeps
the cheap experiments' claims inside the ordinary test suite so a plain
``pytest tests/`` already certifies a representative slice of the
reproduction, and checks that EXPERIMENTS.md and the report command stay
in step with :data:`repro.experiments.runner.CLAIMS`.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS, runner
from repro.experiments.runner import (
    CLAIMS,
    RunRequest,
    verify_all,
    verify_experiment,
)

FAST_EXPERIMENTS = ["E1", "E4", "E5", "E6", "E14", "E15", "E16", "E17"]

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


class TestCriteria:
    @pytest.mark.parametrize("experiment", FAST_EXPERIMENTS)
    def test_fast_experiment_reproduces(self, experiment):
        verdict = verify_experiment(RunRequest(experiments=(experiment,)))
        assert verdict.passed, verdict.detail

    def test_every_experiment_has_a_criterion(self):
        assert set(CLAIMS) == set(ALL_EXPERIMENTS)

    def test_verify_all_subset(self):
        verdicts = verify_all(RunRequest(experiments=("E15", "E17")))
        assert [v.experiment for v in verdicts] == ["E15", "E17"]
        assert all(v.passed for v in verdicts)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            verify_experiment(RunRequest(experiments=("E99",)))


class TestReport:
    def test_experiments_md_matches_claims(self):
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        sections = re.findall(r"^## (E\d+)\b", text, flags=re.M)
        assert sections == list(ALL_EXPERIMENTS)
        bounds = re.findall(r"^\*\*Paper claim:\*\* (.*)$", text, flags=re.M)
        assert bounds == [claim.bound for claim in CLAIMS.values()]

    def test_failing_claim_fails_the_report(self, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", {
            name: ALL_EXPERIMENTS[name] for name in ("E15", "E17")
        })
        monkeypatch.setattr(runner, "CLAIMS", {
            "E15": CLAIMS["E15"],
            "E17": dataclasses.replace(
                CLAIMS["E17"], check=lambda r: (False, "forced failure")
            ),
        })
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out)]) == 1
        text = out.read_text(encoding="utf-8")
        assert re.findall(r"^## (E\d+)\b", text, flags=re.M) == ["E15", "E17"]
        assert "**Verdict:** ok — reductions sound" in text
        assert "**Verdict:** FAIL — forced failure" in text
