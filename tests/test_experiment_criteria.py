"""Reproduction criteria as tests (the fast experiments only).

The heavy sweeps live under ``benchmarks/``; this module keeps the cheap
experiments' criteria inside the ordinary test suite so a plain
``pytest tests/`` already certifies a representative slice of the
reproduction.
"""

import pytest

from repro.experiments.runner import (
    CRITERIA,
    RunRequest,
    verify_all,
    verify_experiment,
)

FAST_EXPERIMENTS = ["E1", "E4", "E5", "E6", "E14", "E15", "E16", "E17"]


class TestCriteria:
    @pytest.mark.parametrize("experiment", FAST_EXPERIMENTS)
    def test_fast_experiment_reproduces(self, experiment):
        verdict = verify_experiment(RunRequest(experiments=(experiment,)))
        assert verdict.passed, verdict.detail

    def test_every_experiment_has_a_criterion(self):
        from repro.experiments import ALL_EXPERIMENTS

        assert set(CRITERIA) == set(ALL_EXPERIMENTS)

    def test_verify_all_subset(self):
        verdicts = verify_all(RunRequest(experiments=("E15", "E17")))
        assert [v.experiment for v in verdicts] == ["E15", "E17"]
        assert all(v.passed for v in verdicts)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            verify_experiment(RunRequest(experiments=("E99",)))
