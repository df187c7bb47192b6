"""Tests for the paper-to-code registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.paper import REGISTRY, verify_registry, where_is


class TestRegistry:
    def test_every_reference_resolves(self):
        assert verify_registry() == []

    def test_core_results_present(self):
        for result in [
            "Lemma 2", "Lemma 3", "Lemma 5", "Lemma 6", "Lemma 7",
            "Theorem 8", "Corollary 9", "Lemma 10", "Lemma 12",
            "Corollary 14", "Theorem 17", "Theorem 18", "Lemma 20",
            "Lemma 21", "Lemma 22", "Lemma 23", "Lemma 24", "Lemma 25",
            "Corollary 26", "Lemma 27", "Corollary 28", "Lemma 29",
            "Corollary 30",
        ]:
            assert result in REGISTRY, f"{result} missing from the index"

    def test_experiments_exist(self):
        for entry in REGISTRY.values():
            for experiment in entry.experiments:
                assert experiment in ALL_EXPERIMENTS

    def test_where_is_lookup(self):
        entry = where_is("Theorem 8")
        assert "repro.core.framework.run_framework" in entry.implementations

    def test_unknown_result_raises(self):
        with pytest.raises(KeyError):
            where_is("Lemma 99")

    def test_statements_non_empty(self):
        assert all(entry.statement for entry in REGISTRY.values())

    def test_every_experiment_covered_by_some_result(self):
        covered = {
            experiment
            for entry in REGISTRY.values()
            for experiment in entry.experiments
        }
        # E16-E18 come from remarks/subroutines also present in the index;
        # E19 and E21-E23 test claims beyond the paper's numbered results.
        for experiment in ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                           "E9", "E10", "E11", "E12", "E13", "E14", "E15",
                           "E16", "E17", "E18", "E20"]:
            assert experiment in covered

    def test_claims_name_registry_results(self):
        from repro.experiments.runner import CLAIMS

        for claim in CLAIMS.values():
            for result in claim.results:
                assert result in REGISTRY, result
        assert where_is("Remark (boosting)").experiments == ("E18",)
        assert where_is("Lemma 21").experiments == ("E10", "E20")

    def test_import_repro_leaves_experiments_unloaded(self):
        # repro.paper derives ResultEntry.experiments lazily; importing
        # the experiment package on `import repro` would put every
        # experiment module on every caller's start-up path.
        code = (
            "import sys, repro; "
            "assert 'repro.experiments' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('repro.exp'))"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
