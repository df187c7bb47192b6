"""RunRequest: validation, target resolution, and flat-call rejection."""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import (
    RunRequest,
    run_experiment,
    run_instrumented,
    verify_all,
    verify_experiment,
    verify_sweep,
)


class TestValidation:
    def test_defaults(self):
        request = RunRequest()
        assert request.quick and request.seed == 0 and request.jobs == 1
        assert request.experiments == ()

    def test_experiment_ids_coerced_and_uppercased(self):
        request = RunRequest(experiments=("e15", "e17"))
        assert request.experiments == ("E15", "E17")

    def test_single_string_coerced_to_tuple(self):
        assert RunRequest(experiments="e15").experiments == ("E15",)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            RunRequest(jobs=0)

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="retries"):
            RunRequest(retries=-1)

    def test_unknown_experiment_raises_on_targets(self):
        request = RunRequest(experiments=("E15", "E99"))
        with pytest.raises(KeyError, match="E99"):
            request.targets

    def test_empty_experiments_means_all(self):
        assert RunRequest().targets == list(ALL_EXPERIMENTS)

    def test_replace_builds_variant(self):
        base = RunRequest(experiments=("E15",), quick=True)
        variant = base.replace(seed=3, jobs=2)
        assert (variant.seed, variant.jobs) == (3, 2)
        assert base.seed == 0 and base.jobs == 1
        assert variant.experiments == ("E15",)

    def test_single_target_requires_exactly_one(self):
        assert RunRequest(experiments=("E15",)).single_target() == "E15"
        with pytest.raises(ValueError):
            RunRequest(experiments=("E15", "E17")).single_target()


class TestFlatCallsRejected:
    """Every entry point takes one RunRequest; a flat call is a TypeError."""

    @pytest.mark.parametrize(
        "entry", [run_experiment, run_instrumented, verify_experiment],
        ids=lambda entry: entry.__name__,
    )
    def test_flat_id_rejected(self, entry):
        with pytest.raises(TypeError, match="takes a RunRequest"):
            entry("E15")

    def test_verify_all_flat_keywords(self):
        with pytest.raises(TypeError):
            verify_all(quick=True, only=["E15"])


class TestVerifySweep:
    def test_serial_sweep_matches_verify_all(self):
        request = RunRequest(experiments=("E15", "E17"))
        sweep = verify_sweep(request)
        assert [v.experiment for v in sweep.verdicts] == ["E15", "E17"]
        assert sweep.metrics is None and sweep.jsonl_path is None
        assert sweep.verdicts == verify_all(request)

    def test_parallel_sweep_bit_identical_to_serial(self):
        request = RunRequest(experiments=("E15", "E17"))
        serial = verify_sweep(request).verdicts
        parallel = verify_sweep(request.replace(jobs=2)).verdicts
        assert [
            (v.experiment, v.passed, v.detail) for v in serial
        ] == [
            (v.experiment, v.passed, v.detail) for v in parallel
        ]
