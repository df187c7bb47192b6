"""Programmatic verification of the reproduction criteria.

The pytest-benchmark wrappers under ``benchmarks/`` assert one criterion
per experiment; this module exposes the same checks as plain callables so
they can run inside the test suite, a CI gate, or a notebook without the
benchmark harness.

All entrypoints take one frozen :class:`RunRequest` describing *what* to
run (experiment ids, quick/full, seed) and *how* (worker ``jobs``,
per-task ``timeout``/``retries``, ``checkpoint`` resume file, merged
``jsonl`` trace) — the ``--jobs/--resume/--jsonl`` plumbing exists here
exactly once and the CLI, the parallel sweep, and the test suite all pass
through it:

* :func:`run_experiment` — run experiments, no criteria.
* :func:`run_instrumented` — run one experiment under the observability
  spine (:mod:`repro.obs`); ``python -m repro trace`` is a thin CLI over
  it.
* :func:`verify_experiment` / :func:`verify_all` / :func:`verify_sweep`
  — run and evaluate reproduction criteria, serial or fanned across
  worker processes.

A flat call (``verify_experiment("E7", quick, seed)``) is a ``TypeError``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import JSONLSink, MemorySink, MetricsSink, Recorder, install
from . import ALL_EXPERIMENTS


@dataclass
class Verdict:
    """Outcome of one experiment's reproduction check."""

    experiment: str
    passed: bool
    detail: str


#: criterion name -> (experiment id, check on the result object)
CRITERIA: Dict[str, Callable] = {
    "E1": lambda r: (-0.8 <= r.p_exponent <= -0.25,
                     f"b ~ p^{r.p_exponent:.2f} (want ≈ -0.5)"),
    "E2": lambda r: (0.3 <= r.k_exponent <= 0.75,
                     f"b ~ k^{r.k_exponent:.2f} (want ≈ 0.5)"),
    "E3": lambda r: (0.45 <= r.k_exponent <= 0.9,
                     f"b ~ k^{r.k_exponent:.2f} (want ≈ 0.67)"),
    "E4": lambda r: (-1.8 <= r.eps_exponent <= -0.7,
                     f"b ~ eps^{r.eps_exponent:.2f} (want ≈ -1)"),
    "E5": lambda r: (r.max_pipelined_ratio <= 2.0,
                     f"pipelined/bound ratio {r.max_pipelined_ratio:.2f}"),
    "E6": lambda r: (r.max_engine_formula_ratio <= 5.0,
                     f"engine/formula ratio {r.max_engine_formula_ratio:.2f}"),
    "E7": lambda r: (0.3 <= r.k_exponent <= 0.7 and r.crossover_k is not None,
                     f"rounds ~ k^{r.k_exponent:.2f}, crossover at k={r.crossover_k}"),
    "E8": lambda r: (0.45 <= r.k_exponent <= 0.9,
                     f"rounds ~ k^{r.k_exponent:.2f} (want ≈ 0.67)"),
    "E9": lambda r: (r.quantum_k_exponent <= 0.25
                     and r.classical_k_exponent >= 0.75 and r.zero_error,
                     f"q ~ k^{r.quantum_k_exponent:.2f}, "
                     f"c ~ k^{r.classical_k_exponent:.2f}, "
                     f"zero-error={r.zero_error}"),
    "E10": lambda r: (0.3 <= r.n_exponent <= 0.7,
                      f"rounds ~ n^{r.n_exponent:.2f} (want ≈ 0.5)"),
    "E11": lambda r: (-1.8 <= r.eps_exponent <= -0.5,
                      f"rounds ~ eps^{r.eps_exponent:.2f} (want ≈ -1)"),
    "E12": lambda r: (0.15 <= r.n_exponent <= 0.75,
                      f"rounds ~ n^{r.n_exponent:.2f} (bound exponent ≈ 0.43)"),
    "E13": lambda r: (r.soundness_violations == 0,
                      f"{r.soundness_violations} soundness violations"),
    "E14": lambda r: (-0.8 <= r.p_exponent <= -0.25,
                      f"rounds ~ p^{r.p_exponent:.2f} (want ≈ -0.5)"),
    "E15": lambda r: (r.all_reductions_sound, "reductions sound"),
    "E16": lambda r: (r.all_sound and r.quantum_below_classical,
                      f"sound={r.all_sound}, quantum<classical="
                      f"{r.quantum_below_classical}"),
    "E17": lambda r: (r.local_exact and r.no_false_positives,
                      f"local exact={r.local_exact}, "
                      f"one-sided={r.no_false_positives}"),
    "E18": lambda r: (r.failure_rates_decrease and r.rounds_linear_in_reps,
                      f"failures decrease={r.failure_rates_decrease}, "
                      f"linear rounds={r.rounds_linear_in_reps}"),
    "E19": lambda r: (r.zero_loss_identical and r.all_correct
                      and all(x >= 1.0 for x in r.overheads.values()),
                      f"p=0 identical={r.zero_loss_identical}, "
                      f"outputs intact={r.all_correct}, overhead at max p "
                      f"= {max(r.overheads.values()):.1f}x"),
    "E20": lambda r: (r.quantum_exponent < r.classical_exponent
                      and 0.3 <= r.quantum_exponent <= 0.7
                      and r.classical_exponent >= 0.8
                      and r.min_accuracy == 1.0,
                      f"q ~ n^{r.quantum_exponent:.2f} < "
                      f"c ~ n^{r.classical_exponent:.2f}, "
                      f"accuracy={r.min_accuracy:.2f}"),
    "E21": lambda r: (r.quantum_exponent < r.classical_exponent
                      and 0.15 <= r.quantum_exponent <= 0.4
                      and 0.25 <= r.classical_exponent <= 0.5
                      and r.all_validated,
                      f"q ~ n^{r.quantum_exponent:.2f} < "
                      f"c ~ n^{r.classical_exponent:.2f}, "
                      f"engine validated={r.all_validated}"),
    "E22": lambda r: (r.rounds_crossover_n is not None
                      and r.mature_crossover_known
                      and r.near_term.latency_dominated
                      and r.break_even_exponent >= 0.2
                      and r.fidelity_monotone
                      and r.honest_cells_correct,
                      f"rounds crossover n={r.rounds_crossover_n}, "
                      f"mature wall-clock n="
                      f"{r.mature.wall_clock_crossover_n or r.mature.predicted_crossover_n}, "
                      f"near-term latency-dominated="
                      f"{r.near_term.latency_dominated}, "
                      f"f* ~ n^{r.break_even_exponent:.2f}, "
                      f"fidelity bill monotone={r.fidelity_monotone}, "
                      f"honest cells exact={r.honest_cells_correct}"),
    "E23": lambda r: (r.tradeoff_holds and r.backend_agreement
                      and r.max_backend_delta <= 1e-9,
                      f"alpha non-increasing={r.alpha_non_increasing}, "
                      f"top<bottom={r.alpha_shrinks}, exact/emulated "
                      f"decisions identical={r.backend_agreement} "
                      f"(max |Δoverlap|={r.max_backend_delta:.1e})"),
}


@dataclass(frozen=True)
class RunRequest:
    """Everything that parameterizes one experiment run or sweep, frozen.

    The canonical currency of the experiment layer::

        verify_all(RunRequest(experiments=("E10", "E11"), jobs=4,
                              checkpoint="sweep.ckpt.jsonl"))

    A request is immutable and reusable; derive variants with
    :meth:`replace` (``req.replace(seed=trial)``) instead of re-spelling
    eight keyword arguments per call.  The same object drives
    :func:`run_experiment`, :func:`run_instrumented`,
    :func:`verify_experiment`, :func:`verify_all`, and the ``python -m
    repro run/trace/verify`` commands, so worker-pool and trace plumbing
    is spelled in exactly one place.

    Attributes:
        experiments: experiment ids to target, upper-cased on
            construction; ``()`` (default) targets every registered
            experiment.  A bare string is accepted and treated as one id.
        quick: quick sweeps (default) vs full sweeps.
        seed: root seed, forwarded verbatim to every experiment.
        jobs: worker processes for verification sweeps (1 = in-process).
        timeout: per-experiment wall-clock budget in seconds.
        retries: re-attempts per experiment after a failure or timeout.
        checkpoint: JSONL checkpoint path for resumable sweeps.
        jsonl: when set, run instrumented and merge every event into one
            ``repro-trace/1`` stream at this path.
        keep_events: retain raw event objects on instrumented runs.
    """

    experiments: Tuple[str, ...] = ()
    quick: bool = True
    seed: int = 0
    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    checkpoint: Optional[str] = None
    jsonl: Optional[str] = None
    keep_events: bool = False

    def __post_init__(self):
        exps = self.experiments
        if isinstance(exps, str):
            exps = (exps,)
        object.__setattr__(
            self, "experiments", tuple(e.upper() for e in exps)
        )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    def replace(self, **changes) -> "RunRequest":
        """A copy with the given fields swapped (sweep-friendly)."""
        return dataclasses.replace(self, **changes)

    @property
    def targets(self) -> List[str]:
        """The validated experiment ids this request names, in order."""
        if not self.experiments:
            return list(ALL_EXPERIMENTS)
        unknown = [e for e in self.experiments if e not in ALL_EXPERIMENTS]
        if unknown:
            raise KeyError(
                f"unknown experiment(s) {unknown}; "
                f"available: {list(ALL_EXPERIMENTS)}"
            )
        return list(self.experiments)

    def single_target(self) -> str:
        """The one experiment id, for single-experiment entrypoints."""
        targets = self.targets
        if len(targets) != 1:
            raise ValueError(
                f"this entrypoint takes exactly one experiment, the "
                f"request names {len(targets)}: {targets}"
            )
        return targets[0]


def _require_request(fn: str, request: Any) -> None:
    """Reject a flat call: every entry point takes one RunRequest."""
    if not isinstance(request, RunRequest):
        raise TypeError(
            f"{fn}() takes a RunRequest, got {type(request).__name__}; "
            f"pass RunRequest(experiments=..., quick=..., seed=...)"
        )


@dataclass
class InstrumentedRun:
    """One experiment execution plus its unified event-stream products."""

    experiment: str
    result: object
    metrics: MetricsSink
    events: Optional[List[object]]  # raw events when keep_events=True
    jsonl_path: Optional[str]


def run_experiment(request: RunRequest) -> Dict[str, object]:
    """Run the requested experiments; no criteria are evaluated.

    Returns ``{experiment id: result object}`` in target order.
    """
    _require_request("run_experiment", request)
    return {
        name: ALL_EXPERIMENTS[name].run(quick=request.quick,
                                        seed=request.seed)
        for name in request.targets
    }


def run_instrumented(request: RunRequest) -> InstrumentedRun:
    """Run one experiment with the observability spine recording.

    Called as ``run_instrumented(RunRequest(experiments=("E7",),
    jsonl=..., keep_events=...))``.  The spine captures every engine
    round, fault, query batch, coalesce, and ledger charge the experiment
    triggers — however deep in the stack — in one metrics registry and
    (with ``jsonl`` set) one ``repro-trace/1`` stream.
    """
    _require_request("run_instrumented", request)
    experiment = request.single_target()
    metrics = MetricsSink()
    sinks: List[object] = [metrics]
    memory = MemorySink() if request.keep_events else None
    if memory is not None:
        sinks.append(memory)
    if request.jsonl is not None:
        sinks.append(JSONLSink(request.jsonl))
    recorder = Recorder(sinks)
    try:
        with install(recorder):
            result = ALL_EXPERIMENTS[experiment].run(
                quick=request.quick, seed=request.seed
            )
    finally:
        recorder.close()
    return InstrumentedRun(
        experiment=experiment,
        result=result,
        metrics=metrics,
        events=memory.events if memory is not None else None,
        jsonl_path=request.jsonl,
    )


def _check_criterion(experiment: str) -> None:
    """Fail fast on registry drift, before any (expensive) run."""
    if experiment not in CRITERIA:
        raise KeyError(
            f"experiment {experiment!r} is registered in ALL_EXPERIMENTS "
            f"but has no reproduction criterion in CRITERIA; add one to "
            f"repro.experiments.runner.CRITERIA before verifying it"
        )


def verify_experiment(request: RunRequest) -> Verdict:
    """Run one experiment and evaluate its reproduction criterion.

    Called as ``verify_experiment(RunRequest(experiments=("E7",), ...))``.
    Both registries are validated *before* the (possibly expensive) run:
    an experiment registered in ``ALL_EXPERIMENTS`` but missing from
    ``CRITERIA`` — the exact drift a newly added E20 would cause — is
    reported as such up front instead of surfacing as a bare ``KeyError``
    after minutes of sweep work.
    """
    _require_request("verify_experiment", request)
    experiment = request.single_target()
    _check_criterion(experiment)
    result = ALL_EXPERIMENTS[experiment].run(
        quick=request.quick, seed=request.seed
    )
    passed, detail = CRITERIA[experiment](result)
    return Verdict(experiment=experiment, passed=passed, detail=detail)


def verify_sweep(request: RunRequest):
    """Run a verification sweep exactly as the request describes it.

    The one place the ``--jobs/--resume/--jsonl`` plumbing lives: serial
    in-process when nothing asks for workers, timeouts, checkpoints, or a
    merged trace; otherwise fanned out through
    :func:`repro.parallel.verify.verify_parallel` (verdicts bit-identical
    to serial, in the same order).

    Returns a :class:`repro.parallel.verify.VerifySweep`.
    """
    targets = request.targets
    for name in targets:
        _check_criterion(name)
    from ..parallel.verify import VerifySweep, verify_parallel

    if (
        request.jobs == 1
        and request.timeout is None
        and request.checkpoint is None
        and request.jsonl is None
    ):
        verdicts = [
            verify_experiment(request.replace(experiments=(name,)))
            for name in targets
        ]
        return VerifySweep(verdicts=verdicts, metrics=None, jsonl_path=None)
    return verify_parallel(
        quick=request.quick,
        seed=request.seed,
        only=targets,
        jobs=request.jobs,
        timeout=request.timeout,
        retries=request.retries,
        checkpoint=request.checkpoint,
        jsonl_path=request.jsonl,
    )


def verify_all(request: RunRequest) -> List[Verdict]:
    """Run every requested experiment and check its reproduction criterion.

    A thin list-valued view over :func:`verify_sweep`.  Failed or
    timed-out tasks come back as
    :class:`~repro.parallel.executor.TaskFailure` entries in their slots
    instead of killing the sweep.
    """
    _require_request("verify_all", request)
    return verify_sweep(request).verdicts
