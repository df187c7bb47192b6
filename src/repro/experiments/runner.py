"""The reproduction claims, and the entry points that run and judge them.

:data:`CLAIMS` declares each experiment's claim once: the paper results it
measures, the bound it reproduces, and the check on its result object.
Everything that judges or reports a claim reads it: :func:`judge` (the one
place a result becomes a :class:`Verdict`, serial or in a worker),
:func:`report` (EXPERIMENTS.md) and :attr:`repro.paper.ResultEntry.experiments`.

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
  — run and judge the claims, serial or fanned across worker processes.
* :func:`report` — run and judge every claim and write the report;
  ``python -m repro report`` is a thin CLI over it.

A flat call (``verify_experiment("E7", quick, seed)``) is a ``TypeError``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import JSONLSink, MetricsSink, Recorder, install
from . import ALL_EXPERIMENTS


@dataclass
class Verdict:
    """Outcome of one experiment's reproduction check."""

    experiment: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Claim:
    """One experiment's reproduction claim, declared once.

    Attributes:
        results: the :data:`repro.paper.REGISTRY` keys the experiment
            measures; ``()`` for experiments that test something beyond
            the paper's numbered results.
        bound: the claim, as EXPERIMENTS.md prints it.
        check: maps the experiment's result object to ``(passed, detail)``.
    """

    results: Tuple[str, ...]
    bound: str
    check: Callable[[Any], Tuple[bool, str]]


#: experiment id -> its claim, in ALL_EXPERIMENTS order.  The verify
#: sweep, :func:`report` and :func:`repro.paper.where_is` all read it.
CLAIMS: Dict[str, Claim] = {
    "E1": Claim(
        ("Lemma 2",),
        "parallel Grover: b = O(⌈√(k/(tp))⌉) find-one, O(√(kt/p)+t) find-all",
        lambda r: (-0.8 <= r.p_exponent <= -0.25,
                   f"b ~ p^{r.p_exponent:.2f} (want ≈ -0.5)"),
    ),
    "E2": Claim(
        ("Lemma 3",),
        "parallel minimum: b = O(⌈√(k/p)⌉), O(⌈√(k/(ℓp))⌉) with multiplicity ℓ",
        lambda r: (0.3 <= r.k_exponent <= 0.75,
                   f"b ~ k^{r.k_exponent:.2f} (want ≈ 0.5)"),
    ),
    "E3": Claim(
        ("Lemma 5",),
        "parallel element distinctness: b = O(⌈(k/p)^{2/3}⌉), z = k^{2/3}p^{1/3}",
        lambda r: (0.45 <= r.k_exponent <= 0.9,
                   f"b ~ k^{r.k_exponent:.2f} (want ≈ 0.67)"),
    ),
    "E4": Claim(
        ("Lemma 6",),
        "parallel mean estimation: b = Õ(σ/(√p·ε))",
        lambda r: (-1.8 <= r.eps_exponent <= -0.7,
                   f"b ~ eps^{r.eps_exponent:.2f} (want ≈ -1)"),
    ),
    "E5": Claim(
        ("Lemma 7",),
        "register distribution: O(D + q/log n) pipelined vs D·⌈q/log n⌉ naive",
        lambda r: (r.max_pipelined_ratio <= 2.0,
                   f"pipelined/bound ratio {r.max_pipelined_ratio:.2f}"),
    ),
    "E6": Claim(
        ("Theorem 8", "Corollary 9"),
        "batch cost (D+p)⌈q/log n⌉ + p⌈log k/log n⌉ (+ α(p))",
        lambda r: (r.max_engine_formula_ratio <= 5.0,
                   f"engine/formula ratio {r.max_engine_formula_ratio:.2f}"),
    ),
    "E7": Claim(
        ("Lemma 10", "Lemma 11"),
        "meeting scheduling Õ(√(kD)+D) vs classical Ω(k/log n + D)",
        lambda r: (0.3 <= r.k_exponent <= 0.7 and r.crossover_k is not None,
                   f"rounds ~ k^{r.k_exponent:.2f}, crossover at k={r.crossover_k}"),
    ),
    "E8": Claim(
        ("Lemma 12", "Lemma 13", "Corollary 14", "Lemma 15"),
        "element distinctness Õ(k^{2/3}D^{1/3}+D) vs classical Ω(k/log n + D)",
        lambda r: (0.45 <= r.k_exponent <= 0.9,
                   f"rounds ~ k^{r.k_exponent:.2f} (want ≈ 0.67)"),
    ),
    "E9": Claim(
        ("Theorem 17", "Theorem 18"),
        "exact DJ: O(D⌈log k/log n⌉) vs exact classical Ω(k/log n + D)",
        lambda r: (r.quantum_k_exponent <= 0.25
                   and r.classical_k_exponent >= 0.75 and r.zero_error,
                   f"q ~ k^{r.quantum_k_exponent:.2f}, "
                   f"c ~ k^{r.classical_k_exponent:.2f}, "
                   f"zero-error={r.zero_error}"),
    ),
    "E10": Claim(
        ("Lemma 20", "Lemma 21"),
        "diameter/radius O(√(nD)) vs classical Θ(n) [LM18 recovered]",
        lambda r: (0.3 <= r.n_exponent <= 0.7,
                   f"rounds ~ n^{r.n_exponent:.2f} (want ≈ 0.5)"),
    ),
    "E11": Claim(
        ("Lemma 22",),
        "ε-additive average eccentricity Õ(D^{3/2}/ε)",
        lambda r: (-1.8 <= r.eps_exponent <= -0.5,
                   f"rounds ~ eps^{r.eps_exponent:.2f} (want ≈ -1)"),
    ),
    "E12": Claim(
        ("Lemma 23", "Lemma 24", "Lemma 25"),
        "cycle detection O(k + (kn)^{1/2−1/(4⌈k/2⌉+2)})",
        lambda r: (0.15 <= r.n_exponent <= 0.75,
                   f"rounds ~ n^{r.n_exponent:.2f} (bound exponent ≈ 0.43)"),
    ),
    "E13": Claim(
        ("Corollary 26",),
        "girth Õ(g + (gn)^{1/2−1/Θ(g)}), classical Ω(√n) [FHW12]",
        lambda r: (r.soundness_violations == 0,
                   f"{r.soundness_violations} soundness violations"),
    ),
    "E14": Claim(
        ("Lemma 27", "Corollary 28", "Lemma 29", "Corollary 30"),
        "amplification (R+D)/√p·log(1/δ); phase est (R/ε)log(1/δ)+D; "
        "amp est (R+D)√p_max/ε·log(1/δ)",
        lambda r: (-0.8 <= r.p_exponent <= -0.25,
                   f"rounds ~ p^{r.p_exponent:.2f} (want ≈ -0.5)"),
    ),
    "E15": Claim(
        ("Lemma 11", "Lemma 13", "Lemma 15", "Theorem 18"),
        "lower-bound reductions sound; DJ fooling certificate",
        lambda r: (r.all_reductions_sound, "reductions sound"),
    ),
    "E16": Claim(
        ("Remark (even cycles)",),
        "exact even cycles C_k, k=4..10, in O(n^{1/2−1/(2k+2)}) vs Ω̃(√n) [KR18]",
        lambda r: (r.all_sound and r.quantum_below_classical,
                   f"sound={r.all_sound}, quantum<classical="
                   f"{r.quantum_below_classical}"),
    ),
    "E17": Claim(
        ("Corollary 26",),
        "triangle finding: Õ(n^{1/5}) [CFGLO22] vs Õ(n^{1/4}) [IGM19] vs "
        "classical; O(Δ) protocol measured",
        lambda r: (r.local_exact and r.no_false_positives,
                   f"local exact={r.local_exact}, "
                   f"one-sided={r.no_false_positives}"),
    ),
    "E18": Claim(
        ("Remark (boosting)",),
        "leader boosts 2/3-success runs to 1 − n^{−c} at a log-factor of "
        "repetitions",
        lambda r: (r.failure_rates_decrease and r.rounds_linear_in_reps,
                   f"failures decrease={r.failure_rates_decrease}, "
                   f"linear rounds={r.rounds_linear_in_reps}"),
    ),
    "E19": Claim(
        (),
        "synchronous lossless links, as Lemma 7 and Theorem 8 assume: at "
        "p = 0 the fault engine is the plain engine; under Bernoulli loss "
        "p ≤ 0.1, BFS, convergecast and leader election keep their exact "
        "outputs at a measured round overhead ≥ 1x",
        lambda r: (r.zero_loss_identical and r.all_correct
                   and all(x >= 1.0 for x in r.overheads.values()),
                   f"p=0 identical={r.zero_loss_identical}, "
                   f"outputs intact={r.all_correct}, overhead at max p "
                   f"= {max(r.overheads.values()):.1f}x"),
    ),
    "E20": Claim(
        ("Lemma 21",),
        "diameter duel at fixed D: quantum rounds ~ n^{1/2} below classical "
        "~ n^1, exact on every trial",
        lambda r: (r.quantum_exponent < r.classical_exponent
                   and 0.3 <= r.quantum_exponent <= 0.7
                   and r.classical_exponent >= 0.8
                   and r.min_accuracy == 1.0,
                   f"q ~ n^{r.quantum_exponent:.2f} < "
                   f"c ~ n^{r.classical_exponent:.2f}, "
                   f"accuracy={r.min_accuracy:.2f}"),
    ),
    "E21": Claim(
        (),
        "CONGEST-CLIQUE APSP: quantum Õ(n^{1/4}) below classical Õ(n^{1/3}); "
        "the engine's all-pairs output matches ground truth",
        lambda r: (r.quantum_exponent < r.classical_exponent
                   and 0.15 <= r.quantum_exponent <= 0.4
                   and 0.25 <= r.classical_exponent <= 0.5
                   and r.all_validated,
                   f"q ~ n^{r.quantum_exponent:.2f} < "
                   f"c ~ n^{r.classical_exponent:.2f}, "
                   f"engine validated={r.all_validated}"),
    ),
    "E22": Claim(
        (),
        "scenario matrix: a rounds crossover exists; wall-clock crossover "
        "under mature links, latency-dominated under near-term links; the "
        "Lemma 7 re-amplification bill grows as link fidelity drops; honest "
        "adversary cells stay exact",
        lambda r: (r.rounds_crossover_n is not None
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
    ),
    "E23": Claim(
        (),
        "amplitude sketches: error α(m) non-increasing in width m "
        "(m ≍ log(1/α)); exact and emulated backends decide identically",
        lambda r: (r.tradeoff_holds and r.backend_agreement
                   and r.max_backend_delta <= 1e-9,
                   f"alpha non-increasing={r.alpha_non_increasing}, "
                   f"top<bottom={r.alpha_shrinks}, exact/emulated "
                   f"decisions identical={r.backend_agreement} "
                   f"(max |Δoverlap|={r.max_backend_delta:.1e})"),
    ),
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
    """

    experiments: Tuple[str, ...] = ()
    quick: bool = True
    seed: int = 0
    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    checkpoint: Optional[str] = None
    jsonl: Optional[str] = None

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
    jsonl=...))``.  The spine captures every engine round, fault, query
    batch, coalesce, and ledger charge the experiment triggers — however
    deep in the stack — in one metrics registry and (with ``jsonl`` set)
    one ``repro-trace/1`` stream.
    """
    _require_request("run_instrumented", request)
    experiment = request.single_target()
    metrics = MetricsSink()
    sinks: List[object] = [metrics]
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
        jsonl_path=request.jsonl,
    )


def _check_criterion(experiment: str) -> None:
    """Fail fast on registry drift, before any (expensive) run."""
    if experiment not in CLAIMS:
        raise KeyError(
            f"experiment {experiment!r} is registered in ALL_EXPERIMENTS "
            f"but has no reproduction criterion in CLAIMS; add one to "
            f"repro.experiments.runner.CLAIMS before verifying it"
        )


def judge(experiment: str, result: Any) -> Verdict:
    """Evaluate ``experiment``'s claim on its result object."""
    passed, detail = CLAIMS[experiment].check(result)
    return Verdict(experiment=experiment, passed=passed, detail=detail)


def verify_experiment(request: RunRequest) -> Verdict:
    """Run one experiment and judge its reproduction claim.

    Called as ``verify_experiment(RunRequest(experiments=("E7",), ...))``.
    Both registries are validated *before* the (possibly expensive) run:
    an experiment registered in ``ALL_EXPERIMENTS`` but missing from
    ``CLAIMS`` is reported as such up front instead of surfacing as a bare
    ``KeyError`` after minutes of sweep work.
    """
    _require_request("verify_experiment", request)
    experiment = request.single_target()
    _check_criterion(experiment)
    result = ALL_EXPERIMENTS[experiment].run(
        quick=request.quick, seed=request.seed
    )
    return judge(experiment, result)


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


_REPORT_HEADER = """# EXPERIMENTS — paper bound vs. measured

Generated by `python -m repro report{flags}`.
Each section names the paper results the experiment measures, the claimed
bound, the measured table, and the verdict of the experiment's
reproduction criterion (`repro.experiments.runner.CLAIMS`), the same check
`python -m repro verify` runs.

The paper reports Θ-bounds, not wall-clock numbers, so "reproduced" means:
measured round/batch counts follow the claimed exponents (log–log fits
below), the quantum algorithm beats its classical baseline where the paper
claims a separation, and error behaviour matches (zero-error where claimed
exact, ≥ 2/3 success elsewhere).  Constants are implementation-specific
and reported as measured.

"""


def report(request: RunRequest, path: str) -> List[Verdict]:
    """Run and judge every requested experiment; write the report to ``path``.

    One section per experiment, in target order: a heading naming the
    claim's paper results, the claimed bound, the result table, and the
    verdict line.  The file depends only on ``request.quick`` and
    ``request.seed``.  Returns the verdicts in the same order.
    """
    _require_request("report", request)
    for name in request.targets:
        _check_criterion(name)
    sections, verdicts = [], []
    for name, result in run_experiment(request).items():
        claim, verdict = CLAIMS[name], judge(name, result)
        verdicts.append(verdict)
        heading = f"{name} — {', '.join(claim.results)}" if claim.results else name
        status = "ok" if verdict.passed else "FAIL"
        sections.append(
            f"## {heading}\n\n"
            f"**Paper claim:** {claim.bound}\n\n"
            "```\n" + result.table.render() + "\n```\n\n"
            f"**Verdict:** {status} — {verdict.detail}\n"
        )
    flags = ("" if request.quick else " --full") + f" --seed {request.seed}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_REPORT_HEADER.format(flags=flags) + "\n".join(sections))
    return verdicts
