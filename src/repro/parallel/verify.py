"""The parallel verification sweep: experiments fanned across workers.

This is the executor's flagship consumer —
``verify_all(RunRequest(jobs=N))`` and ``python -m repro verify --jobs N``
both land here.  Each experiment becomes one
:class:`~repro.parallel.executor.Task`; every worker runs the *same*
``run(quick=quick, seed=seed)`` call the serial loop would, so the
parallel sweep returns bit-identical
:class:`~repro.experiments.runner.Verdict` objects in the same order.
Only the scheduling differs, never the computation.

When a merged trace is requested (``jsonl_path=``), each worker runs
its experiment under the observability spine, streams events to a
private ``repro-trace/1`` shard, and ships its :class:`MetricsSink`
back through the result pipe; the parent stitches shards with
:func:`repro.obs.jsonl.merge_jsonl_shards` and folds sinks with
:meth:`MetricsSink.merge`, so the merged products equal a one-process
instrumented run's.

Checkpoint records carry the verdict *and* the metrics snapshot, so a
sweep killed mid-run resumes with both intact: completed experiments
are replayed from the file, only the remainder re-executes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..obs import MetricsSink
from ..obs.jsonl import merge_jsonl_shards
from .executor import Task, TaskFailure, run_parallel

__all__ = ["VerifySweep", "verify_parallel"]


@dataclass
class _TaskPayload:
    """What one verify worker ships back through the result pipe."""

    verdict: Any  # runner.Verdict (imported lazily; circular import)
    metrics: Optional[MetricsSink]
    shard: Optional[str]


@dataclass
class VerifySweep:
    """Everything a parallel verification run produced."""

    #: One entry per target, in target order: Verdict or TaskFailure.
    verdicts: List[Any]
    #: Merged cross-process metrics registry (None without a trace).
    metrics: Optional[MetricsSink]
    #: The merged ``repro-trace/1`` stream (None without a trace).
    jsonl_path: Optional[str]

    @property
    def failures(self) -> List[TaskFailure]:
        return [v for v in self.verdicts if isinstance(v, TaskFailure)]


def _verify_task(
    experiment: str,
    quick: bool,
    seed: int,
    shard_path: Optional[str] = None,
) -> _TaskPayload:
    """Worker entry: one experiment, optionally instrumented.

    Module-level so it pickles under the ``spawn`` start method.  The
    un-instrumented branch calls the exact function the serial
    ``verify_all`` loop calls — that is what makes parallel verdicts
    bit-identical to serial ones by construction.
    """
    from ..experiments.runner import (
        CRITERIA,
        RunRequest,
        Verdict,
        run_instrumented,
        verify_experiment,
    )

    request = RunRequest(experiments=(experiment,), quick=quick, seed=seed)
    if shard_path is None:
        return _TaskPayload(
            verdict=verify_experiment(request),
            metrics=None,
            shard=None,
        )
    run = run_instrumented(request.replace(jsonl=shard_path))
    passed, detail = CRITERIA[experiment](run.result)
    return _TaskPayload(
        verdict=Verdict(experiment=experiment, passed=passed, detail=detail),
        metrics=run.metrics,
        shard=shard_path,
    )


def _encode_payload(payload: _TaskPayload) -> Dict[str, Any]:
    """Checkpoint record for one completed task (JSON-safe)."""
    return {
        "verdict": {
            "experiment": payload.verdict.experiment,
            "passed": payload.verdict.passed,
            "detail": payload.verdict.detail,
        },
        "metrics": (
            payload.metrics.to_state() if payload.metrics is not None else None
        ),
        "shard": payload.shard,
    }


def _decode_payload(record: Dict[str, Any]) -> _TaskPayload:
    from ..experiments.runner import Verdict

    metrics = record.get("metrics")
    return _TaskPayload(
        verdict=Verdict(**record["verdict"]),
        metrics=MetricsSink.from_state(metrics) if metrics else None,
        shard=record.get("shard"),
    )


def verify_parallel(
    quick: bool = True,
    seed: int = 0,
    only: Optional[List[str]] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    jsonl_path: Optional[str] = None,
) -> VerifySweep:
    """Run the verification sweep across ``jobs`` worker processes.

    Args:
        quick: forwarded to every experiment's ``run``.
        seed: the sweep's root seed, forwarded verbatim to every
            experiment (serial ``verify_all`` passes the same seed to
            each experiment, and bit-identity demands we do too).
        only: experiment ids to run (default: all of them, in registry
            order).
        jobs: worker processes.
        timeout: per-experiment wall-clock budget in seconds.
        retries: re-attempts after a failure/timeout before the task
            resolves to a :class:`TaskFailure`.
        checkpoint: JSONL checkpoint path; pass the same path again to
            resume an interrupted sweep.
        jsonl_path: when set, produce one merged ``repro-trace/1``
            stream at this path (per-task shards live in a sibling
            ``<jsonl_path>.d/`` directory) and a merged
            :class:`MetricsSink`.

    Returns:
        A :class:`VerifySweep`; ``verdicts`` matches the serial run
        entry-for-entry wherever tasks succeeded.
    """
    from ..experiments import ALL_EXPERIMENTS

    targets = list(only) if only is not None else list(ALL_EXPERIMENTS)
    unknown = [t for t in targets if t not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s): {unknown}")

    shard_dir: Optional[str] = None
    if jsonl_path is not None:
        shard_dir = jsonl_path + ".d"
        os.makedirs(shard_dir, exist_ok=True)

    tasks = []
    for target in targets:
        kwargs: Dict[str, Any] = {
            "experiment": target, "quick": quick, "seed": seed,
        }
        if shard_dir is not None:
            kwargs["shard_path"] = os.path.join(shard_dir, f"{target}.jsonl")
        tasks.append(Task(key=target, fn=_verify_task, kwargs=kwargs))

    context = {
        "kind": "verify",
        "quick": quick,
        "seed": seed,
        "trace": jsonl_path is not None,
    }
    outcomes = run_parallel(
        tasks,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        checkpoint=checkpoint,
        context=context,
        encode=_encode_payload,
        decode=_decode_payload,
    )

    verdicts: List[Union[Any, TaskFailure]] = []
    merged: Optional[MetricsSink] = None
    shards: List[str] = []
    for outcome in outcomes:
        if isinstance(outcome, TaskFailure):
            verdicts.append(outcome)
            continue
        verdicts.append(outcome.verdict)
        if outcome.metrics is not None:
            merged = (
                outcome.metrics
                if merged is None
                else merged.merge(outcome.metrics)
            )
        if outcome.shard is not None and os.path.exists(outcome.shard):
            shards.append(outcome.shard)

    if jsonl_path is not None and shards:
        merge_jsonl_shards(shards, jsonl_path)

    return VerifySweep(
        verdicts=verdicts,
        metrics=merged,
        jsonl_path=jsonl_path if (jsonl_path is not None and shards) else None,
    )
