"""The process-pool sweep executor.

:func:`run_parallel` fans a list of :class:`Task` out across worker
processes and returns one result per task, **in task order**, regardless
of which worker finished first — so a parallel sweep returns exactly the
list its serial counterpart would.  Three failure-containment layers
keep one bad task from killing a sweep:

* **per-task timeout** — a task that exceeds ``timeout`` seconds has its
  worker process terminated,
* **bounded retry** — a failed or timed-out task is re-attempted up to
  ``retries`` more times (in a fresh process),
* **TaskFailure verdict** — a task that exhausts its attempts yields a
  :class:`TaskFailure` in its result slot instead of raising, so the
  rest of the sweep still completes and reports.

Completed tasks can be **checkpointed** to a JSONL file
(``repro-checkpoint/1``): one header line carrying the sweep context,
then one ``task`` record per completed task.  Passing the same path back
via ``checkpoint=`` resumes — tasks already recorded are replayed from
the file without re-executing, the rest run normally.  A checkpoint
written under a different context (seed, quick flag, ...) is rejected
rather than silently mixed in.

Workers are real OS processes (``fork`` where available, ``spawn``
otherwise), so task functions and their kwargs must be module-level
picklables, and results travel back through a pipe — keep them small
(dataclasses, dicts, sinks; not whole engines).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional

from ..obs.recorder import NULL_RECORDER, install

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Task",
    "TaskFailure",
    "load_checkpoint",
    "run_parallel",
]

CHECKPOINT_SCHEMA = "repro-checkpoint/1"

#: Parent-loop poll granularity (seconds) while enforcing deadlines.
_POLL_S = 0.05


@dataclass(frozen=True)
class Task:
    """One unit of sweep work.

    ``key`` identifies the task in checkpoints and failures — it must be
    unique within the sweep and stable across runs (e.g. ``"E7"`` or
    ``"bfs/p=0.05/i=3"``), because resume matches completed work by key.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TaskFailure:
    """Terminal verdict for a task that exhausted its attempts.

    Occupies the task's slot in the result list so downstream code can
    tell *which* coordinate failed and why without losing the rest of
    the sweep.
    """

    key: str
    error: str
    attempts: int
    timed_out: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        cause = "timed out" if self.timed_out else "failed"
        return f"{self.key}: {cause} after {self.attempts} attempt(s): {self.error}"


def _mp_context():
    """Prefer ``fork`` (cheap, inherits imports); fall back to ``spawn``."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _worker(conn, fn, kwargs) -> None:
    """Child-process entry: run the task, ship one (status, payload) pair.

    The task runs under the null recorder.  A forked child inherits the
    parent's ambient recorder, whose file sinks share the parent's
    buffers and file offsets: events a worker emitted there were either
    lost with its buffer at exit or written into the parent's trace,
    depending on how many it emitted.  Tasks that trace install their
    own recorder (the parallel verify shards do).
    """
    try:
        with install(NULL_RECORDER):
            result = fn(**kwargs)
        conn.send(("ok", result))
    except BaseException:
        conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


# -- checkpointing ------------------------------------------------------


def load_checkpoint(
    path: str, context: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Read a ``repro-checkpoint/1`` file: key -> encoded result.

    Args:
        path: checkpoint file; missing file means "nothing completed".
        context: when given, the header's ``context`` must equal it —
            resuming a sweep under different parameters is an error, not
            a silent replay of stale results.

    Raises:
        ValueError: malformed file, wrong schema, or context mismatch.
    """
    completed: Dict[str, Any] = {}
    if not os.path.exists(path):
        return completed
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}")
            if lineno == 1:
                if (
                    record.get("type") != "meta"
                    or record.get("schema") != CHECKPOINT_SCHEMA
                ):
                    raise ValueError(
                        f"{path}:1: expected meta header with schema "
                        f"{CHECKPOINT_SCHEMA!r}, got {record!r}"
                    )
                if context is not None and record.get("context") != context:
                    raise ValueError(
                        f"{path}: checkpoint context {record.get('context')!r} "
                        f"does not match this sweep's {context!r}; refusing "
                        f"to resume across different sweep parameters"
                    )
                continue
            if record.get("type") != "task" or "key" not in record:
                raise ValueError(f"{path}:{lineno}: malformed task record")
            completed[record["key"]] = record["result"]
    return completed


class _CheckpointWriter:
    """Append-mode JSONL writer, flushed per record so a kill loses at
    most the in-flight task."""

    def __init__(self, path: str, context: Dict[str, Any], fresh: bool):
        self.path = path
        mode = "w" if fresh else "a"
        self._fh = open(path, mode)
        if fresh:
            self._write(
                {"type": "meta", "schema": CHECKPOINT_SCHEMA,
                 "context": context}
            )

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, key: str, encoded: Any) -> None:
        self._write({"type": "task", "key": key, "result": encoded})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# -- the executor -------------------------------------------------------


@dataclass
class _Running:
    index: int
    task: Task
    attempt: int
    proc: Any
    conn: Any
    deadline: Optional[float]


def run_parallel(
    tasks: List[Task],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    context: Optional[Dict[str, Any]] = None,
    encode: Callable[[Any], Any] = lambda r: r,
    decode: Callable[[Any], Any] = lambda r: r,
) -> List[Any]:
    """Run ``tasks`` across ``jobs`` worker processes; results in task order.

    Args:
        tasks: the sweep, with unique stable keys.
        jobs: maximum concurrently-running worker processes.
        timeout: per-task wall-clock budget in seconds (``None`` = no
            limit).  A task over budget has its process terminated and
            counts the attempt as failed.
        retries: additional attempts after the first failure/timeout;
            ``retries=1`` means at most two attempts total.
        checkpoint: JSONL path for completed-task records.  If the file
            already exists (with a matching ``context``), tasks recorded
            in it are replayed without re-executing.
        context: sweep parameters stamped into the checkpoint header and
            required to match on resume (e.g. ``{"seed": 0, "quick": True}``).
        encode: result -> JSON-serializable, for the checkpoint record.
        decode: inverse of ``encode``, applied when replaying records.

    Returns:
        One entry per task, in task order: the task function's return
        value, or a :class:`TaskFailure` if it exhausted its attempts.
        Failures are never checkpointed, so a resumed sweep re-attempts
        them.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        dup = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate task keys: {dup}")

    context = context or {}
    results: List[Any] = [None] * len(tasks)
    done = [False] * len(tasks)

    writer: Optional[_CheckpointWriter] = None
    if checkpoint is not None:
        fresh = not os.path.exists(checkpoint)
        completed = load_checkpoint(checkpoint, context)
        for i, task in enumerate(tasks):
            if task.key in completed:
                results[i] = decode(completed[task.key])
                done[i] = True
        writer = _CheckpointWriter(checkpoint, context, fresh)

    ctx = _mp_context()
    queue = [(i, t) for i, t in enumerate(tasks) if not done[i]]
    queue.reverse()  # pop() from the end keeps task order
    running: List[_Running] = []

    def _launch(index: int, task: Task, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker, args=(child_conn, task.fn, dict(task.kwargs))
        )
        proc.start()
        child_conn.close()
        deadline = time.monotonic() + timeout if timeout is not None else None
        running.append(
            _Running(index, task, attempt, proc, parent_conn, deadline)
        )

    def _finish(slot: _Running, outcome: Any) -> None:
        running.remove(slot)
        slot.conn.close()
        slot.proc.join()
        results[slot.index] = outcome
        done[slot.index] = True
        if writer is not None and not isinstance(outcome, TaskFailure):
            writer.record(slot.task.key, encode(outcome))

    def _retry_or_fail(slot: _Running, error: str, timed_out: bool) -> None:
        if slot.attempt <= retries:
            index, task, attempt = slot.index, slot.task, slot.attempt
            running.remove(slot)
            slot.conn.close()
            slot.proc.join()
            _launch(index, task, attempt + 1)
        else:
            _finish(
                slot,
                TaskFailure(
                    key=slot.task.key,
                    error=error,
                    attempts=slot.attempt,
                    timed_out=timed_out,
                ),
            )

    try:
        while queue or running:
            while queue and len(running) < jobs:
                index, task = queue.pop()
                _launch(index, task, attempt=1)

            now = time.monotonic()
            wait_for = _POLL_S
            if any(s.deadline is not None for s in running):
                nearest = min(
                    s.deadline for s in running if s.deadline is not None
                )
                wait_for = min(wait_for, max(0.0, nearest - now))
            ready = _conn_wait([s.conn for s in running], timeout=wait_for)

            for conn in ready:
                slot = next(s for s in running if s.conn is conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    # The worker died without reporting (crash, kill).
                    _retry_or_fail(
                        slot, "worker process died without a result",
                        timed_out=False,
                    )
                    continue
                if status == "ok":
                    _finish(slot, payload)
                else:
                    _retry_or_fail(slot, payload, timed_out=False)

            now = time.monotonic()
            for slot in list(running):
                if slot.deadline is not None and now >= slot.deadline:
                    slot.proc.terminate()
                    _retry_or_fail(
                        slot,
                        f"task exceeded {timeout}s timeout",
                        timed_out=True,
                    )
    finally:
        for slot in running:  # pragma: no cover - only on hard errors
            slot.proc.terminate()
            slot.proc.join()
            slot.conn.close()
        if writer is not None:
            writer.close()

    return results
