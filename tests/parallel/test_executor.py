"""The process-pool executor: ordering, containment, checkpoint/resume.

Worker callables live at module level so they stay picklable under any
multiprocessing start method.  Execution counting goes through small
append-only log files — O_APPEND writes of one short line are atomic,
so concurrent workers cannot interleave records.
"""

import os
import time

import pytest

from repro.obs import JSONLSink, Recorder, current_recorder, install, validate_jsonl
from repro.parallel import Task, TaskFailure, load_checkpoint, run_parallel


def _double(x):
    return x * 2


def _boom(message):
    raise ValueError(message)


def _sleepy(seconds):
    time.sleep(seconds)
    return "done"


def _logged(log, key, value):
    with open(log, "a") as fh:
        fh.write(key + "\n")
    return value


def _logged_fail_once(log, marker, key, value):
    """Fails on its first attempt (marker absent), succeeds after."""
    with open(log, "a") as fh:
        fh.write(key + "\n")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("first attempt fails")
    return value


def _chatty(events):
    """Emits ``events`` round events on whatever recorder is ambient."""
    rec = current_recorder()
    for r in range(events):
        rec.round(r + 1, 0, 0)
    return events


def _executions(log):
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return [line.strip() for line in fh if line.strip()]


class TestOrderingAndFailures:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_results_come_back_in_task_order(self, jobs):
        tasks = [
            Task(key=f"t{i}", fn=_double, kwargs={"x": i}) for i in range(8)
        ]
        assert run_parallel(tasks, jobs=jobs) == [2 * i for i in range(8)]

    def test_failure_is_a_verdict_not_an_exception(self):
        tasks = [
            Task(key="ok1", fn=_double, kwargs={"x": 1}),
            Task(key="bad", fn=_boom, kwargs={"message": "kaput"}),
            Task(key="ok2", fn=_double, kwargs={"x": 2}),
        ]
        results = run_parallel(tasks, jobs=2, retries=0)
        assert results[0] == 2 and results[2] == 4
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.key == "bad"
        assert "kaput" in failure.error
        assert failure.attempts == 1
        assert not failure.timed_out

    def test_duplicate_keys_rejected(self):
        tasks = [
            Task(key="same", fn=_double, kwargs={"x": 1}),
            Task(key="same", fn=_double, kwargs={"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate task keys"):
            run_parallel(tasks, jobs=1)


class TestTimeoutAndRetry:
    def test_timeout_terminates_and_reports(self):
        tasks = [Task(key="hang", fn=_sleepy, kwargs={"seconds": 30})]
        start = time.monotonic()
        results = run_parallel(tasks, jobs=1, timeout=0.3, retries=0)
        assert time.monotonic() - start < 10
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert failure.timed_out
        assert "timeout" in failure.error

    def test_timeout_attempts_are_bounded(self):
        tasks = [Task(key="hang", fn=_sleepy, kwargs={"seconds": 30})]
        results = run_parallel(tasks, jobs=1, timeout=0.2, retries=1)
        assert isinstance(results[0], TaskFailure)
        assert results[0].attempts == 2

    def test_retry_recovers_a_flaky_task(self, tmp_path):
        log = str(tmp_path / "log")
        marker = str(tmp_path / "marker")
        tasks = [Task(
            key="flaky", fn=_logged_fail_once,
            kwargs={"log": log, "marker": marker, "key": "flaky",
                    "value": 42},
        )]
        assert run_parallel(tasks, jobs=1, retries=1) == [42]
        assert _executions(log) == ["flaky", "flaky"]

    def test_retries_zero_means_one_attempt(self, tmp_path):
        log = str(tmp_path / "log")
        marker = str(tmp_path / "marker")
        tasks = [Task(
            key="flaky", fn=_logged_fail_once,
            kwargs={"log": log, "marker": marker, "key": "flaky",
                    "value": 42},
        )]
        results = run_parallel(tasks, jobs=1, retries=0)
        assert isinstance(results[0], TaskFailure)
        assert _executions(log) == ["flaky"]


class TestCheckpointResume:
    def _task(self, log, key, value):
        return Task(
            key=key, fn=_logged,
            kwargs={"log": log, "key": key, "value": value},
        )

    def test_missing_checkpoint_means_nothing_completed(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.jsonl")) == {}

    def test_resume_replays_completed_and_runs_the_rest(self, tmp_path):
        log = str(tmp_path / "log")
        ckpt = str(tmp_path / "ckpt.jsonl")
        first = [self._task(log, "a", 1), self._task(log, "b", 2)]
        assert run_parallel(first, jobs=2, checkpoint=ckpt) == [1, 2]
        assert sorted(_executions(log)) == ["a", "b"]

        grown = first + [self._task(log, "c", 3), self._task(log, "d", 4)]
        assert run_parallel(grown, jobs=2, checkpoint=ckpt) == [1, 2, 3, 4]
        # a and b replayed from the file; only c and d executed anew.
        assert sorted(_executions(log)) == ["a", "b", "c", "d"]

    def test_resume_after_kill_reruns_only_the_victim(self, tmp_path):
        log = str(tmp_path / "log")
        ckpt = str(tmp_path / "ckpt.jsonl")
        # "Kill" one task mid-run via the timeout path: its worker is
        # terminated; the completed task is already in the checkpoint.
        tasks = [
            self._task(log, "fast", 7),
            Task(key="victim", fn=_sleepy, kwargs={"seconds": 30}),
        ]
        results = run_parallel(
            tasks, jobs=2, timeout=1.5, retries=0, checkpoint=ckpt
        )
        assert results[0] == 7
        assert isinstance(results[1], TaskFailure)

        retry = [
            self._task(log, "fast", 7),
            self._task(log, "victim", 8),
        ]
        assert run_parallel(retry, jobs=2, checkpoint=ckpt) == [7, 8]
        # "fast" was not re-executed; the killed task ran exactly once.
        assert sorted(_executions(log)) == ["fast", "victim"]

    def test_failures_are_never_checkpointed(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        bad = [Task(key="x", fn=_boom, kwargs={"message": "nope"})]
        results = run_parallel(bad, jobs=1, retries=0, checkpoint=ckpt)
        assert isinstance(results[0], TaskFailure)
        assert load_checkpoint(ckpt) == {}

        good = [Task(key="x", fn=_double, kwargs={"x": 5})]
        assert run_parallel(good, jobs=1, checkpoint=ckpt) == [10]

    def test_context_mismatch_is_rejected(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        tasks = [Task(key="a", fn=_double, kwargs={"x": 1})]
        run_parallel(tasks, jobs=1, checkpoint=ckpt, context={"seed": 0})
        with pytest.raises(ValueError, match="context"):
            run_parallel(
                tasks, jobs=1, checkpoint=ckpt, context={"seed": 1}
            )

    def test_encode_decode_round_trip(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        tasks = [Task(key="a", fn=_double, kwargs={"x": 21})]
        encode = lambda r: {"wrapped": r}  # noqa: E731
        decode = lambda r: r["wrapped"]  # noqa: E731
        assert run_parallel(
            tasks, jobs=1, checkpoint=ckpt, encode=encode, decode=decode
        ) == [42]
        # Replay goes through decode(encode(result)).
        assert run_parallel(
            tasks, jobs=1, checkpoint=ckpt, encode=encode, decode=decode
        ) == [42]


class TestWorkerRecorder:
    def test_worker_events_stay_out_of_the_parents_trace(self, tmp_path):
        # A forked worker used to run under the parent's ambient recorder,
        # whose file sink shares the parent's buffer and file offset: a
        # worker emitting enough events to flush wrote them (and a second
        # copy of the parent's header and earlier events) into the
        # parent's trace.
        path = str(tmp_path / "parent.jsonl")
        sink = JSONLSink(path)
        with install(Recorder([sink])) as rec:
            for r in range(3):
                rec.round(r + 1, 1, 8)
            tasks = [Task(key="chatty", fn=_chatty, kwargs={"events": 5000})]
            assert run_parallel(tasks, jobs=1) == [5000]
        sink.close()
        assert validate_jsonl(path) == {"meta": 1, "round": 3}
