"""Parallel execution of independent simulation runs.

Every experiment in the harness decomposes into *independent* runs:
each :func:`~repro.harness.runner.run_once` deploys a fresh cluster
seeded explicitly, so no state flows between runs (the global flow-id
counter only breaks ties *within* one simulation and never leaks into
results).  That makes fan-out across worker processes safe: a worker
computes exactly what the serial loop would have computed, and results
are collected in **task order**, so the output of a parallel sweep or
figure is bit-identical to the serial one.

``jobs`` resolution order: explicit argument, then the ``REPRO_JOBS``
environment variable, then 1 (serial).  ``jobs=0`` (argument or
environment) means "use every core" (``os.cpu_count()``).

One engine starts worker processes, :func:`robust_map`: one process
per task, so a task that raises, crashes its worker or exceeds a
per-task timeout fails *that task only* (recorded as a
:class:`TaskFailure` with full task identity, optionally retried with
exponential backoff); every other task still completes and the results
keep their task-order slots.  Campaigns journal through it via
:func:`~repro.harness.checkpoint.journaled_map`.

:func:`parallel_map` is its fail-fast front.  With ``jobs=1`` (or a
single task) it is a plain in-process loop — no worker, no pickling —
so an exception keeps its type and traceback.  Otherwise it runs the
tasks through :func:`robust_map` and raises one :class:`TaskError`
naming every failed task; a worker that dies without reporting
(segfault, ``os._exit``, OOM kill) is a failure of kind ``"crash"``.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["ENV_JOBS", "TaskError", "TaskFailure", "parallel_map",
           "robust_map", "resolve_jobs"]

#: Environment variable consulted when no explicit job count is given.
ENV_JOBS = "REPRO_JOBS"

#: Scheduler poll interval for :func:`robust_map` (wall-clock seconds);
#: only bounds how quickly timeouts/crashes are *noticed*, never what
#: any task computes.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class TaskFailure:
    """One task :func:`robust_map` could not complete.

    Carries the task's full identity — index into the task list, the
    function name and the argument tuple's ``repr`` — so a single
    failed trial inside a 200-trial campaign is diagnosable from the
    report alone.
    """

    index: int
    fn_name: str
    args_repr: str
    kind: str          #: ``"exception"`` | ``"crash"`` | ``"timeout"``
    error_type: str
    message: str
    attempts: int = 1

    def describe(self) -> str:
        return (f"task #{self.index} {self.fn_name}{self.args_repr}: "
                f"{self.kind} after {self.attempts} attempt(s) — "
                f"{self.error_type}: {self.message}")


class TaskError(RuntimeError):
    """Tasks of a fail-fast batch failed: one ``details`` line each.

    ``failures`` holds their :class:`TaskFailure` records when the
    raiser has them (:func:`parallel_map` does; a journaled figure
    keeps each gap's description only).
    """

    def __init__(self, details: Sequence[str],
                 failures: Sequence[TaskFailure] = ()) -> None:
        self.details = list(details)
        self.failures = list(failures)
        super().__init__(f"{len(self.details)} task(s) failed:\n"
                         + "\n".join(self.details))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: argument > ``$REPRO_JOBS`` > 1.

    ``0`` (from either source) means "use every core":
    ``os.cpu_count()``.  Negative counts are rejected.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{ENV_JOBS} must be an integer, got {raw!r}") from None
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _ignore_sigint() -> None:
    """Worker prologue: leave Ctrl-C to the coordinator.

    A terminal SIGINT goes to the whole foreground process group, so
    without this every worker would print its own ``KeyboardInterrupt``
    traceback on top of the coordinator's message.  Workers ignore the
    signal; the coordinator notices the interrupt, terminates them and
    reports once.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def _args_repr(args: Tuple, limit: int = 200) -> str:
    try:
        text = repr(tuple(args))
    except Exception:  # pragma: no cover - repr() of exotic arguments
        text = "(<unreprable arguments>)"
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


def _fn_name(fn: Callable) -> str:
    return getattr(fn, "__name__", repr(fn))


# ----------------------------------------------------------------------
# robust_map: graceful degradation for long campaigns
# ----------------------------------------------------------------------
def _robust_child(fn: Callable, index: int, args: Tuple, conn) -> None:
    """Worker entry: run one task, report ("ok", result) or ("err", ...).

    Any exception is reported as plain strings (type name + message), so
    unpicklable exceptions cannot take the report channel down with
    them.  A worker that dies before sending anything is detected by
    the parent as a crash.
    """
    _ignore_sigint()
    try:
        try:
            result = fn(*args)
        except Exception as exc:
            conn.send(("err", type(exc).__name__, str(exc)))
            return
        conn.send(("ok", result))
    finally:
        conn.close()


@dataclass
class _Running:
    index: int
    attempts: int
    proc: Any
    conn: Any
    started: float


def robust_map(fn: Callable, tasks: Sequence[Tuple],
               jobs: Optional[int] = None,
               timeout: Optional[float] = None,
               retries: int = 0, backoff: float = 0.5,
               on_result: Optional[Callable[[int, Any], None]] = None
               ) -> Tuple[List[Optional[Any]], List[TaskFailure]]:
    """Apply ``fn`` to every task, surviving per-task failures.

    Returns ``(results, failures)``: ``results[i]`` is the task's value,
    or ``None`` for a failed task; each failed task contributes one
    :class:`TaskFailure` (sorted by index) naming the task, the failure
    kind (``exception`` / ``crash`` / ``timeout``) and the attempt
    count.  The campaign itself always completes — graceful degradation
    instead of abort.

    With ``jobs >= 2`` each task runs in its own worker process, so a
    hung task can be killed (``timeout`` seconds of wall clock, checked
    every ~50 ms) and a crashed worker takes down only its own task.
    Failed tasks are retried up to ``retries`` times with exponential
    backoff (``backoff * 2**(attempt-1)`` seconds before relaunch).

    Serially (``jobs <= 1``) exceptions are caught per task but
    ``timeout`` cannot be enforced (there is no worker to kill) and
    crashes are fatal by nature; campaigns that need the full
    protection should run with ``jobs >= 2``.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    results: List[Optional[Any]] = [None] * len(tasks)
    failures: List[TaskFailure] = []

    if jobs <= 1:
        for i, t in enumerate(tasks):
            failure: Optional[TaskFailure] = None
            for attempt in range(1, retries + 2):
                try:
                    results[i] = fn(*t)
                    failure = None
                except Exception as exc:
                    failure = TaskFailure(
                        index=i, fn_name=_fn_name(fn),
                        args_repr=_args_repr(t), kind="exception",
                        error_type=type(exc).__name__, message=str(exc),
                        attempts=attempt)
                    continue
                if on_result is not None:
                    on_result(i, results[i])
                break
            if failure is not None:
                failures.append(failure)
        return results, failures

    ctx = get_context()
    #: (index, attempts_so_far, earliest_start) — retries wait out
    #: their backoff without blocking other tasks.
    queue: List[Tuple[int, int, float]] = [(i, 0, 0.0)
                                           for i in range(len(tasks))]
    running: List[_Running] = []

    def _fail_or_retry(run: _Running, kind: str, error_type: str,
                       message: str) -> None:
        attempts = run.attempts + 1
        if attempts <= retries:
            delay = backoff * (2.0 ** (attempts - 1)) if backoff > 0 else 0.0
            queue.append((run.index, attempts, time.monotonic() + delay))
            return
        failures.append(TaskFailure(
            index=run.index, fn_name=_fn_name(fn),
            args_repr=_args_repr(tasks[run.index]), kind=kind,
            error_type=error_type, message=message, attempts=attempts))

    def _reap(run: _Running) -> None:
        run.conn.close()
        run.proc.join()

    try:
        while queue or running:
            now = time.monotonic()
            # Launch eligible tasks into free worker slots.
            queue.sort(key=lambda q: (q[2], q[0]))
            while queue and len(running) < jobs and queue[0][2] <= now:
                index, attempts, _ = queue.pop(0)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_robust_child,
                    args=(fn, index, tasks[index], child_conn))
                proc.start()
                child_conn.close()
                running.append(_Running(index=index, attempts=attempts,
                                        proc=proc, conn=parent_conn,
                                        started=time.monotonic()))
            if not running:
                # Only backed-off retries remain: sleep to eligibility.
                if queue:
                    time.sleep(max(0.0, min(
                        queue[0][2] - time.monotonic(), _POLL_SECONDS)))
                continue
            ready = _conn_wait([r.conn for r in running],
                               timeout=_POLL_SECONDS)
            for run in [r for r in running if r.conn in ready]:
                running.remove(run)
                try:
                    kind_payload = run.conn.recv()
                except (EOFError, OSError):
                    # Closed without a report: the worker died.
                    _reap(run)
                    _fail_or_retry(
                        run, "crash", "WorkerCrashError",
                        f"worker exited with code {run.proc.exitcode} "
                        f"before reporting a result")
                    continue
                _reap(run)
                if kind_payload[0] == "ok":
                    results[run.index] = kind_payload[1]
                    if on_result is not None:
                        on_result(run.index, kind_payload[1])
                else:
                    _fail_or_retry(run, "exception", kind_payload[1],
                                   kind_payload[2])
            if timeout is not None:
                now = time.monotonic()
                for run in [r for r in running
                            if now - r.started > timeout]:
                    running.remove(run)
                    run.proc.terminate()
                    run.proc.join()
                    run.conn.close()
                    _fail_or_retry(
                        run, "timeout", "TrialTimeout",
                        f"exceeded the per-task timeout of {timeout}s")
    finally:
        for run in running:  # pragma: no cover - interrupt cleanup
            run.proc.terminate()
            run.proc.join()
            run.conn.close()
    failures.sort(key=lambda f: f.index)
    return results, failures


def parallel_map(fn: Callable, tasks: Sequence[Tuple],
                 jobs: Optional[int] = None) -> List:
    """Apply ``fn`` to argument tuples, returning results in task order.

    With ``jobs <= 1`` (or fewer than two tasks) this is literally
    ``[fn(*t) for t in tasks]``.  Otherwise the tasks run through
    :func:`robust_map` (``fn`` and its arguments and results must
    pickle) and any failure raises one :class:`TaskError`.
    """
    tasks = list(tasks)
    if resolve_jobs(jobs) <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    results, failures = robust_map(fn, tasks, jobs=jobs)
    if failures:
        raise TaskError([f.describe() for f in failures], failures)
    return results
