"""The one dispatch loop: how every batch of tasks reaches the workers.

Every executor's ``run`` — the plain backends of
:mod:`repro.mapreduce.executor` and
:class:`~repro.mapreduce.resilient.ResilientExecutor` alike — is one call
to :func:`dispatch`.  The loop hands *chunks* of task indices to the
backend's ``submit`` (or runs them inline when the backend has none);
the module-level :func:`run_chunk` executes a chunk where it lands,
wall-clocks each task and catches each task's exception on its own, so
one failure never costs its siblings' results.

Chunk size is ``ceil(n / (4 * workers))`` — at most four waves per
worker, small enough to keep the pool balanced, large enough to amortise
the round-trip when hundreds of sub-second tasks are queued — unless the
policy sets ``task_timeout`` or ``speculate_after``: deadlines and
speculation are per attempt, so then every task is its own chunk.
Failed tasks are always re-dispatched one by one.

A :class:`FaultPolicy` decides what a failed attempt costs.  ``None``,
the *null policy* the plain backends run under, allows one attempt per
task with no deadline and no speculation: a failing task re-raises its
own exception, unwrapped.  A real policy retries (with backoff),
abandons attempts past their deadline, clones lone stragglers and keeps
the first result per task; a task out of budget raises
:class:`~repro.errors.TaskFailedError`.  A broken pool fails every task
of every chunk in flight on it; the next submission closes the corpse
and reopens the pool once, and the failed tasks are re-dispatched there.
When several attempts finish at once they are settled in submission
order, so inline execution is fully deterministic (a ``duplicate``
fault's clone always loses).
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import InvalidParameterError, TaskFailedError
from repro.mapreduce.faults import FaultInjector, apply_fault
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "FaultPolicy",
    "RoundFaultStats",
    "dispatch",
    "run_chunk",
    "submit_inline",
]

_M_POOL_RESTARTS = _metrics.counter(
    "repro_pool_restarts_total", "Worker pools dropped and reopened after breaking"
)


@dataclass(frozen=True)
class FaultPolicy:
    """What the executor tolerates, and how hard it fights back.

    Parameters
    ----------
    max_retries:
        Re-dispatches allowed per task after its first attempt fails
        (so a task runs at most ``1 + max_retries`` times *due to
        failures*; speculative copies are budgeted separately).  ``0``
        turns retries off — the first failure is final.
    task_timeout:
        Per-attempt wall-clock budget in seconds.  An attempt running
        longer is abandoned and counted as a failure; on pool backends
        the retry dispatches immediately (the stuck attempt keeps its
        worker until it finishes — workers are never killed mid-task).
        ``None`` (default) disables timeouts.
    backoff, backoff_factor:
        Delay before the ``i``-th retry: ``backoff * backoff_factor**i``
        seconds.  Default no delay (local pools fail fast; backoff
        matters for a future remote transport).
    speculate_after:
        Straggler threshold in seconds: a task whose only attempt has
        been running this long gets a concurrent speculative copy.
        ``None`` (default) disables speculation.
    max_clones:
        Speculative copies allowed per task (on top of retries).
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff: float = 0.0
    backoff_factor: float = 2.0
    speculate_after: float | None = None
    max_clones: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InvalidParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff < 0 or self.backoff_factor < 0:
            raise InvalidParameterError("backoff terms must be >= 0")
        if self.speculate_after is not None and self.speculate_after <= 0:
            raise InvalidParameterError(
                f"speculate_after must be positive, got {self.speculate_after}"
            )
        if self.max_clones < 0:
            raise InvalidParameterError(
                f"max_clones must be >= 0, got {self.max_clones}"
            )

    def retry_delay(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based)."""
        return self.backoff * self.backoff_factor**retry_index


@dataclass
class RoundFaultStats:
    """Fault-tolerance accounting for one executor round.

    ``wasted_task_seconds`` totals the wall-clock of every attempt whose
    result did not make it into the round's output: failed attempts,
    timed-out attempts (charged their timeout), and losing speculative /
    duplicate copies — the price paid for resilience, kept separate from
    the winners' ``task_times`` so the paper-methodology timing stays
    clean.  The ``per_task_*`` lists align with the round's task order
    (``solve_many`` uses them for exact per-run summaries).
    """

    retries: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    wasted_task_seconds: float = 0.0
    faults_injected: int = 0
    per_task_retries: list[int] = field(default_factory=list)
    per_task_speculative_wins: list[int] = field(default_factory=list)
    per_task_wasted_seconds: list[float] = field(default_factory=list)

    @classmethod
    def for_tasks(cls, n: int) -> "RoundFaultStats":
        return cls(
            per_task_retries=[0] * n,
            per_task_speculative_wins=[0] * n,
            per_task_wasted_seconds=[0.0] * n,
        )

    def fold(self, other: "RoundFaultStats") -> None:
        """Accumulate ``other``'s counters (per-task lists are not kept)."""
        self.retries += other.retries
        self.speculative_launches += other.speculative_launches
        self.speculative_wins += other.speculative_wins
        self.wasted_task_seconds += other.wasted_task_seconds
        self.faults_injected += other.faults_injected


def run_chunk(calls: Sequence[Callable[[], Any]]) -> list[tuple[bool, Any, float]]:
    """Run one chunk where it lands: ``[(ok, value or exception, seconds)]``.

    Module-level, so a chunk of picklable tasks crosses a process
    boundary as one submission.  Each task is timed and fails alone.
    """
    out = []
    for call in calls:
        started = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # noqa: BLE001 - settled by the dispatch loop
            out.append((False, exc, time.perf_counter() - started))
        else:
            out.append((True, value, time.perf_counter() - started))
    return out


def submit_inline(fn: Callable, *args: Any) -> Future:
    """Run ``fn(*args)`` now, on the calling thread; return its settled future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:  # noqa: BLE001 - delivered through the future
        future.set_exception(exc)
    return future


class _Attempt(NamedTuple):
    """One submitted chunk: the attempt number of each task it carries."""

    seq: int
    indices: tuple[int, ...]
    attempts: tuple[int, ...]
    started: float
    speculative: bool


def dispatch(
    backend: Any,
    tasks: Sequence[Callable[[], Any]],
    policy: FaultPolicy | None = None,
    *,
    faults: FaultInjector | None = None,
    round_index: int = 0,
    stats: RoundFaultStats | None = None,
) -> tuple[list[Any], list[float]]:
    """Run ``tasks`` on ``backend`` under ``policy``; ``(results, seconds)``.

    ``faults`` is consulted per task of round ``round_index`` and the
    affected attempts are wrapped; ``stats`` (one entry per task)
    receives the round's fault accounting.
    """
    n = len(tasks)
    if not n:
        return [], []
    submit = getattr(backend, "submit", None) or submit_inline
    if stats is None:
        stats = RoundFaultStats.for_tasks(n)
    timeout = policy.task_timeout if policy is not None else None
    speculate = policy.speculate_after if policy is not None else None
    if timeout is None and speculate is None:
        workers = getattr(backend, "max_workers", None) or os.cpu_count() or 1
        size = math.ceil(n / (4 * workers))
    else:
        size = 1  # deadlines and speculation are per attempt
    tracer = _trace.current_tracer()
    driver_pid = os.getpid()
    planned = (
        [faults.fault_for(round_index, i) for i in range(n)]
        if faults is not None
        else [None] * n
    )
    results: list[Any] = [None] * n
    times = [0.0] * n
    resolved = [False] * n
    launched = [0] * n
    failures = [0] * n
    clones = [0] * n
    live = [0] * n
    inflight: dict[Future, _Attempt] = {}
    finished: queue.SimpleQueue = queue.SimpleQueue()
    order = itertools.count()
    unresolved = n

    def call_for(i: int, attempt: int) -> Callable[[], Any]:
        # The wrapper is a partial over a module-level function, so it
        # pickles whenever the task does; ``duplicate`` acts at launch.
        fault = planned[i]
        if fault is None or fault.kind == "duplicate" or not fault.affects(attempt):
            return tasks[i]
        stats.faults_injected += 1
        return partial(apply_fault, tasks[i], fault.kind, fault.seconds, driver_pid)

    def launch(indices: Sequence[int], speculative: bool = False) -> None:
        attempts = tuple(launched[i] for i in indices)
        calls = [call_for(i, a) for i, a in zip(indices, attempts)]
        for i in indices:
            launched[i] += 1
            live[i] += 1
        att = _Attempt(
            next(order), tuple(indices), attempts, time.perf_counter(), speculative
        )
        try:
            future = submit(run_chunk, calls)
        except BrokenExecutor:
            backend.close()  # drop the corpse; the resubmit reopens
            _M_POOL_RESTARTS.inc()
            future = submit(run_chunk, calls)
        inflight[future] = att
        future.add_done_callback(finished.put)

    def clone(i: int) -> None:
        stats.speculative_launches += 1
        clones[i] += 1
        launch((i,), speculative=True)

    def retire(future: Future) -> _Attempt:
        att = inflight.pop(future)
        for i in att.indices:
            live[i] -= 1
        return att

    def waste(att: _Attempt, i: int, attempt: int, seconds: float, reason: str) -> None:
        stats.wasted_task_seconds += seconds
        stats.per_task_wasted_seconds[i] += seconds
        _abandoned_span(tracer, i, attempt, att.started, seconds, reason, att.speculative)

    def failed(
        att: _Attempt, i: int, attempt: int, seconds: float, exc: BaseException
    ) -> None:
        """One attempt is gone: retry, defer to a live copy, or give up."""
        if policy is None:
            raise exc
        waste(att, i, attempt, seconds, type(exc).__name__)
        if resolved[i]:
            return  # a copy already won; this loser just cost time
        failures[i] += 1
        if live[i]:
            return  # another attempt is still running; let it race
        if failures[i] > policy.max_retries:
            error = TaskFailedError(
                f"task {i} failed after {launched[i]} attempt(s), "
                f"retry budget {policy.max_retries} exhausted: "
                f"{type(exc).__name__}: {exc}",
                task_index=i,
                attempts=launched[i],
            )
            raise error from exc
        stats.retries += 1
        stats.per_task_retries[i] += 1
        delay = policy.retry_delay(failures[i] - 1)
        if delay > 0:
            time.sleep(delay)
        launch((i,))

    def may_clone(i: int) -> bool:
        return (
            speculate is not None
            and not resolved[i]
            and live[i] == 1
            and clones[i] < policy.max_clones
        )

    def next_wait() -> float | None:
        """Seconds until the earliest deadline or speculation point."""
        if timeout is None and speculate is None:
            return None
        horizon = None
        for att in inflight.values():
            if timeout is not None:
                when = att.started + timeout
                horizon = when if horizon is None else min(horizon, when)
            if may_clone(att.indices[0]):
                when = att.started + speculate
                horizon = when if horizon is None else min(horizon, when)
        return None if horizon is None else max(0.0, horizon - time.perf_counter())

    try:
        for start in range(0, n, size):
            chunk = range(start, min(start + size, n))
            launch(chunk)
            for i in chunk:
                if planned[i] is not None and planned[i].kind == "duplicate":
                    clone(i)

        while unresolved:
            try:
                done = [finished.get(timeout=next_wait())]
            except queue.Empty:
                done = []
            while True:
                try:
                    done.append(finished.get_nowait())
                except queue.Empty:
                    break
            batch = sorted((retire(f), f) for f in done if f in inflight)
            for att, future in batch:
                try:
                    outcomes = future.result()
                except Exception as exc:  # noqa: BLE001 - broken pool, lost chunk
                    lost = time.perf_counter() - att.started
                    outcomes = [(False, exc, lost)] * len(att.indices)
                for i, attempt, (ok, value, seconds) in zip(
                    att.indices, att.attempts, outcomes
                ):
                    if ok and not resolved[i] and (timeout is None or seconds <= timeout):
                        resolved[i] = True
                        unresolved -= 1
                        results[i] = value
                        times[i] = seconds
                        if att.speculative:
                            stats.speculative_wins += 1
                            stats.per_task_speculative_wins[i] = 1
                    elif ok and resolved[i]:
                        waste(att, i, attempt, seconds, "deduplicated")
                    else:
                        if ok:  # completed, but over budget: it must not count
                            value = TimeoutError(
                                f"attempt took {seconds:.4g}s, over the "
                                f"per-task timeout of {timeout:.4g}s"
                            )
                        failed(att, i, attempt, seconds, value)

            if timeout is None and speculate is None:
                continue
            # Per-attempt policies dispatch one task per chunk.  Abandon
            # attempts past their deadline (cancelling is a no-op once
            # running — workers are never killed mid-task) and clone
            # lone stragglers.
            now = time.perf_counter()
            for future, att in list(inflight.items()):
                if future.done():
                    continue  # settled by its measured time next pass
                i, attempt, age = att.indices[0], att.attempts[0], now - att.started
                if timeout is not None and age > timeout:
                    future.cancel()
                    retire(future)
                    if resolved[i]:
                        waste(att, i, attempt, age, "overtaken")
                    else:
                        failed(
                            att, i, attempt, age,
                            TimeoutError(
                                f"attempt exceeded the per-task timeout "
                                f"of {timeout:.4g}s"
                            ),
                        )
                elif may_clone(i) and age > speculate:
                    clone(i)
    except BaseException:
        for future in inflight:
            future.cancel()
        raise

    # Every task answered: losing attempts still in flight are abandoned,
    # not awaited — a straggler must not delay the round it already lost.
    now = time.perf_counter()
    for future, att in inflight.items():
        future.cancel()
        for i, attempt in zip(att.indices, att.attempts):
            waste(att, i, attempt, now - att.started, "outpaced")
    return results, times


def _abandoned_span(
    tracer: "_trace.Tracer | None",
    index: int,
    attempt: int,
    started: float,
    seconds: float,
    reason: str,
    speculative: bool,
) -> None:
    """Record one losing attempt on the driver timeline.

    Losing attempts never fold their worker-side spans (their results are
    discarded before the commit point), so this driver-side ``attempt``
    span — annotated ``abandoned=True`` — is the only trace they leave.
    """
    if tracer is None:
        return
    tracer.emit(
        f"attempt[{index}]#{attempt}",
        cat="attempt",
        start=started,
        duration=seconds,
        task=index,
        attempt=attempt,
        abandoned=True,
        speculative=speculative,
        reason=reason,
    )
