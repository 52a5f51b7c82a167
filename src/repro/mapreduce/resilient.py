"""Fault-tolerant task execution: retries, timeouts, speculation.

:class:`ResilientExecutor` wraps any backend satisfying the
:class:`~repro.mapreduce.executor.Executor` protocol — Sequential,
ThreadPool or ProcessPool — and runs every batch through the same
dispatch loop the plain backends use (:func:`~repro.mapreduce.dispatch.dispatch`),
with its :class:`FaultPolicy` in place of the null policy:

* a failed task (exception, per-attempt timeout, lost result, broken
  worker pool) is **re-dispatched** up to ``max_retries`` times, with
  optional backoff, *without* poisoning the underlying persistent pool;
* a **straggler** task still running after ``speculate_after`` seconds
  gets a concurrent speculative copy; the first attempt to finish wins
  and the loser's result is discarded — results are **deduplicated by
  task index**, so exactly one result (and exactly one
  :class:`~repro.mapreduce.tasks.TaskOutput` with its evaluation
  count) survives per task, keeping round accounting exact;
* a task that exhausts its budget raises a structured
  :class:`~repro.errors.TaskFailedError` in bounded time — never a hang,
  never partial results.

The loop submits chunks of tasks, so a fault-free round costs what it
costs on the bare backend; a policy with a ``task_timeout`` or
``speculate_after`` dispatches one task per chunk, because deadlines
and speculation are per attempt.  An ``inner`` without ``submit`` runs
its tasks inline on the calling thread.

Correctness rests on the repo-wide task contract: reducer tasks are pure
and pre-seeded (randomness bound before scheduling), so re-execution —
even concurrent double execution — produces bit-identical values.  Under
any fault schedule the policy can absorb, a job's output is therefore
bit-identical to its fault-free run; only the timing fields differ.

Fault *injection* is strictly opt-in: pass a
:class:`~repro.mapreduce.faults.FaultInjector` (a
:class:`~repro.mapreduce.faults.FaultSchedule` or
:class:`~repro.mapreduce.faults.RandomFaults`) and the executor consults
it at dispatch time, wrapping the affected attempts.  Without one, the
wrapper reacts only to real failures.

Accounting: each :meth:`ResilientExecutor.run` call is one *round*; the
per-round :class:`RoundFaultStats` (retries, speculative launches/wins,
wasted task-seconds) is consumed by
:meth:`~repro.mapreduce.cluster.SimulatedCluster.run_round` via
:meth:`pop_round_stats` and lands in
:class:`~repro.mapreduce.accounting.RoundStats`; ``solve_many`` folds the
same numbers into its :class:`~repro.mapreduce.accounting.BatchSummary`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Sequence

from repro.errors import InvalidParameterError
from repro.mapreduce.dispatch import FaultPolicy, RoundFaultStats, dispatch
from repro.mapreduce.executor import Executor, SequentialExecutor
from repro.mapreduce.faults import FaultInjector
from repro.obs import metrics as _metrics

__all__ = ["FaultPolicy", "RoundFaultStats", "ResilientExecutor"]

_M_RETRIES = _metrics.counter(
    "repro_task_retries_total", "Task attempts re-dispatched after a failure"
)
_M_SPEC_LAUNCHES = _metrics.counter(
    "repro_speculative_launches_total",
    "Speculative / duplicate task copies launched",
)
_M_SPEC_WINS = _metrics.counter(
    "repro_speculative_wins_total", "Rounds won by a speculative copy"
)
_M_WASTED = _metrics.counter(
    "repro_wasted_task_seconds_total",
    "Wall-clock seconds spent on attempts whose results were discarded",
)
_M_FAULTS = _metrics.counter(
    "repro_faults_injected_total", "Faults injected by a configured injector"
)


class ResilientExecutor:
    """Fault-tolerant wrapper composing with any :class:`Executor` backend.

    Satisfies the ``Executor`` protocol itself (``run``, lifecycle,
    ``crosses_process_boundary``), so it drops into every slot a bare
    backend fits: a MapReduce solver's ``executor=`` knob, the
    ``solve_many`` fan-out, the serve scheduler's warm pool.

    Parameters
    ----------
    inner:
        The backend that actually executes tasks (default
        :class:`~repro.mapreduce.executor.SequentialExecutor`).  Its
        ``submit`` receives the loop's chunks; pool backends run them on
        their persistent pool.
    policy:
        The :class:`FaultPolicy` to enforce (default: 2 retries, no
        timeout, no speculation).
    faults:
        Optional :class:`~repro.mapreduce.faults.FaultInjector` for
        deterministic chaos testing.  ``None`` in production.
    """

    def __init__(
        self,
        inner: Executor | None = None,
        policy: FaultPolicy | None = None,
        faults: FaultInjector | None = None,
    ):
        if isinstance(inner, ResilientExecutor):
            raise InvalidParameterError(
                "nesting ResilientExecutor inside ResilientExecutor would "
                "multiply retry budgets; wrap the innermost backend once"
            )
        self.inner: Executor = inner if inner is not None else SequentialExecutor()
        self.policy = policy if policy is not None else FaultPolicy()
        self.faults = faults
        self.totals = RoundFaultStats()
        # The serve scheduler drives one wrapper from several dispatch
        # threads at once: round numbering is an atomic counter and the
        # run -> pop_round_stats hand-off is thread-local, so concurrent
        # batches cannot swap accounting.  ``totals`` folds under a lock.
        self._round_counter = itertools.count()
        self._tls = threading.local()
        self._totals_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle: delegate to the wrapped backend
    # ------------------------------------------------------------------ #
    @property
    def crosses_process_boundary(self) -> bool:
        return bool(getattr(self.inner, "crosses_process_boundary", False))

    def open(self) -> "ResilientExecutor":
        if hasattr(self.inner, "open"):
            self.inner.open()
        return self

    def close(self) -> None:
        if hasattr(self.inner, "close"):
            self.inner.close()

    def __enter__(self) -> "ResilientExecutor":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # accounting hand-off
    # ------------------------------------------------------------------ #
    def pop_round_stats(self) -> RoundFaultStats | None:
        """The most recent round's fault stats, consumed exactly once.

        :meth:`~repro.mapreduce.cluster.SimulatedCluster.run_round` calls
        this right after :meth:`run` to stamp the retry/speculation
        numbers onto that round's
        :class:`~repro.mapreduce.accounting.RoundStats`.  Thread-local:
        it returns the stats of the last ``run`` made by the *calling*
        thread, so concurrent callers sharing one wrapper each see their
        own round.
        """
        stats = getattr(self._tls, "last_round", None)
        self._tls.last_round = None
        return stats

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]:
        round_index = next(self._round_counter)
        stats = RoundFaultStats.for_tasks(len(tasks))
        self._tls.last_round = stats
        try:
            return dispatch(
                self.inner,
                tasks,
                self.policy,
                faults=self.faults,
                round_index=round_index,
                stats=stats,
            )
        finally:
            with self._totals_lock:
                self.totals.fold(stats)
            if _metrics.REGISTRY.enabled:
                if stats.retries:
                    _M_RETRIES.inc(stats.retries)
                if stats.speculative_launches:
                    _M_SPEC_LAUNCHES.inc(stats.speculative_launches)
                if stats.speculative_wins:
                    _M_SPEC_WINS.inc(stats.speculative_wins)
                if stats.wasted_task_seconds:
                    _M_WASTED.inc(stats.wasted_task_seconds)
                if stats.faults_injected:
                    _M_FAULTS.inc(stats.faults_injected)
