"""Task executors: how a round's reducer tasks actually run.

:class:`SequentialExecutor` (default) reproduces the paper's methodology —
tasks run one after another on the driver, each individually wall-clocked;
the round's *simulated parallel* time is the max.  This is also the honest
choice under CPython's GIL (repro note: "GIL hampers true multicore
speedup measurement"): simulated timing measures algorithmic work, not
interpreter contention.

:class:`ProcessPoolExecutorBackend` runs tasks in worker processes for real
multicore execution.  Tasks must then be picklable top-level callables —
which every solver's round tasks are by construction: each is a
:class:`~repro.mapreduce.tasks.TaskSpec` over a module-level function
whose space argument re-opens its backing (memmap, shard directory,
generator) or re-attaches its published shared-memory block (see
:mod:`repro.store.shm`) in the worker, and whose evaluation counts
return to the driver in a :class:`~repro.mapreduce.tasks.TaskOutput`.
The per-task times it reports include IPC overhead, so the
paper-reproduction *figures* stay on the sequential methodology, while
``benchmarks/bench_perf.py`` carries explicit process-backend cells so
that overhead is measured — the backend wins for downstream users with
many cores and large shards, where the BLAS-bound kernels dominate
pickling costs.

:class:`ThreadPoolExecutorBackend` runs tasks in a thread pool: shared
memory, no pickling, no process spawn.  CPython's GIL serialises the pure
Python parts, but the distance kernels spend their time inside NumPy/BLAS
calls that release the GIL, so BLAS-heavy shards overlap for real — the
sweet spot between the honest sequential methodology and full process
isolation.  Results are bit-identical to the other backends (seeds are
bound before scheduling); only the reported per-task times differ, as they
include whatever GIL contention the pure-Python sections see.  Tasks
sharing one space share its :class:`~repro.metric.base.DistCounter`;
its tally is lock-guarded, so hand-rolled task lists hammering one
counter stay exact (``solve_many`` additionally gives each run a private
counter so per-run records are scheduling-independent, not merely
race-free).

Dispatch.  A backend is a ``submit`` plus, for the pools, a lifecycle:
every backend's :meth:`run` is the one loop of
:mod:`repro.mapreduce.dispatch` under the null policy (no retries, no
deadline, no speculation — a failing task raises its own exception).
The loop submits chunks of ``ceil(n / (4 * workers))`` tasks, so a
round of many small reducer tasks costs a handful of round-trips;
results still come back in task order, one wall-clock per task.

Lifecycle.  Both pool backends are **persistent**: the underlying
``concurrent.futures`` pool is created on the first submission (or
eagerly via :meth:`open`) and *reused* by every later ``run`` until
:meth:`close` — so a multi-round MapReduce job
(:class:`~repro.mapreduce.cluster.SimulatedCluster` calls ``run`` once
per round) and repeated ``solve_many`` batches pay the worker spawn cost
once, not once per round.  Opening and closing are serialised by a lock,
so threads submitting to a cold backend at once share one pool.  The
backends are context managers (``with ProcessPoolExecutorBackend(4) as
ex: ...`` closes the pool on exit, error paths included), ``close`` is
idempotent and a closed backend transparently re-opens on its next
submission.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Protocol, Sequence

from repro.mapreduce.dispatch import dispatch, submit_inline

__all__ = [
    "Executor",
    "SequentialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "run_task",
]


class Executor(Protocol):
    """Runs a batch of zero-argument tasks; returns (results, seconds) lists.

    ``run`` is the whole required surface.  The built-in backends also
    expose ``submit(fn, *args) -> Future`` (the hook the dispatch loop and
    :class:`~repro.mapreduce.resilient.ResilientExecutor` drive) and the
    optional lifecycle — ``open()``, ``close()``, context-manager
    enter/exit — and backends whose tasks execute in another process
    advertise it with a truthy ``crosses_process_boundary`` class
    attribute, which the solvers use to decide when publishing a space to
    shared memory is worth it (:mod:`repro.store.shm`).
    """

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]: ...


def run_task(task: Callable[[], Any]) -> tuple[Any, float]:
    """Execute one task, returning ``(result, wall_seconds)``."""
    t0 = time.perf_counter()
    result = task()
    return result, time.perf_counter() - t0


class _Backend:
    """What every built-in backend shares: ``run`` is the dispatch loop,
    and the lifecycle defaults to no-ops."""

    crosses_process_boundary = False

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]:
        return dispatch(self, tasks)

    def open(self):
        return self

    def close(self) -> None:
        pass

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialExecutor(_Backend):
    """Run tasks one by one on the calling thread (paper methodology).

    Holds no resources; ``open``/``close``/context-manager are provided
    as no-ops so callers can drive any backend through one lifecycle.
    """

    max_workers = 1

    def submit(self, fn: Callable, *args: Any) -> Future:
        """Run ``fn(*args)`` inline; return its already-completed future."""
        return submit_inline(fn, *args)


class _PoolBackend(_Backend):
    """Shared lifecycle of the thread- and process-pool backends.

    Subclasses set :attr:`_pool_factory` (a ``concurrent.futures``
    executor class).
    """

    _pool_factory: type  # ThreadPoolExecutor | ProcessPoolExecutor

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._pool = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open(self):
        """Create the worker pool now (idempotent).  Returns ``self``."""
        self._live_pool()
        return self

    def close(self) -> None:
        """Shut the pool down and join its workers (idempotent).

        The backend remains usable: the next submission re-opens a
        fresh pool.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def is_open(self) -> bool:
        """Whether a live worker pool is currently attached."""
        return self._pool is not None

    def __del__(self):  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def __getstate__(self):
        # Live pools cannot cross a pickle boundary (nested fan-out, e.g.
        # a per-entry executor knob inside a process-pool batch); the
        # copy arrives closed and re-opens lazily on its side.
        state = self.__dict__.copy()
        state["_pool"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _make_pool(self):
        return self._pool_factory(max_workers=self.max_workers)

    def _live_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def submit(self, fn: Callable, *args: Any) -> Future:
        """Submit ``fn(*args)`` to the persistent pool (opening it if
        needed), without waiting."""
        return (self._pool or self._live_pool()).submit(fn, *args)


class ThreadPoolExecutorBackend(_PoolBackend):
    """Run tasks in a thread pool (shared memory; BLAS kernels overlap).

    Tasks need not be picklable, and the input space is shared rather
    than copied into workers, so this backend has near-zero dispatch
    overhead.  Real speedup is bounded by how much time the tasks spend
    in GIL-releasing kernels (vector distance computations); pure-Python
    control flow serialises.

    Parameters
    ----------
    max_workers:
        Worker thread count; ``None`` lets the pool pick its default.
    """

    _pool_factory = ThreadPoolExecutor


class ProcessPoolExecutorBackend(_PoolBackend):
    """Run tasks in a process pool (real parallelism; tasks must pickle).

    Each chunk the dispatch loop submits is one IPC round-trip; the
    per-task wall-clocks are measured inside the worker.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` lets the pool pick (CPU count).
    """

    _pool_factory = ProcessPoolExecutor
    crosses_process_boundary = True
