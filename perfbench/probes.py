"""Measuring the layers from outside: a pass-through executor, wrapped
public functions, and self-time analysis of ``repro.obs`` spans.

Nothing here edits the program.  :class:`TimedExecutor` is an ordinary
:class:`~repro.mapreduce.executor.Executor` that forwards to the real
backend; :func:`install_wrappers` replaces three public callables with
pass-through versions that record a ``bench`` span around each call
(``repro.store.shm.publish_points`` / ``SharedPoints.unpublish`` for the
shm publish, ``ShardedStream.read_chunk`` for shard reads).  Spans go to
the ambient tracer, so a wrapper running inside a pool worker rides back
to the driver with the task's own spans.  Wrappers must be installed
before the pool forks its workers.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Sequence

from repro.obs import trace as _trace


class TimedExecutor:
    """Pass-through :class:`~repro.mapreduce.executor.Executor` that times
    each ``run`` call (one per MapReduce round).

    ``crosses_process_boundary`` and the ``open``/``close`` lifecycle are
    forwarded explicitly: solvers read the former to decide whether to
    publish a space to shared memory, so a wrapper without it would
    silently measure a different program.
    """

    def __init__(self, inner: Any):
        self.inner = inner
        self.crosses_process_boundary = bool(
            getattr(inner, "crosses_process_boundary", False)
        )
        self.round_walls: list[float] = []

    def run(self, tasks: Sequence[Callable[[], Any]]):
        start = time.perf_counter()
        with _trace.span("executor.run", cat="bench", tasks=len(tasks)):
            out = self.inner.run(tasks)
        self.round_walls.append(time.perf_counter() - start)
        return out

    def open(self) -> "TimedExecutor":
        self.inner.open()
        return self

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "TimedExecutor":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getattr__(self, name: str) -> Any:
        # Optional hooks (``pop_round_stats``, ``submit``...) of the backend.
        return getattr(self.inner, name)


def _spanned(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _trace.span(name, cat="bench"):
            return fn(*args, **kwargs)

    return wrapper


def install_wrappers() -> None:
    """Wrap the publish and shard-read entry points (idempotent)."""
    from repro.store import shm, sharded

    targets = [
        (shm, "publish_points", "store.publish"),
        (shm.SharedPoints, "unpublish", "store.unpublish"),
        (sharded.ShardedStream, "read_chunk", "store.chunk_read"),
    ]
    for owner, attr, span_name in targets:
        fn = getattr(owner, attr)
        if not hasattr(fn, "__wrapped__"):
            setattr(owner, attr, _spanned(fn, span_name))


# ---------------------------------------------------------------------- #
# span self-times
# ---------------------------------------------------------------------- #
def _union(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _inside(child, parent) -> tuple[float, float] | None:
    start = max(child.start, parent.start)
    end = min(child.start + child.duration, parent.start + parent.duration)
    return (start, end) if end > start else None


def _covered(parent, children) -> float:
    return _union(
        iv for iv in (_inside(c, parent) for c in children) if iv is not None
    )


def span_layers(spans) -> dict[str, float]:
    """Self-times of one traced solve's ``solve`` → ``round`` → ``task``
    tree, plus the totals of the benchmark's own wrapper spans.

    A span's self time is its duration minus the part of it its child
    spans cover.  Task spans run on pool workers in parallel; their
    union, not their sum, is what covers a round.
    """
    (solve,) = [s for s in spans if s.cat == "solve"]
    rounds = [s for s in spans if s.cat == "round"]
    tasks = [s for s in spans if s.cat == "task"]
    bench = [s for s in spans if s.cat == "bench"]
    round_cover = _covered(solve, rounds)
    round_self = sum(r.duration - _covered(r, tasks) for r in rounds)
    task_self = 0.0
    for t in tasks:
        inner = [b for b in bench if b.pid == t.pid and b.tid == t.tid]
        task_self += t.duration - _covered(t, inner)
    return {
        "solve_s": solve.duration,
        "span_coverage": round_cover / solve.duration,
        "solve_self_s": solve.duration - round_cover,
        "round_self_s": round_self,
        "task_self_s": task_self,
        "chunk_read_s": sum(b.duration for b in bench if b.name == "store.chunk_read"),
        "publish_s": sum(b.duration for b in bench
                         if b.name in ("store.publish", "store.unpublish")),
        "publishes": sum(1 for b in bench if b.name == "store.publish"),
    }
