"""Zero-copy transport of in-memory spaces into process-pool workers.

The process backend pickles every task, and a task over an in-memory
space would otherwise drag the space's defining array (the ``(n, d)``
coordinates of a :class:`~repro.metric.euclidean.EuclideanSpace`, the
``(n, n)`` matrix of a :class:`~repro.metric.precomputed.PrecomputedSpace`)
through the pipe — once per task, every round.  This module removes the
copy: the driver **publishes** the array a space names in
:attr:`~repro.metric.base.MetricSpace.shared_array` once per job into a
named :mod:`multiprocessing.shared_memory` segment, and the space then
pickles as a tiny :class:`SharedPoints` *handle*; workers attach to the
segment by name and map the same physical pages read-only.  This is the
only route an in-memory space takes into a process worker.  Out-of-core
spaces never needed it — their streams already pickle by re-opening
files (``MemmapStream.__reduce__``, shard directories) — so each backing
crosses the boundary by reference, never by value.

Mechanics and guarantees:

* **Publish once, attach once.**  :func:`shared_space` publishes at job
  start and unlinks in its ``finally``; workers cache attachments per
  process (a small LRU), so a 50-task round costs 50 handle pickles
  (~100 bytes each) and at most one attach + one squared-norm pass per
  worker — not 50 coordinate copies.
* **Same bits.**  The segment holds the exact float64 bytes of the
  published array; Euclidean workers recompute the cached squared norms with the
  same ``einsum`` the driver ran, so every kernel sees identical inputs
  and the executor-parity contract (bit-identical centers, radius,
  dist_evals) is untouched.
* **Spill fallback.**  When creating the segment fails (no POSIX shared
  memory, or a ``/dev/shm`` too small for the block, as in many
  containers) the block spills into a temporary ``.npy`` that workers
  memory-map — still one copy on disk instead of one per task.
* **Cleanup.**  The driver owns the segment: handles unpublish in the
  job's ``finally`` and an ``atexit`` sweep catches anything a crashed
  run left behind.  Attached workers keep their mapping valid after the
  unlink (POSIX semantics); their cached attachments are dropped LRU-so
  long-lived persistent pools do not accumulate dead segments.
"""

from __future__ import annotations

import atexit
import copy
import os
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.obs import trace as _trace

__all__ = ["SharedPoints", "publish_points", "shared_space"]

#: Worker-side attachment cache size (segments, not bytes).  A worker in
#: a long-lived persistent pool sees one segment per job; keeping a few
#: lets interleaved batches share attachments while bounding how long a
#: dead segment's pages stay mapped.
_MAX_ATTACHED = 8

# name/path -> cache entry {"points": ndarray, "sq": ndarray | None, "seg": ...}
_attached: OrderedDict[str, dict] = OrderedDict()

# token -> SharedMemory segment published (and so owned) by this process.
_published: dict[str, object] = {}


def _attach_segment(token: str):
    """Open an existing segment *without* claiming ownership of it.

    Python 3.13's ``track=False`` tells the resource tracker this process
    merely attaches.  On older interpreters attaching registers the name
    a second time; with fork-started pools (Linux default) workers share
    the driver's tracker process and the set-typed registry makes the
    duplicate harmless — the driver's ``unlink`` unregisters it exactly
    once.  (Spawn-started workers on old interpreters own a separate
    tracker and may print a benign "leaked shared_memory" notice at
    exit; there is no portable pre-3.13 fix that does not race the
    owner's registration.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=token, track=False)
    except TypeError:  # Python < 3.13: no track= keyword
        return shared_memory.SharedMemory(name=token)


class SharedPoints:
    """Picklable handle to one published ``(n, d)`` float64 block.

    ``kind`` is ``"shm"`` (a named shared-memory segment) or ``"spill"``
    (a temporary ``.npy`` file).  The handle is plain data — pickling it
    moves ~100 bytes regardless of ``n`` — and both sides resolve it
    through a per-process cache, so repeated attachment is free.
    """

    __slots__ = ("kind", "token", "shape")

    def __init__(self, kind: str, token: str, shape: tuple[int, int]):
        self.kind = kind
        self.token = token
        self.shape = (int(shape[0]), int(shape[1]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedPoints({self.kind}:{self.token}, shape={self.shape})"

    def __getstate__(self):
        return (self.kind, self.token, self.shape)

    def __setstate__(self, state):
        self.kind, self.token, self.shape = state

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def attach(self) -> np.ndarray:
        """The published block, mapped read-only (cached per process)."""
        return self._entry()["points"]

    def attach_with_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """The block plus its per-row squared norms (both cached).

        The norms are computed once per process with the same
        ``einsum("ij,ij->i")`` the in-memory space runs at construction,
        over the same bytes — bit-identical inputs for the GEMM kernels.
        """
        entry = self._entry()
        if entry["sq"] is None:
            pts = entry["points"]
            entry["sq"] = np.einsum("ij,ij->i", pts, pts)
        return entry["points"], entry["sq"]

    def _entry(self) -> dict:
        entry = _attached.get(self.token)
        if entry is not None:
            _attached.move_to_end(self.token)
            return entry
        if self.kind == "shm":
            seg = _attach_segment(self.token)
            points = np.ndarray(self.shape, dtype=np.float64, buffer=seg.buf)
        else:
            seg = None
            points = np.load(self.token, mmap_mode="r")
        points.flags.writeable = False
        entry = {"points": points, "sq": None, "seg": seg}
        _attached[self.token] = entry
        while len(_attached) > _MAX_ATTACHED:
            _, old = _attached.popitem(last=False)
            seg_old = old.get("seg")
            if seg_old is not None:
                try:
                    seg_old.close()
                except BufferError:  # pragma: no cover - still referenced
                    pass  # a task still holds views; GC reclaims later
        return entry

    # ------------------------------------------------------------------ #
    # owner side
    # ------------------------------------------------------------------ #
    def unpublish(self) -> None:
        """Release the published block (owner side; idempotent).

        Unlinks the shared-memory segment or deletes the spill file.
        Workers that already attached keep a valid mapping (POSIX keeps
        the pages until the last map closes); new attachments fail, as
        they should once the job is over.
        """
        if self.kind == "shm":
            seg = _published.pop(self.token, None)
            if seg is not None:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        else:
            _published.pop(self.token, None)
            try:
                os.unlink(self.token)
            except FileNotFoundError:
                pass
        # Drop any local attachment too (the driver may have round-tripped
        # its own handle through a sequential fallback).
        _attached.pop(self.token, None)


def publish_points(points: np.ndarray) -> SharedPoints:
    """Publish a 2-D float64 block for zero-copy worker attachment.

    Copies ``points`` once into a fresh named segment (or, when creating
    the segment fails, into a temporary ``.npy``) and returns the handle.
    The caller owns the handle and must :meth:`~SharedPoints.unpublish`
    it (use :func:`shared_space` for scoped ownership).
    """
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {arr.shape}")
    try:
        return _publish_shm(arr)
    except (OSError, ValueError):  # no /dev/shm, or segment too large
        return _publish_spill(arr)


def _publish_shm(arr: np.ndarray) -> SharedPoints:
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    try:
        view = np.ndarray(arr.shape, dtype=np.float64, buffer=seg.buf)
        view[...] = arr
    except BaseException:  # pragma: no cover - copy cannot realistically fail
        seg.close()
        seg.unlink()
        raise
    _published[seg.name] = seg
    return SharedPoints("shm", seg.name, arr.shape)


def _publish_spill(arr: np.ndarray) -> SharedPoints:
    fd, path = tempfile.mkstemp(prefix="repro-shm-spill-", suffix=".npy")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, arr)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    _published[path] = None  # owned token; value unused for spill files
    return SharedPoints("spill", path, arr.shape)


@atexit.register
def _cleanup_published() -> None:  # pragma: no cover - interpreter teardown
    """Last-chance sweep: unlink anything a run failed to unpublish."""
    for token, seg in list(_published.items()):
        try:
            if seg is not None:
                seg.close()
                seg.unlink()
            else:
                os.unlink(token)
        except Exception:
            pass
        _published.pop(token, None)


@contextmanager
def shared_space(space, executor) -> Iterator:
    """Scope in which ``space`` crosses process boundaries by reference.

    When ``executor`` advertises ``crosses_process_boundary`` and
    ``space`` names a :attr:`~repro.metric.base.MetricSpace.shared_array`,
    publishes that array and yields a shallow clone whose pickling ships
    a :class:`SharedPoints` handle instead of the array; otherwise yields
    ``space`` unchanged (sequential and thread backends share memory
    natively, out-of-core spaces re-open their backing).  The published segment lives exactly as long as the
    ``with`` block — error paths included — which is the solver-job /
    batch lifetime.
    """
    handle = None
    out = space
    if (
        getattr(executor, "crosses_process_boundary", False)
        and space.shared_array is not None
        and space._shared is None
    ):
        array = getattr(space, space.shared_array)
        with _trace.span("publish", cat="driver", bytes=int(array.nbytes)):
            handle = publish_points(array)
        out = copy.copy(space)
        out._shared = handle
    try:
        yield out
    finally:
        if handle is not None:
            handle.unpublish()
