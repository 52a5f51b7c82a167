"""Abstract metric-space interface used by every algorithm in :mod:`repro.core`.

Algorithms address points by **integer index** into a space.  A space knows
how to compute distances between indexed subsets with bounded memory, and it
counts every scalar distance evaluation it performs in a shared
:class:`DistCounter` — the raw material for validating the paper's Table 1
operation-count asymptotics.

Two access patterns matter:

* *global index arrays* — EIM keeps its sets R, S, H as index arrays into
  one parent space and computes cross-set distances;
* *local views* — MRG hands each simulated machine its own partition; the
  machine materialises a compact :meth:`MetricSpace.local` view once and
  then runs Gonzalez over contiguous local data (no repeated fancy
  indexing inside the O(kn) loop).
"""

from __future__ import annotations

import abc
import copy
import hashlib
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import MetricError

__all__ = [
    "DistCounter",
    "TaskCounter",
    "MetricSpace",
    "Publishable",
    "as_index_array",
    "content_fingerprint",
]


def content_fingerprint(tag: str, blocks: Iterable[np.ndarray]) -> str:
    """Digest-based space fingerprint: ``tag`` + the raw data bytes.

    ``tag`` must encode everything besides the data that determines the
    distances — metric family, metric parameters, shape, dtype — and
    ``blocks`` must cover the defining array in canonical row-major,
    row-partitioned order, so a chunked backing and a monolithic backing
    of equal data produce equal fingerprints.
    """
    h = hashlib.blake2b(tag.encode("utf-8"), digest_size=16)
    for block in blocks:
        h.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return f"{tag}:{h.hexdigest()}"


@dataclass
class DistCounter:
    """Mutable tally of scalar distance evaluations.

    Shared between a parent space and all local views derived from it, so a
    whole algorithm run accumulates into one place.  Updates are
    lock-guarded: a space (and therefore its counter) may be shared by
    thread-pool tasks, and an unguarded ``+=`` loses increments when two
    threads interleave between the read and the write — totals must be
    exact, they are the paper's operation counts.  The lock is uncontended
    in sequential runs and is taken once per kernel *block*, not per
    scalar evaluation, so the guard costs nothing measurable.  Counters
    owned by exactly one task for their whole lifetime (machine views,
    per-run batch counters) use the lock-free :class:`TaskCounter`
    subclass instead and pay one lock acquisition per *task*, when the
    driver folds their total into the shared counter.

    ``cache_hits`` / ``cache_misses`` record whether a run's space was
    served from a shared :class:`~repro.store.cache.DistanceCache` (a hit
    reuses a precomputed matrix; ``evals`` still counts the *logical*
    distance evaluations, so operation-count records are cache-invariant).
    """

    evals: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle (process-pool tasks)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        with self._lock:
            self.evals += int(n)

    def count_cache(self, hit: bool) -> None:
        """Record one distance-cache lookup (hit or miss), lock-guarded
        like :meth:`add` so shared counters stay exact under threads."""
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def reset(self) -> None:
        with self._lock:
            self.evals = 0
            self.cache_hits = 0
            self.cache_misses = 0


class TaskCounter(DistCounter):
    """Lock-free :class:`DistCounter` for **single-owner** accounting.

    A reducer task's machine view (see :func:`repro.store.machine_view`)
    is only ever touched by the one task that owns it; its total travels
    back to the driver explicitly
    (:class:`~repro.mapreduce.tasks.TaskOutput`) and is folded into
    the shared counter there — **one** lock acquisition per task,
    instead of one per kernel block.  Dropping the per-block lock is
    safe precisely because of that ownership contract: nothing else can
    observe the counter while the task runs.  Every MapReduce solver's
    round tasks work this way (EIM's shadow-space tasks included, since
    the :class:`~repro.mapreduce.tasks.TaskSpec` refactor hoisted its
    closures to task-private bodies).

    Do *not* use a TaskCounter anywhere several threads can reach it.
    Tasks evaluating distances against one genuinely shared space need
    the locked parent class to keep
    totals exact — and so does a ``solve_many`` run's private counter
    (``_run_one`` deliberately creates a locked ``DistCounter``): a
    per-entry *thread* executor makes that run's own reducer tasks hit
    the run counter concurrently, the very race the lock closes.
    """

    def add(self, n: int) -> None:
        self.evals += int(n)

    def count_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def reset(self) -> None:
        self.evals = 0
        self.cache_hits = 0
        self.cache_misses = 0


def as_index_array(idx, n: int, name: str = "indices") -> np.ndarray:
    """Validate an index array against a space of size ``n``."""
    arr = np.asarray(idx, dtype=np.intp)
    if arr.ndim != 1:
        raise MetricError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= n:
            raise MetricError(
                f"{name} out of range: values in [{lo}, {hi}] for a space of size {n}"
            )
    return arr


class Publishable:
    """An object that can cross into process workers by a published handle.

    :func:`repro.store.shm.shared_space` asks the job's space for
    :meth:`shared_data`, publishes that array once per job, and hands the
    workers :meth:`with_shared`'s clone, which pickles the handle in place
    of the array.  Metric spaces and point streams both inherit this, so
    an in-memory array crosses by reference whether a space holds it
    directly or through an :class:`~repro.store.stream.ArrayStream`.
    """

    #: Name of the in-memory float64 array that defines this object.
    #: ``None``: there is no such array (out-of-core data re-opens its
    #: backing in the worker).
    shared_array: str | None = None

    #: Handle of the published array while inside a ``shared_space``
    #: scope; pickling then ships the handle instead of the array.
    _shared = None

    def shared_data(self) -> np.ndarray | None:
        """The array to publish, or ``None`` (none, or already published)."""
        if self.shared_array is None or self._shared is not None:
            return None
        return getattr(self, self.shared_array)

    def with_shared(self, handle) -> "Publishable":
        """A shallow clone that pickles ``handle`` in place of its array."""
        clone = copy.copy(self)
        clone._shared = handle
        return clone

    def __getstate__(self):
        state = self.__dict__.copy()
        if self._shared is not None:
            state[self.shared_array] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._shared is not None:
            setattr(self, self.shared_array, self._shared.attach())


class MetricSpace(Publishable, abc.ABC):
    """A finite metric space over points addressed by index ``0..n-1``.

    Concrete subclasses implement the block primitives; all are required to
    honour the metric axioms (see :func:`repro.metric.validation.check_metric_axioms`).

    Index arguments ``i_idx`` / ``j_idx`` are 1-D integer arrays, or ``None``
    meaning *all points* (an important fast path: no fancy-indexing copy).
    """

    def __init__(self, n: int, counter: DistCounter | None = None):
        if n < 0:
            raise MetricError(f"space size must be >= 0, got {n}")
        self._n = int(n)
        self.counter = counter if counter is not None else DistCounter()

    def release(self) -> None:
        """Drop per-view caches once a task is done with this space
        (nothing to drop for in-memory spaces)."""

    # ------------------------------------------------------------------ #
    # size / identity
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of points in the space."""
        return self._n

    def __len__(self) -> int:
        return self._n

    def _check(self, idx, name: str) -> np.ndarray | None:
        if idx is None:
            return None
        return as_index_array(idx, self._n, name)

    def _size(self, idx: np.ndarray | None) -> int:
        return self._n if idx is None else len(idx)

    def fingerprint(self) -> str | None:
        """Content-based identity of this space, or ``None`` if unknowable.

        Two spaces with equal fingerprints must produce bit-identical
        distances, so derived artifacts (e.g. a cached distance matrix in
        :class:`~repro.store.cache.DistanceCache`) can be shared between
        separately-constructed instances.  Subclasses with access to their
        defining data (coordinates, a distance matrix) override
        :meth:`_compute_fingerprint` with a digest over metric parameters,
        shape, dtype and data bytes; the base implementation returns
        ``None``, telling consumers to fall back to object identity.

        The digest is computed once per instance (a space's data is
        immutable by contract), so repeated cache lookups stay O(1).
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            fp = self._compute_fingerprint()
            if fp is not None:
                self._fingerprint = fp
        return fp

    def _compute_fingerprint(self) -> str | None:
        return None

    # ------------------------------------------------------------------ #
    # abstract block primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def dists_to(self, i_idx: np.ndarray | None, j: int) -> np.ndarray:
        """Distances from points ``i_idx`` (or all) to the single point ``j``."""

    @abc.abstractmethod
    def cross(self, i_idx: np.ndarray | None, j_idx: np.ndarray | None) -> np.ndarray:
        """Dense ``(|I|, |J|)`` distance matrix; guarded against blow-up."""

    @abc.abstractmethod
    def update_min_dists(
        self,
        current: np.ndarray,
        i_idx: np.ndarray | None,
        j_idx: np.ndarray | None,
    ) -> np.ndarray:
        """Fold reference points ``j_idx`` into the running minima ``current``.

        ``current[t] = min(current[t], d(I[t], j) for j in J)``, in place.
        """

    @abc.abstractmethod
    def nearest(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest reference for each query point.

        Returns ``(pos, dist)`` where ``pos[t]`` is the *position within
        j_idx* of the nearest reference to query ``t`` and ``dist[t]`` its
        distance.  ``j_idx`` must be non-empty.
        """

    @abc.abstractmethod
    def local(self, i_idx: np.ndarray) -> "MetricSpace":
        """Compact sub-space over ``i_idx`` (re-indexed ``0..len(i_idx)-1``).

        Shares this space's :class:`DistCounter`.
        """

    # ------------------------------------------------------------------ #
    # derived conveniences
    # ------------------------------------------------------------------ #
    def dist(self, i: int, j: int) -> float:
        """Scalar distance between points ``i`` and ``j``."""
        return float(
            self.dists_to(np.asarray([i], dtype=np.intp), int(j))[0]
        )

    def min_dists(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> np.ndarray:
        """Distance from each point of I to its nearest point of J."""
        if self._size(self._check(j_idx, "j_idx")) == 0:
            raise MetricError("min_dists requires a non-empty reference set")
        out = np.full(self._size(self._check(i_idx, "i_idx")), np.inf)
        return self.update_min_dists(out, i_idx, j_idx)

    def covering_radius(
        self, center_idx: np.ndarray, i_idx: np.ndarray | None = None
    ) -> float:
        """Max over points (of I, default all) of distance to nearest center."""
        d = self.min_dists(i_idx, center_idx)
        return float(d.max()) if d.size else 0.0
