"""Shared distance-matrix cache for repeated small-space solves.

``solve_many`` runs every (algorithm, seed) cell of a batch against the
*same* space, and experiment grids revisit the same space across many
cells — each run re-deriving the same distances from scratch.  For spaces
small enough that the full ``(n, n)`` matrix is affordable,
:class:`DistanceCache` computes it once and hands every subsequent run a
:class:`~repro.metric.precomputed.PrecomputedSpace` view over the shared
matrix.

Accounting is unchanged by design: the precomputed view charges the same
``|I| * |J|`` scalar-evaluation tariff to its
:class:`~repro.metric.base.DistCounter` as the coordinate space would, so
per-run ``dist_evals`` records — the paper's operation counts — are
identical with and without the cache.  Cache effectiveness is tracked
separately: the cache's own :attr:`hits`/:attr:`misses` totals, and the
per-run ``cache_hits``/``cache_misses`` fields on ``DistCounter``.

Numerics: the matrix is built through the space's own ``cross`` kernel
(then diagonal-zeroed — ``d(i, i) = 0`` exactly, where the GEMM expansion
can leave round-off dust).  Matrix-served distances agree with on-demand
evaluation to kernel round-off (identical bits for the block kernels,
~1e-12 relative for the fused point kernel); selections on non-degenerate
inputs are unaffected.

Thread-safe: ``solve_many`` fans runs out over thread pools; get-or-build
is serialised per cache.  Under a *process* pool the cache is pickled
into each worker — prewarmed entries still hit, but hit counts observed
in workers do not flow back to the parent.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

import numpy as np

from repro.errors import InvalidParameterError
from repro.metric.base import DistCounter, MetricSpace
from repro.metric.precomputed import PrecomputedSpace
from repro.obs import metrics as _metrics

__all__ = ["DistanceCache"]

_M_CACHE_HITS = _metrics.counter(
    "repro_cache_hits_total", "Distance-matrix cache lookups served from cache"
)
_M_CACHE_MISSES = _metrics.counter(
    "repro_cache_misses_total", "Distance-matrix cache lookups that built a matrix"
)


class DistanceCache:
    """Capped cache of full distance matrices, keyed on space *content*.

    Keys are the spaces' :meth:`~repro.metric.base.MetricSpace.fingerprint`
    — a digest over metric family, shape and data bytes — so two
    separately-constructed equal spaces (e.g. the same dataset rebuilt
    across harness re-instantiations, or an in-memory space and its
    out-of-core twin) share one matrix.  A space that cannot fingerprint
    itself (a custom subclass without data access) falls back to object
    identity, with the space pinned inside the entry so a recycled
    ``id()`` can never serve a stale matrix to an unrelated space.

    Parameters
    ----------
    max_points:
        Spaces with ``n`` above this are never cached (the matrix is
        O(n^2); 2048 points = 32 MiB of float64).
    max_entries:
        Matrices kept at once; least-recently-used entries are evicted.
    max_bytes:
        Optional cap on the *total* bytes of all cached matrices.
        Least-recently-used entries are evicted until the total fits, so
        a long-lived process (the :mod:`repro.serve` daemon keeps one
        cache for its whole lifetime) holds bounded memory no matter how
        many distinct spaces pass through.  A space whose matrix alone
        exceeds the cap is simply not cacheable — :meth:`space_for`
        passes it through untouched, exactly like an over-``max_points``
        space.  ``None`` (default) keeps the entry-count bound only.
    """

    def __init__(
        self,
        max_points: int = 2048,
        max_entries: int = 8,
        max_bytes: int | None = None,
    ):
        if max_points <= 0:
            raise InvalidParameterError(
                f"max_points must be positive, got {max_points}"
            )
        if max_entries <= 0:
            raise InvalidParameterError(
                f"max_entries must be positive, got {max_entries}"
            )
        if max_bytes is not None and max_bytes <= 0:
            raise InvalidParameterError(
                f"max_bytes must be positive or None, got {max_bytes}"
            )
        self.max_points = int(max_points)
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.hits = 0
        self.misses = 0
        # fingerprint (or identity key) -> (pin, matrix).  ``pin`` is None
        # for content keys; for the identity fallback it is the space
        # itself, kept alive so the id cannot be recycled out from under
        # the entry.
        self._entries: OrderedDict[
            object, tuple[MetricSpace | None, np.ndarray]
        ] = OrderedDict()
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle (process-pool workers)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def cacheable(self, space: MetricSpace) -> bool:
        """Whether ``space`` is small enough to cache."""
        if not 0 < space.n <= self.max_points:
            return False
        if self.max_bytes is not None and 8 * space.n * space.n > self.max_bytes:
            return False
        return True

    def _total_bytes(self) -> int:
        return sum(matrix.nbytes for _, matrix in self._entries.values())

    def matrix_for(self, space: MetricSpace) -> np.ndarray:
        """The full distance matrix of ``space``, computed at most once
        per distinct *content* (see the class docstring for the keying).
        Raises for spaces above the size cap.
        """
        return self._matrix_for(space)[0]

    def _matrix_for(self, space: MetricSpace) -> tuple[np.ndarray, bool]:
        """(matrix, was_hit) — get-or-build, serialised per cache."""
        if not self.cacheable(space):
            raise InvalidParameterError(
                f"space of size {space.n} exceeds the cache cap "
                f"(max_points={self.max_points})"
            )
        fp = space.fingerprint()
        key = ("id", id(space)) if fp is None else fp
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (fp is not None or entry[0] is space):
                self._entries.move_to_end(key)
                self.hits += 1
                _M_CACHE_HITS.inc()
                return entry[1], True
            self.misses += 1
            _M_CACHE_MISSES.inc()
            matrix = self._build(space)
            self._entries[key] = (space if fp is None else None, matrix)
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and len(self._entries) > 1
                and self._total_bytes() > self.max_bytes
            ):
                self._entries.popitem(last=False)
            return matrix, False

    @staticmethod
    def _build(space: MetricSpace) -> np.ndarray:
        # Build through a shadow copy with a throwaway counter: the
        # one-off n^2 construction must not pollute any run's accounting.
        shadow = copy.copy(space)
        shadow.counter = DistCounter()
        matrix = shadow.cross(None, None)
        if shadow.shared_array is not None and np.may_share_memory(
            matrix, getattr(shadow, shadow.shared_array)
        ):
            # A precomputed space hands back its own matrix: the caller's
            # array, or a read-only published block.  Write into neither.
            matrix = matrix.copy()
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def space_for(
        self, space: MetricSpace, counter: DistCounter | None = None
    ) -> MetricSpace:
        """A solve-ready view of ``space`` backed by the shared matrix.

        Returns a :class:`PrecomputedSpace` over the cached matrix when
        ``space`` is cacheable, else ``space`` itself (callers need no
        size check of their own).  ``counter`` becomes the view's private
        accounting sink; its ``cache_hits``/``cache_misses`` fields
        record whether this call reused an existing matrix.
        """
        if not self.cacheable(space):
            return space
        matrix, hit = self._matrix_for(space)
        view = PrecomputedSpace(matrix, counter=counter, validate=False)
        view.counter.count_cache(hit)
        return view

    def stats(self) -> dict[str, int]:
        """Flat snapshot for logs and batch roll-ups."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self._total_bytes(),
            "max_points": self.max_points,
        }

    def clear(self) -> None:
        """Drop all cached matrices (counters are kept)."""
        with self._lock:
            self._entries.clear()
