"""Chunked pairwise-distance kernels.

These are the only functions in the package that touch O(|X| * |Y|) work,
and they do it in bounded-memory blocks whose inner operation is a BLAS
GEMM (squared-Euclidean expansion ``|x|^2 + |y|^2 - 2 x.y``).  Per the HPC
guides: vectorise the loop, block for cache, and prefer in-place running
minima over materialised temporaries.

All kernels take and return ``float64`` C-contiguous arrays.  Inputs with
other dtypes are converted once at the boundary.

Scratch reuse: the chunked kernels allocate the same block-sized
temporaries (GEMM output, row minima, difference blocks) over and over —
once per block, thousands of times per solve.  A :class:`Workspace` keeps
those buffers alive between calls and hands out resized views, and each
kernel writes into them with ``out=`` instead of allocating: same BLAS
routines, same bits, no per-block allocator traffic.  Workspaces are
**per thread** (see :func:`workspace`), so concurrent thread-pool tasks
never share scratch; only buffers that cannot escape a call (consumed by
a reduction before the kernel returns) are ever served from a workspace
— an array a caller may hold onto, such as :func:`sq_dists_block`'s
return value at the API boundary, is always freshly allocated unless the
caller explicitly opts in by passing its own workspace.

Accuracy note: the GEMM expansion trades a little absolute accuracy for a
large constant-factor speedup — the squared distance carries absolute error
of a few ulps of the squared coordinate magnitude.  Left alone, that error
is *catastrophic* for nearly-coincident points far from the origin: the
cancellation noise survives the square root at roughly
``1e-8 * max|coordinate|``, large relative to a near-zero distance.
:func:`sq_dists_block` therefore detects cancellation-dominated entries
(squared distance below :data:`CANCEL_RTOL` of the operands' squared
magnitudes) and recomputes exactly those through the direct
difference-then-square path, which is accurate to machine precision in the
*distance*.  Entries above the threshold keep the GEMM value, whose
relative error there is bounded by ``~eps / sqrt(CANCEL_RTOL)`` — far
below anything a selection could notice.  The refinement is per-entry
(row norms, not block extrema), so results remain independent of how
callers block their rows — the store layer's bit-parity contract.

Its cost follows what it refines, not the tile: one compare of the tile
against a scalar bound (exact superset of the per-entry thresholds)
finds the candidates, and only those get a threshold and a recompute.
On the paper's clustered data about 2% of a tile's entries are
candidates, although nearly every tile holds one (a point against
itself), so a whole-tile threshold matrix would cost more than the GEMM.
When candidates are most of the tile (data far from the origin next to
its spread) the whole tile goes through the difference path instead.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.errors import MetricError
from repro.obs import trace as _trace
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, chunk_slices, resolve_chunk_size

__all__ = [
    "as_points",
    "sq_dists_block",
    "pairwise_dists",
    "min_dists",
    "update_min_dists",
    "dists_to_point",
    "Workspace",
    "workspace",
    "MAX_DENSE_ELEMENTS",
    "MAX_RETAINED_BYTES",
    "CANCEL_RTOL",
]

#: Hard cap on elements of a *fully materialised* distance matrix requested
#: through :func:`pairwise_dists`.  128M float64 entries = 1 GiB; anything
#: larger is a programming error — use the chunked kernels instead.
MAX_DENSE_ELEMENTS = 128 * 2**20

#: Cap on a single retained :class:`Workspace` buffer.  Deliberately far
#: above the chunked kernels' L2-sized tile budget
#: (``DEFAULT_BLOCK_BYTES``): the blocked paths never reach it, and
#: GON's whole-shard ``dists_to_point`` ``diff`` scratch (a 20k x 3
#: shard is ~0.5 MiB) must stay recycled rather than be allocated
#: fresh on every center.  It only stops *huge* unblocked temporaries
#: (a full-space ``dists_to_point`` on a dataset-sized in-memory set)
#: from being pinned by the thread-local workspace after the call ends.
MAX_RETAINED_BYTES = 32 * 2**20

#: Squared distances below this fraction of ``|x|^2 + |y|^2`` are
#: cancellation-dominated in the GEMM expansion and are recomputed through
#: the direct difference path.  At 1e-6, unrefined entries keep at least
#: half their significant digits (relative squared-distance error
#: ``<~ eps / 1e-6 = 2e-10``), while the refined set stays tiny for
#: non-degenerate data (only pairs closer than ~0.1% of their distance
#: from the origin qualify).
CANCEL_RTOL = 1e-6


def as_points(x: np.ndarray, name: str = "points") -> np.ndarray:
    """Validate and normalise a point array to 2-D C-contiguous float64."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise MetricError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise MetricError(f"{name} contains non-finite values")
    return arr


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


class Workspace:
    """Reusable scratch buffers for the chunked kernels.

    A workspace owns one flat ``float64`` buffer per *role* ("gemm",
    "rowmin", "diff", ...); :meth:`take` grows the buffer when needed and
    returns a C-contiguous view of the requested shape.  Buffers are
    recycled call-to-call, so a hot loop (Gonzalez's k passes, a round of
    reducer blocks) performs zero block-sized allocations after warm-up.

    Contract: a view obtained from :meth:`take` is valid only until the
    next ``take`` of the same role — callers must fully consume it (fold
    it into a running minimum, copy the reduction out) before the next
    kernel call on the same workspace.  The kernels in this module uphold
    that internally; the public entry points never return workspace
    memory unless the caller passed the workspace in explicitly.

    Retention is bounded: requests above :data:`MAX_RETAINED_BYTES`
    (well above the chunked kernels' tile budget) are served as plain
    transient allocations instead of growing the held buffer, so a
    workspace that once saw a dataset-sized temporary (e.g. a
    whole-space ``dists_to_point`` pass) does not pin it for the life
    of the thread — held scratch stays O(retention cap), never O(n·d).

    One workspace must not be shared between threads; use
    :func:`workspace` for a per-thread instance.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A ``shape``-d float64 view of the scratch buffer for ``role``.

        Oversized requests (beyond :data:`MAX_RETAINED_BYTES`) fall back
        to a fresh transient allocation — correct either way, it is just
        not recycled.
        """
        size = math.prod(shape)
        if size * 8 > MAX_RETAINED_BYTES:
            return np.empty(shape, dtype=np.float64)
        buf = self._bufs.get(role)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=np.float64)
            self._bufs[role] = buf
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all roles (introspection)."""
        return sum(buf.nbytes for buf in self._bufs.values())

    def release(self) -> None:
        """Drop every held buffer (the next take re-allocates)."""
        self._bufs.clear()


_tls = threading.local()


def workspace() -> Workspace:
    """The calling thread's shared :class:`Workspace` (created on demand).

    Thread-local, so concurrent executor tasks each reuse their own
    scratch and never race on a buffer — the kernels default to this
    workspace for temporaries that cannot escape the call.
    """
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = _tls.ws = Workspace()
    return ws


def sq_dists_block(
    x: np.ndarray,
    y: np.ndarray,
    x_sq: np.ndarray | None = None,
    y_sq: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Dense squared Euclidean distances between two *small* blocks.

    Uses the GEMM expansion; negative round-off is clipped to zero in
    place, and cancellation-dominated entries (below :data:`CANCEL_RTOL`
    of the operands' squared magnitudes) are recomputed through the
    numerically stable difference path — see the module accuracy note.
    Callers are responsible for keeping ``len(x) * len(y)`` within
    their memory budget — this function does not chunk.

    Parameters
    ----------
    x, y:
        ``(nx, d)`` and ``(ny, d)`` float64 arrays.
    x_sq, y_sq:
        Optional precomputed squared norms (saves a pass when the caller
        reuses them across many blocks).
    ws:
        Optional :class:`Workspace` the GEMM output is served from — the
        BLAS call then writes into recycled scratch via ``out=`` (same
        routine, same bits, no allocation).  Passing a workspace hands
        over ownership of the result: it is only valid until the next
        workspace-backed kernel call, so only callers that fully consume
        the block (running minima, argmin scans) may opt in.
    """
    if x.shape[1] != y.shape[1]:
        raise MetricError(
            f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}"
        )
    if x.shape[0] == 1 and y.shape[0] > 1:
        # A single-row GEMM dispatches to a different BLAS microkernel
        # (gemv-style) whose rounding can differ from the multi-row path
        # by an ulp.  Duplicate the row so every block shape runs the
        # same kernel: results are then independent of how callers block
        # their rows — the store layer's bit-parity contract, down to
        # chunk-size-1 streams.
        out = sq_dists_block(
            np.concatenate([x, x], axis=0),
            y,
            None if x_sq is None else np.concatenate([x_sq, x_sq]),
            y_sq,
            ws=ws,
        )
        return np.ascontiguousarray(out[:1])
    if y.shape[0] == 1 and x.shape[0] > 1:
        # Same stability fix on the reference side: a single-column GEMM
        # must produce the same bits as that column inside a wider block
        # (a 1-row trailing chunk of a streamed reference set).
        out = sq_dists_block(
            x,
            np.concatenate([y, y], axis=0),
            x_sq,
            None if y_sq is None else np.concatenate([y_sq, y_sq]),
            ws=ws,
        )
        return np.ascontiguousarray(out[:, :1])
    # The no-tracer (and detail="task") case is one contextvar read —
    # negligible against the GEMM this block performs.
    with _trace.block_span(
        "kernels.sq_dists_block", rows=int(x.shape[0]), cols=int(y.shape[0])
    ):
        if x_sq is None:
            x_sq = _sq_norms(x)
        if y_sq is None:
            y_sq = _sq_norms(y)
        # -2 x.y + |x|^2 + |y|^2, accumulated in place on the GEMM output.
        if ws is None:
            out = x @ y.T
        else:
            out = np.matmul(x, y.T, out=ws.take("gemm", (x.shape[0], y.shape[0])))
        out *= -2.0
        out += x_sq[:, None]
        out += y_sq[None, :]
        np.maximum(out, 0.0, out=out)
        _refine_cancelled(out, x, y, x_sq, y_sq)
        return out


def _refine_cancelled(
    out: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    x_sq: np.ndarray,
    y_sq: np.ndarray,
) -> None:
    """Recompute cancellation-dominated entries of ``out`` in place.

    An entry is refined when ``out[i, j] < (x_sq[i] + y_sq[j]) *
    CANCEL_RTOL``, and a refined entry is recomputed from its own
    coordinate pair through ``einsum("ij,ij->i")`` over a C-contiguous
    ``(m, d)`` difference array — the layout :func:`dists_to_point`
    reduces.  Both depend on the pair alone, so the output is independent
    of block shape (the bit-parity contract).

    Finding those entries costs one compare of the tile against the
    scalar ``bound = CANCEL_RTOL * (x_sq.max() + y_sq.max())``.  Rounding
    is monotone, so ``bound`` is at least every per-entry threshold and
    the entries below it are an exact superset of the ones to refine; the
    per-entry predicate then runs on those candidates only.  No tile-sized
    threshold matrix is built unless the candidates are most of the tile
    (data far from the origin relative to its spread), where gathering
    them pair by pair costs more than recomputing every entry; the
    dense path below does that and keeps the same predicate.
    """
    if out.size == 0:
        return
    flat = out.reshape(-1)
    below = flat < CANCEL_RTOL * (x_sq.max() + y_sq.max())
    if not below.any():
        return
    cand = np.flatnonzero(below)
    if 2 * cand.size > out.size:
        _refine_dense(out, x, y, x_sq, y_sq)
        return
    ii, jj = np.divmod(cand, out.shape[1])
    thresh = np.take(x_sq, ii) + np.take(y_sq, jj)
    thresh *= CANCEL_RTOL
    keep = np.take(flat, cand) < thresh
    cand, ii, jj = cand[keep], ii[keep], jj[keep]
    diff = np.take(x, ii, axis=0)
    diff -= np.take(y, jj, axis=0)
    flat[cand] = np.einsum("ij,ij->i", diff, diff)


def _refine_dense(
    out: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    x_sq: np.ndarray,
    y_sq: np.ndarray,
) -> None:
    """:func:`_refine_cancelled` for tiles whose candidates are most of it.

    Recomputes every entry through the direct difference path — the
    pairs laid out row-major as ``(rows * cols, d)``, the sparse path's
    layout — and keeps the exact value wherever the per-entry predicate
    holds.  Rows go in slices whose difference array is sized to the
    tile budget (at least 16 rows), so a large ``d`` or a dataset-sized
    :func:`pairwise_dists` tile never materialises ``rows * cols * d`` at
    once; the difference scratch is recycled through the calling
    thread's :class:`Workspace` (it is consumed before this returns).
    """
    cols, d = y.shape
    ws = workspace()
    for sl in chunk_slices(x.shape[0], resolve_chunk_size(cols * d)):
        xs = x[sl]
        diff = ws.take("refine", (xs.shape[0], cols, d))
        for k in range(d):
            np.subtract(xs[:, k, None], y[None, :, k], out=diff[:, :, k])
        diff = diff.reshape(-1, d)
        exact = np.einsum("ij,ij->i", diff, diff).reshape(xs.shape[0], cols)
        thresh = x_sq[sl, None] + y_sq[None, :]
        thresh *= CANCEL_RTOL
        np.copyto(out[sl], exact, where=out[sl] < thresh)


def pairwise_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full dense Euclidean distance matrix (guarded against blow-up).

    Intended for small index sets — e.g. the union of per-machine centers
    in MRG's final round, or the H-by-S matrix in EIM's Select step.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    n_elements = x.shape[0] * y.shape[0]
    if n_elements > MAX_DENSE_ELEMENTS:
        raise MetricError(
            f"refusing to materialise a {x.shape[0]} x {y.shape[0]} distance "
            f"matrix ({n_elements} elements > cap {MAX_DENSE_ELEMENTS}); "
            "use min_dists/update_min_dists instead"
        )
    out = sq_dists_block(x, y)
    np.sqrt(out, out=out)
    return out


def dists_to_point(
    x: np.ndarray, p: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Euclidean distances from every row of ``x`` to the single point ``p``.

    This is the inner step of Gonzalez's traversal; it is a single fused
    vector pass with no temporary larger than ``x`` itself — and that one
    ``(n, d)`` difference temporary is recycled through the calling
    thread's :class:`Workspace` (it is consumed by the reduction before
    the call returns, so reuse cannot escape).  The returned vector is
    always freshly allocated.
    """
    ws = workspace() if ws is None else ws
    diff = ws.take("diff", x.shape)
    np.subtract(x, p[None, :], out=diff)
    out = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(out, out=out)
    return out


def update_min_dists(
    current: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    ws: Workspace | None = None,
) -> np.ndarray:
    """In-place ``current[i] = min(current[i], d(x[i], y))`` for all rows.

    ``current`` holds each point's distance to some existing reference set;
    this folds a batch of new reference points ``y`` into it.  It is the
    workhorse of EIM's Round 3 (removal) and of incremental assignment.
    Work is blocked over the rows of ``x`` so each ``rows x len(y)``
    tile stays under ``block_bytes`` (never fewer than 16 rows); every
    block temporary (GEMM output, row minima) is recycled through the
    calling thread's :class:`Workspace` — each is folded into ``current``
    before the next block is computed, so reuse never changes a bit.

    Returns ``current`` (modified in place) for chaining.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if current.shape != (x.shape[0],):
        raise MetricError(
            f"current has shape {current.shape}, expected ({x.shape[0]},)"
        )
    if y.shape[0] == 0:
        return current
    ws = workspace() if ws is None else ws
    if y.shape[0] == 1:
        np.minimum(current, dists_to_point(x, y[0], ws=ws), out=current)
        return current

    y_sq = _sq_norms(y)
    x_chunk = resolve_chunk_size(y.shape[0], block_bytes=block_bytes)
    for sl in chunk_slices(x.shape[0], x_chunk):
        xb = x[sl]
        sq = sq_dists_block(xb, y, y_sq=y_sq, ws=ws)
        block_min = sq.min(axis=1, out=ws.take("rowmin", (sq.shape[0],)))
        np.sqrt(block_min, out=block_min)
        np.minimum(current[sl], block_min, out=current[sl])
    return current


def min_dists(
    x: np.ndarray,
    y: np.ndarray,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    ws: Workspace | None = None,
) -> np.ndarray:
    """For each row of ``x``, the Euclidean distance to its nearest row of ``y``.

    ``y`` must be non-empty.  Equivalent to ``cdist(x, y).min(axis=1)`` but
    with bounded memory (block temporaries recycled through the thread's
    :class:`Workspace`; the returned vector is freshly allocated).
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if y.shape[0] == 0:
        raise MetricError("min_dists requires a non-empty reference set y")
    out = np.full(x.shape[0], np.inf, dtype=np.float64)
    return update_min_dists(out, x, y, block_bytes=block_bytes, ws=ws)
