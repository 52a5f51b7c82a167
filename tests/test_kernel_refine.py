"""The kernels' cancellation refinement, naive vs fast, on generated cases.

:func:`repro.metric.kernels._refine_cancelled` finds the entries to
recompute by comparing the tile against one scalar bound and applies the
per-entry threshold to those candidates only, or — when the candidates
are most of the tile — recomputes every entry and merges.  The reference
below is the plain full-matrix form: build the whole per-entry threshold
matrix, take every entry below it with a 2-D ``nonzero``, recompute those.
Every public kernel that goes through the refinement must give identical
bits under either, on data where refinement never fires (origin-centred
normal), rarely fires (the paper's ``gau`` clusters: scale 100, sigma
0.1), and fires on most of the tile (offsets 1e3 to 1e7 from the origin),
plus exact duplicates and 1-row / 1-column tiles.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metric import kernels
from repro.metric.euclidean import EuclideanSpace
from repro.metric.kernels import CANCEL_RTOL


def _reference_refine(out, x, y, x_sq, y_sq):
    """Full-matrix refinement: threshold every entry, recompute the hits."""
    if out.size == 0:
        return
    thresh = x_sq[:, None] + y_sq[None, :]
    thresh *= CANCEL_RTOL
    ii, jj = np.nonzero(out < thresh)
    if ii.size:
        diff = x[ii] - y[jj]
        out[ii, jj] = np.einsum("ij,ij->i", diff, diff)


def _points(rng, kind, n, dim, offset, spread):
    if kind == "normal":
        return rng.normal(size=(n, dim))
    if kind == "gau":
        centers = rng.uniform(0.0, 100.0, size=(5, dim))
        return centers[rng.integers(0, 5, n)] + rng.normal(0.0, 0.1, (n, dim))
    if kind == "offset":
        return offset + spread * rng.normal(size=(n, dim))
    # duplicates: a few distinct rows, far out, each repeated exactly
    rows = offset + rng.normal(size=(max(1, n // 4), dim))
    return rows[rng.integers(0, len(rows), n)]


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["normal", "gau", "offset", "duplicates"]))
    dim = draw(st.integers(1, 5))
    nx = draw(st.sampled_from([1, 2, 3, 17, 70]))
    ny = draw(st.sampled_from([1, 2, 5, 33, 300]))
    offset = draw(st.sampled_from([1e3, 1e4, 1e5, 1e7]))
    # Relative to the offset, a spread of 1e-3..1e-2 puts part of the tile
    # under the bound and part above it: both sides of the dense trigger.
    spread = offset * draw(st.sampled_from([1e-9, 1e-6, 1e-3, 3e-3, 1e-2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = _points(rng, kind, nx + ny, dim, offset, spread)
    # Reference rows drawn from the same pool, so exact zeros occur (a
    # point against itself) as they do whenever centers are data points.
    x = pool[:nx]
    y = pool[rng.integers(0, nx + ny, ny)]
    return x, y


def _results(x, y):
    x_sq = np.einsum("ij,ij->i", x, x)
    y_sq = np.einsum("ij,ij->i", y, y)
    space = EuclideanSpace(np.concatenate([x, y]))
    xi, yi = np.arange(len(x)), np.arange(len(x), len(x) + len(y))
    pos, dist = space.nearest(xi, yi)
    current = np.full(len(x), 2.5)
    return {
        "sq_dists_block": kernels.sq_dists_block(x, y, x_sq, y_sq),
        "sq_dists_block.ws": kernels.sq_dists_block(
            x, y, x_sq, y_sq, ws=kernels.Workspace()
        ).copy(),
        "update_min_dists": kernels.update_min_dists(current, x, y),
        "update_min_dists.16rows": kernels.update_min_dists(
            np.full(len(x), np.inf), x, y, block_bytes=1
        ),
        "min_dists": kernels.min_dists(x, y),
        "nearest.pos": pos,
        "nearest.dist": dist,
        "cross": space.cross(xi, yi),
    }


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(cases())
def test_refinement_bit_identical_to_full_matrix_reference(case):
    x, y = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_refine_cancelled", _reference_refine)
        want = _results(x, y)
    got = _results(x, y)
    for name, ref in want.items():
        assert np.array_equal(got[name], ref), name


def _tile(offset, spread, rows=16, cols=400, dim=3, seed=5):
    rng = np.random.default_rng(seed)
    x = offset + spread * rng.normal(size=(rows, dim))
    y = offset + spread * rng.normal(size=(cols, dim))
    return x, y


@pytest.mark.parametrize(
    "spread, dense",
    [(1.0, True), (30.0, False), (1e-3, True)],
    ids=["most-of-tile", "part-of-tile", "near-duplicates"],
)
def test_generated_shapes_reach_both_sides_of_the_dense_trigger(
    monkeypatch, spread, dense
):
    """Tiles like the generator's far-offset cases take the dense path
    when most entries are candidates and the sparse path otherwise, and
    in both the refinement changes bits the GEMM alone would get wrong
    (guards the test's coverage, not the kernel)."""
    x, y = _tile(1e4, spread)
    x_sq = np.einsum("ij,ij->i", x, x)
    y_sq = np.einsum("ij,ij->i", y, y)
    calls = []
    real_dense = kernels._refine_dense
    monkeypatch.setattr(
        kernels, "_refine_dense", lambda *a: calls.append(1) or real_dense(*a)
    )
    got = kernels.sq_dists_block(x, y, x_sq, y_sq)
    assert bool(calls) == dense
    raw = x @ y.T
    raw *= -2.0
    raw += x_sq[:, None]
    raw += y_sq[None, :]
    np.maximum(raw, 0.0, out=raw)
    assert not np.array_equal(got, raw)
    ref = raw.copy()
    _reference_refine(ref, x, y, x_sq, y_sq)
    assert np.array_equal(got, ref)
