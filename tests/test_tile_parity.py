"""Tile-budget invariance of the distance kernels, on generated cases.

The chunked kernels tile a ``rows x refs`` temporary under a byte budget
(``DEFAULT_BLOCK_BYTES``).  Row blocking must never change a result bit
— that is what lets the budget be tuned for cache residency, and what
the out-of-core store's parity contract rests on.  Each generated case
runs ``update_min_dists``, ``nearest``, ``min_dists`` and
``covering_radius`` on in-memory and chunked spaces at three budgets —
the 16-row floor, the default, and 32 MiB (one tile for every case
here) — and requires identical bits everywhere.  Cases are shaped so
the default budget splits the rows with a 1-row trailing tile, the
chunked stream ends in a 1-row chunk, and the data can be
cancellation-dominated (near-duplicates far from the origin, where the
kernels' GEMM expansion hands entries to the exact difference path).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metric.euclidean import EuclideanSpace
from repro.store import ArrayStream, ChunkedMetricSpace
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, resolve_chunk_size

#: The three budgets: 1 byte resolves to the kernels' 16-row minimum.
BUDGETS = (1, DEFAULT_BLOCK_BYTES, 32 * 2**20)


@st.composite
def cases(draw):
    k = draw(st.sampled_from([1, 2, 7, 32, 40, 64, 128]))
    dim = draw(st.integers(1, 4))
    default_rows = resolve_chunk_size(k)
    # n = q * (default tile rows) + tail: with tail == 1 the default
    # budget ends in a 1-row tile for the larger k — and for k in
    # {32, 64, 128} so does the 16-row floor (tile rows divisible by 16).
    q = draw(st.integers(0, 2))
    tail = draw(st.sampled_from([1, 1, 2, 15, 17]))
    n = max(k + 1, min(q * default_rows, 3_000) + tail)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # Cancellation-dominated: tight clusters of near-duplicates far
        # from the origin (offset up to 1e7, spread down to 1e-9).
        offset = draw(st.sampled_from([1e3, 1e5, 1e7]))
        spread = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
        anchors = rng.normal(size=(max(1, n // 8), dim)) + offset
        points = anchors[rng.integers(0, len(anchors), n)]
        points = points + spread * rng.normal(size=(n, dim))
    else:
        points = rng.normal(size=(n, dim)) * draw(st.sampled_from([1.0, 1e4]))
    centers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
    # A chunk grid whose last chunk holds exactly one row.
    chunk = draw(st.sampled_from([n - 1, max(1, (n - 1) // 3)]))
    if (n - 1) % chunk:
        chunk = n - 1
    return points, centers, chunk


def _spaces(points, chunk, block_bytes):
    yield EuclideanSpace(points, block_bytes=block_bytes)
    yield ChunkedMetricSpace(
        ArrayStream(points, chunk_size=chunk), block_bytes=block_bytes
    )


def _results(space, centers):
    current = np.full(space.n, 7.5)
    space.update_min_dists(current, None, centers)
    pos, dist = space.nearest(None, centers)
    return {
        "update_min_dists": current,
        "nearest.pos": pos,
        "nearest.dist": dist,
        "min_dists": space.min_dists(None, centers),
        "covering_radius": np.float64(space.covering_radius(centers)),
    }


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(cases())
def test_kernels_bit_identical_across_tile_budgets(case):
    points, centers, chunk = case
    reference = _results(EuclideanSpace(points, block_bytes=BUDGETS[-1]), centers)
    for block_bytes in BUDGETS:
        for space in _spaces(points, chunk, block_bytes):
            got = _results(space, centers)
            for name, want in reference.items():
                assert np.array_equal(got[name], want), (
                    f"{name} differs on {type(space).__name__} "
                    f"at block_bytes={block_bytes}"
                )
            assert space.counter.evals == 4 * space.n * len(centers)


def test_cases_reach_the_split_shapes():
    """The generator's arithmetic really produces multi-tile, 1-row-tail
    shapes at the default budget (guards the strategy, not the kernels)."""
    k = 64
    rows = resolve_chunk_size(k)
    n = 2 * rows + 1
    assert rows < n < resolve_chunk_size(k, block_bytes=BUDGETS[-1])
    assert n % rows == 1 and n % resolve_chunk_size(k, block_bytes=1) == 1
