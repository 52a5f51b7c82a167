"""Ablation A5 — distance-kernel micro-benchmarks (the HPC guide's
"measure, don't guess").

Times the three hot kernels at experiment-realistic shapes and sweeps the
tile budget (``DEFAULT_BLOCK_BYTES``, 64 KiB ... 32 MiB) at the three
shapes the solvers actually run, reporting Mevals/s for each:

* the **chunked 10^6 x 100 eval** — MRG's final covering radius over an
  out-of-core space at the paper's Table 2 size;
* a **5*10^4 x 4000 eim-removal fold** — ``update_min_dists`` at the
  shape of EIM's Round 3 once the sample has grown;
* a **20k-row ``dists_to_point``** — GON's per-center pass over one MRG
  shard.  This kernel is not tiled; the column sweeps the workspace
  *retention cap* at the same values instead, to show what tying
  ``MAX_RETAINED_BYTES`` to the tile budget would cost (the 20k x 3
  ``diff`` scratch, ~0.5 MiB, would be allocated fresh on every call
  below 512 KiB).

Each tile is touched by ~8 elementwise passes, so the budget's job is to
keep a tile in L2: too-small tiles pay per-call overhead, too-large ones
stream every pass through DRAM.

The sweep's data is origin-centred normal, where no entry is
cancellation-dominated and the kernels' refinement costs one compare.
``test_refinement_shapes`` times the same eim-removal fold at the
default budget on data where it does work, one shape on each side of
the refinement's dense trigger, with the reference rows drawn from the
points (as EIM's sample is, so every tile holding one has an exact
zero):

* **normal** — the sweep's origin-centred data (nothing refined);
* **gau** — the paper's data (25 clusters in a 100-wide cube, sigma
  0.1): a small share of each tile is refined entry by entry;
* **far cluster** — unit-spread normal data offset 1e4 from the
  origin: nearly every entry is a candidate, so whole tiles are
  recomputed through the difference path.

``REPRO_BENCH_MAX_N`` caps the row counts (CI smoke).
"""

import os

import numpy as np

from benchmarks.conftest import write_artifact
from repro.data.synthetic import gau
from repro.metric import kernels
from repro.store import ArrayStream, ChunkedMetricSpace
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, resolve_chunk_size
from repro.utils.tables import format_table
from repro.utils.timing import timed

RNG = np.random.default_rng(0)
X = RNG.normal(size=(100_000, 3))
Y = RNG.normal(size=(2_000, 3))
CURRENT = np.full(len(X), np.inf)


def test_dists_to_point(benchmark):
    """GON's inner loop: one fused pass over all points."""
    benchmark(kernels.dists_to_point, X, Y[0])


def test_update_min_dists_default_blocks(benchmark):
    """EIM Round 3's inner loop at a realistic (100k x 2k) shape."""
    benchmark(lambda: kernels.update_min_dists(CURRENT.copy(), X, Y))


def test_pairwise_small_block(benchmark):
    """EIM Select's H-by-S distances (small dense block)."""
    benchmark(kernels.pairwise_dists, Y[:200], Y)


_cap = int(os.environ.get("REPRO_BENCH_MAX_N", "0"))


def _rows(n: int) -> int:
    return min(n, _cap) if _cap else n


#: Tile budgets swept: 64 KiB ... 32 MiB, doubling.
BUDGETS = tuple(2**e for e in range(16, 26))

EVAL_POINTS = RNG.normal(size=(_rows(1_000_000), 3))
EVAL_CENTERS = np.arange(0, len(EVAL_POINTS), max(1, len(EVAL_POINTS) // 100))[:100]
FOLD_X = RNG.normal(size=(_rows(50_000), 3))
FOLD_Y = RNG.normal(size=(min(4_000, len(FOLD_X)), 3))
GON_SHARD = RNG.normal(size=(_rows(20_000), 3))
GON_CALLS = 200


def _best_of(fn, repeats: int = 2) -> float:
    return min(timed(fn)[1] for _ in range(repeats))


def _eval_seconds(block_bytes: int) -> float:
    space = ChunkedMetricSpace(ArrayStream(EVAL_POINTS), block_bytes=block_bytes)
    return _best_of(lambda: space.covering_radius(EVAL_CENTERS))


def _fold_seconds(block_bytes: int) -> float:
    current = np.full(len(FOLD_X), np.inf)
    return _best_of(
        lambda: kernels.update_min_dists(
            current, FOLD_X, FOLD_Y, block_bytes=block_bytes
        )
    )


def _gon_seconds(retained_bytes: int, monkeypatch) -> float:
    monkeypatch.setattr(kernels, "MAX_RETAINED_BYTES", retained_bytes)
    ws = kernels.Workspace()

    def passes():
        for i in range(GON_CALLS):
            kernels.dists_to_point(GON_SHARD, GON_SHARD[i], ws=ws)

    return _best_of(passes)


def test_chunk_size_sweep(artifact_dir, monkeypatch):
    shapes = {
        "eval": (_eval_seconds, len(EVAL_POINTS) * len(EVAL_CENTERS)),
        "fold": (_fold_seconds, len(FOLD_X) * len(FOLD_Y)),
    }
    times = {name: {} for name in shapes}
    gon = {}
    for block_bytes in BUDGETS:
        for name, (run, _) in shapes.items():
            times[name][block_bytes] = run(block_bytes)
        gon[block_bytes] = _gon_seconds(block_bytes, monkeypatch)
    monkeypatch.undo()

    def mevals(evals: int, seconds: float) -> str:
        return f"{evals / seconds / 1e6:.1f}"

    rows = [
        [
            f"{block_bytes // 1024} KiB"
            + (" (default)" if block_bytes == DEFAULT_BLOCK_BYTES else ""),
            *(mevals(evals, times[name][block_bytes])
              for name, (_, evals) in shapes.items()),
            mevals(GON_CALLS * len(GON_SHARD), gon[block_bytes]),
        ]
        for block_bytes in BUDGETS
    ]
    text = format_table(
        [
            "tile budget",
            f"chunked eval {len(EVAL_POINTS)}x{len(EVAL_CENTERS)}",
            f"eim fold {len(FOLD_X)}x{len(FOLD_Y)}",
            f"dists_to_point {len(GON_SHARD)} rows (as retention cap)",
        ],
        rows,
        title="A5: tile-budget sweep, Mevals/s (higher is better)",
    )
    write_artifact(artifact_dir, "kernels_chunk_sweep", text)

    # The default budget must not be badly off the best at any tiled shape.
    for name in shapes:
        best = min(times[name].values())
        assert times[name][DEFAULT_BLOCK_BYTES] <= 5.0 * best, name


def _fold_shapes() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    n = len(FOLD_X)
    refs = np.sort(RNG.choice(n, size=len(FOLD_Y), replace=False))
    gau_x = gau(n, seed=1)
    far_x = RNG.normal(size=(n, 3)) + 1e4
    return {
        "normal": (FOLD_X, FOLD_Y),
        "gau": (gau_x, gau_x[refs]),
        "far cluster": (far_x, far_x[refs]),
    }


def test_refinement_shapes(artifact_dir, monkeypatch):
    dense_calls = []
    dense = kernels._refine_dense
    monkeypatch.setattr(
        kernels,
        "_refine_dense",
        lambda *args: dense_calls.append(1) or dense(*args),
    )
    rows = []
    sides = {}
    for name, (x, y) in _fold_shapes().items():
        dense_calls.clear()
        kernels.update_min_dists(np.full(len(x), np.inf), x, y)
        tiles = -(-len(x) // resolve_chunk_size(len(y)))
        sides[name] = len(dense_calls) / tiles
        seconds = _best_of(
            lambda: kernels.update_min_dists(np.full(len(x), np.inf), x, y)
        )
        rows.append(
            [
                name,
                f"{len(x)}x{len(y)}",
                f"{sides[name]:.0%}",
                f"{len(x) * len(y) / seconds / 1e6:.1f}",
            ]
        )
    text = format_table(
        ["data", "fold", "dense tiles", "Mevals/s"],
        rows,
        title="A5: eim fold by data shape at the default tile budget "
        "(higher is better)",
    )
    write_artifact(artifact_dir, "kernels_refinement_shapes", text)

    # One shape on each side of the dense trigger.
    assert sides["normal"] == 0.0 and sides["gau"] == 0.0
    assert sides["far cluster"] == 1.0
