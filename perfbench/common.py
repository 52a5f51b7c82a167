"""Shared pieces of the benchmark: workload shapes, inputs, statistics,
process-tree accounting and the solver-independent reference checks.

The reference checks use NumPy and the standard library only: they never
call the solvers or their distance kernels, so a solver bug cannot hide
behind a shared kernel.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
OUT = ROOT / "perfbench" / "out"

WORKERS = 2  # pool size of every workload (processes, or serve threads)

# ---------------------------------------------------------------------- #
# workload shapes
# ---------------------------------------------------------------------- #
MRG = {"algo": "mrg", "n": 1_000_000, "k": 100, "m": 50, "dim": 3,
       "shards": 8, "chunk_size": 1 << 15}
EIM = {"algo": "eim", "n": 50_000, "k": 10, "m": 50, "dim": 3}
SERVE = {
    "n_small": 256,         # = the server's cache cap: small spaces cache
    "k_small": 10,
    "small_seeds": 4,
    "cold_spaces": 24,      # > cache entries (8), so the ring evicts
    "hot_share": 0.72,      # of the small requests; the rest are cold
    "large_every": 33,      # every 33rd request is large (3%)
    "n_large": 20_000,      # above the cache cap: kernels, bit-exact
    "k_large": 30,
    "m_large": 10,
    "large_spaces": 2,
    "large_seeds": 3,
    "open_rate": 40.0,      # requests/s in the open loop (about a sixth of capacity)
    "open_share": 0.6,      # of the run's seconds; the closed loop gets the rest
    "window": 8,            # outstanding requests per connection, closed loop
    "connections": 2,
    "timeout_s": 20.0,      # server-side request deadline
    "deadline_s": 30.0,     # client-side: unanswered by then = failed
}
BOOTS = 5  # set-up repetitions per run; set-up time is their median
SOLVER_SEEDS = 3  # batch solves cycle through this many solver seeds


def batch_shape(workload: str) -> dict:
    return MRG if workload == "mrg-1m-sharded" else EIM


def gau_points(n: int, seed: int, dim: int = 3) -> np.ndarray:
    """The ``gau`` family of the paper, as ``repro.gau`` draws it."""
    import repro

    return repro.gau(n, dim=dim, seed=seed)


def serve_spaces(seed: int) -> dict:
    """Every point set the serve mix sends, a pure function of ``seed``."""
    rng = np.random.default_rng([seed, 11])
    s = SERVE
    return {
        "hot": rng.normal(size=(s["n_small"], 3)),
        "cold": [rng.normal(size=(s["n_small"], 3)) for _ in range(s["cold_spaces"])],
        "large": [gau_points(s["n_large"], seed * 100 + j)
              for j in range(s["large_spaces"])],
    }


def read_shards(path: Path) -> np.ndarray:
    """Load a shard directory with plain NumPy (no :mod:`repro.store`)."""
    manifest = json.loads((path / "manifest.json").read_text())
    parts = [np.load(path / e["file"]) for e in manifest["shards"] if e["file"]]
    return np.concatenate(parts)


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def pct(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); NaN for no samples.

    Nearest rank reports a value that was actually measured; for a run
    of a handful of solves, ``pct(x, 99)`` is the slowest of them.
    """
    xs = sorted(values)
    if not xs:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return float(xs[rank - 1])


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        return float("nan")
    mid = len(xs) // 2
    return float(xs[mid]) if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


# ---------------------------------------------------------------------- #
# processes and shared memory
# ---------------------------------------------------------------------- #
def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(_children(p))
    return tree


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pid``'s live tree.

    Each process's own high-water mark, so the figure covers the driver
    and every worker the workload started, and nothing from earlier
    workloads: each workload runs in a fresh process.
    """
    return sum(_status_kb(p, "VmHWM") for p in process_tree(pid)) / 1024.0


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments visible to this host."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------- #
# solver-independent references
# ---------------------------------------------------------------------- #
def _sq_dists_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return np.einsum("ij,ij->i", diff, diff)


def covering_radius(points: np.ndarray, centers) -> float:
    """``max_v min_c ||v - c||`` by direct differences, one center at a time."""
    best = np.full(len(points), np.inf)
    for c in centers:
        np.minimum(best, _sq_dists_to(points, points[int(c)]), out=best)
    return float(math.sqrt(best.max()))


def gon_radius(points: np.ndarray, k: int, start: int = 0) -> float:
    """Gonzalez's farthest-first 2-approximation, started at row ``start``.

    Any start gives a 2-approximation, so ``gon_radius / 2`` is a lower
    bound on the optimum and the paper's quality measure (radius divided
    by GON's) has a solver-independent denominator.
    """
    best = _sq_dists_to(points, points[start])
    for _ in range(k - 1):
        np.minimum(best, _sq_dists_to(points, points[int(np.argmax(best))]), out=best)
    return float(math.sqrt(best.max()))
