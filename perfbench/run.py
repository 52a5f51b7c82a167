"""The repository's benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mrg-1m-sharded --seed 1 --seconds 25 --trace 0

Runs the workload in a fresh child process (``workload.py``), then checks
its outputs against solver-independent references, prints a table of
every metric with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` turns on the ``repro.obs`` tracer, wraps the executor and
the store entry points, and reports the per-layer metrics.  See
``perfbench/README.md`` for the workloads, the metrics and which layer
should move which end-to-end number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT, SERVE, SRC, WORK, WORKERS, batch_shape, covering_radius, gau_points,
    gon_radius, median, pct, read_shards, serve_spaces,
)

WORKLOADS = ("mrg-1m-sharded", "eim-50k", "serve-mix")
CHILD_TIMEOUT_S = 160

END_TO_END = {  # name -> unit
    "op_ms.p50": "ms",
    "large_ms.p50": "ms",
    "ops_per_s": "1/s",
    "radius_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "core.eval_s": "s",
    "core.alg_s": "s",
    "core.rounds": "count",
    "mapreduce.tasks": "count",
    "mapreduce.round_wall_s": "s",
    "mapreduce.task_s": "s",
    "mapreduce.overhead_s": "s",
    "mapreduce.driver_s": "s",
    "mapreduce.pool_util": "ratio",
    "mapreduce.retries": "count",
    "metric.dist_evals": "count",
    "metric.task_dist_evals": "count",
    "metric.task_mevals_per_s": "Mevals/s",
    "metric.eval_mevals_per_s": "Mevals/s",
    "store.publish_s": "s",
    "store.chunk_read_s": "s",
    "store.cache_hit_ratio": "ratio",
    "store.cache_evictions": "count",
    "store.shm_leaked": "count",
    "serve.small_ms.p90": "ms",
    "serve.small_ms.p99": "ms",
    "serve.queue_ms.p50": "ms",
    "serve.queue_ms.p99": "ms",
    "serve.solve_ms.p50": "ms",
    "serve.wire_ms.p50": "ms",
    "serve.batch_runs.mean": "count",
    "serve.gen_late_ms.p99": "ms",
    "serve.isolation_splits": "count",
    "obs.span_coverage": "ratio",
    "obs.overhead_frac": "ratio",
    "obs.solve_self_s": "s",
    "obs.round_self_s": "s",
    "obs.task_self_s": "s",
    "proc.children_leaked": "count",
}

RTOL = 1e-9  # re-derived radius vs the solver's (GEMM vs direct differences)


class Checks:
    """Tally of operations and correctness checks; each failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1


def _valid_centers(centers, k: int, n: int) -> bool:
    return (len(centers) == k and len(set(centers)) == k
            and all(0 <= c < n for c in centers))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL)


# ---------------------------------------------------------------------- #
# batch workloads
# ---------------------------------------------------------------------- #
def judge_batch(name: str, seed: int, raw: dict, traced: bool):
    shape = batch_shape(name)
    k, n = shape["k"], shape["n"]
    checks = Checks()
    groups: dict[int, list] = {}  # solver seed -> its solves, in order
    for s in raw["solves"]:
        groups.setdefault(s["solver_seed"], []).append(s)
    same = ("centers", "radius", "dist_evals", "task_dist_evals", "rounds", "tasks")
    for s in raw["solves"]:
        ref = groups[s["solver_seed"]][0]
        checks.check(True, "solve returned")  # an operation; a raise ends the run
        checks.check(_valid_centers(s["centers"], k, n), "k distinct valid centers")
        checks.check(all(s[f] == ref[f] for f in same),
                     "repeats and wrapped runs bit-identical")
        if s["wrapped"] and name == "eim-50k":
            # The wrapper must forward crosses_process_boundary, or the
            # solver skips the shm publish and measures another program.
            checks.check(s["spans"]["publishes"] == 1, "wrapped solve publishes once")
    checks.check(any(len(g) > 1 for g in groups.values()), "some solve was repeated")

    if name == "mrg-1m-sharded":
        points = read_shards(Path(raw["data_dir"]))
    else:
        points = gau_points(n, seed, shape["dim"])
    checks.check(len(points) == n, "input size")
    gon = gon_radius(points, k)
    firsts = [g[0] for g in groups.values()]
    for s in firsts:
        checks.check(_close(covering_radius(points, s["centers"]), s["radius"]),
                     "radius re-derived independently")
        checks.check(s["radius"] <= s["approx_factor"] * gon / 2 * (1 + RTOL),
                     "radius within factor x GON/2")
    checks.check(raw["shm_leaked"] == 0, "no leaked shm segments")
    checks.check(raw["children_leaked"] == 0, "no leftover child processes")

    walls = [s["wall_s"] for s in raw["solves"] if not s["wrapped"]]
    # The median over solver seeds of each seed's median wall.
    p50 = median([median([s["wall_s"] for s in g if not s["wrapped"]])
                  for g in groups.values()])
    e2e = {
        "op_ms.p50": p50 * 1e3,
        "large_ms.p50": p50 * 1e3,
        "ops_per_s": len(walls) / sum(walls),
        "radius_ratio": median([s["radius"] / gon for s in firsts]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median(raw["setup_s"]),
    }
    layers = None
    if traced:
        layers = _batch_layers(raw, firsts[0], p50)
    info = {"solves": len(walls), "solver_seeds": len(groups),
            "measured_s": raw["measured_s"]}
    return checks, e2e, layers, info


def _batch_layers(raw, ref, plain_p50) -> dict:
    """Medians over the wrapped, traced solves; counts are exact, from the
    first solver seed."""
    wrapped = [s for s in raw["solves"] if s["wrapped"]]

    def med(fn):
        return median([fn(s) for s in wrapped])

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "core.eval_s": med(lambda s: s["eval_s"]),
        "core.alg_s": med(lambda s: s["alg_s"]),
        "core.rounds": ref["rounds"],
        "mapreduce.tasks": ref["tasks"],
        "mapreduce.round_wall_s": med(lambda s: s["round_wall_s"]),
        "mapreduce.task_s": med(lambda s: s["task_s"]),
        "mapreduce.overhead_s": med(lambda s: s["round_wall_s"] - s["task_s"] / WORKERS),
        "mapreduce.driver_s": med(lambda s: s["alg_s"] - s["round_wall_s"]),
        "mapreduce.pool_util": med(lambda s: s["task_s"] / (WORKERS * s["round_wall_s"])),
        "mapreduce.retries": sum(s["retries"] for s in raw["solves"]),
        "metric.dist_evals": ref["dist_evals"],
        "metric.task_dist_evals": ref["task_dist_evals"],
        "metric.task_mevals_per_s": med(lambda s: s["task_dist_evals"] / s["task_s"] / 1e6),
        "metric.eval_mevals_per_s": med(
            lambda s: (s["dist_evals"] - s["task_dist_evals"]) / s["eval_s"] / 1e6),
        "store.publish_s": med(lambda s: s["spans"]["publish_s"]),
        "store.chunk_read_s": med(lambda s: s["spans"]["chunk_read_s"]),
        "store.shm_leaked": raw["shm_leaked"],
        "obs.span_coverage": med(lambda s: s["spans"]["span_coverage"]),
        "obs.overhead_frac": med(lambda s: s["wall_s"]) / plain_p50 - 1.0,
        "obs.solve_self_s": med(lambda s: s["spans"]["solve_self_s"]),
        "obs.round_self_s": med(lambda s: s["spans"]["round_self_s"]),
        "obs.task_self_s": med(lambda s: s["spans"]["task_self_s"]),
        "proc.children_leaked": raw["children_leaked"],
    })
    return out


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #
def judge_serve(seed: int, raw: dict, traced: bool):
    import numpy as np
    import repro

    s = SERVE
    checks = Checks()
    spaces = serve_spaces(seed)
    large = [np.load(p) for p in raw["large_paths"]]
    gon_large = [gon_radius(rows, s["k_large"]) for rows in large]
    seen: dict[tuple, dict] = {}
    for r in raw["requests"]:
        checks.check(r["ok"], f"request answered ({r['error']})")
        if not r["ok"]:
            continue
        key = (r["kind"], r["space"], r["seed"])
        first = key not in seen
        ref = seen.setdefault(key, r)
        checks.check(all(r[f] == ref[f] for f in ("centers", "radius", "dist_evals")),
                     "repeats identical")
        if not first:
            continue
        if r["kind"] == "large":
            rows = large[r["space"]]
            checks.check(_valid_centers(r["centers"], s["k_large"], len(rows)),
                         "k distinct valid centers")
            direct = repro.solve(raw["large_paths"][r["space"]], s["k_large"], "mrg",
                                 m=s["m_large"], seed=r["seed"])
            checks.check([int(c) for c in direct.centers] == r["centers"]
                         and direct.radius == r["radius"],
                         "large result bit-identical to direct solve()")
            gon = gon_large[r["space"]]
        else:
            rows = spaces["hot"] if r["kind"] == "hot" else spaces["cold"][r["space"]]
            checks.check(_valid_centers(r["centers"], s["k_small"], len(rows)),
                         "k distinct valid centers")
            # GON from the served first center: the same traversal, so
            # the declared factor 2 must hold against it exactly.
            gon = gon_radius(rows, s["k_small"], start=r["centers"][0])
        checks.check(_close(covering_radius(rows, r["centers"]), r["radius"]),
                     "radius re-derived independently")
        checks.check(r["radius"] <= r["approx_factor"] * gon / 2 * (1 + RTOL),
                     "radius within factor x GON/2")
    final = raw["stats_final"]
    checks.check(final["received"] == final["answered"] + final["rejected"]
                 + final["failed"] + final["abandoned"],
                 "server received = answered + rejected + failed + abandoned")
    checks.check(raw["shm_leaked"] == 0, "no leaked shm segments")
    checks.check(raw["children_leaked"] == 0, "no leftover child processes")

    def latency_ms(r):  # from the due time; a failed request reads as the deadline
        return (r["done"] - r["due"]) * 1e3 if r["ok"] else s["deadline_s"] * 1e3

    opened = [r for r in raw["requests"] if r["phase"] == "open"]
    small = [r for r in opened if r["kind"] != "large"]
    small_ms = [latency_ms(r) for r in small]
    large_open = [r for r in opened if r["kind"] == "large"]
    c_start, c_end = raw["closed_window"]
    answered = [r for r in raw["requests"] if r["phase"] == "closed" and r["ok"]
                and c_start <= r["done"] <= c_end]
    ratios = [r["radius"] / gon_large[r["space"]] for r in large_open if r["ok"]]
    e2e = {
        "op_ms.p50": pct(small_ms, 50),
        "large_ms.p50": pct([latency_ms(r) for r in large_open], 50),
        "ops_per_s": len(answered) / (c_end - c_start),
        "radius_ratio": median(ratios),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median(raw["setup_s"]),
    }
    layers = None
    if traced:
        layers = _serve_layers(raw, small, large_open, small_ms)
    info = {"open_requests": len(opened), "small": len(small),
            "large": len(large_open), "closed_answered": len(answered),
            "small_ms.p90": pct(small_ms, 90), "small_ms.p99": pct(small_ms, 99)}
    return checks, e2e, layers, info


def _serve_layers(raw, small, large_open, small_ms) -> dict:
    ok_small = [r for r in small if r["ok"]]
    ok_large = [r for r in large_open if r["ok"]]
    ok_open = ok_small + ok_large
    before, after, final = raw["stats_before"], raw["stats_after"], raw["stats_final"]
    d_hits = after["cache"]["hits"] - before["cache"]["hits"]
    d_misses = after["cache"]["misses"] - before["cache"]["misses"]
    d_entries = after["cache"]["entries"] - before["cache"]["entries"]
    probe = raw["probe"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "core.eval_s": median([r["eval_s"] for r in ok_large]),
        "core.alg_s": median([r["alg_s"] for r in ok_large]),
        "core.rounds": median([r["rounds"] for r in ok_large]),
        "mapreduce.retries": final["retries"],
        "metric.dist_evals": sum(r["dist_evals"] for r in ok_open),
        "metric.task_dist_evals": sum(r["dist_evals"] for r in ok_large),
        "metric.task_mevals_per_s": sum(r["dist_evals"] for r in ok_large)
        / sum(r["task_s"] for r in ok_large) / 1e6,
        "store.cache_hit_ratio": d_hits / max(1, d_hits + d_misses),
        "store.cache_evictions": d_misses - d_entries,
        "store.shm_leaked": raw["shm_leaked"],
        "serve.small_ms.p90": pct(small_ms, 90),
        "serve.small_ms.p99": pct(small_ms, 99),
        "serve.queue_ms.p50": pct([r["queue_ms"] for r in ok_small], 50),
        "serve.queue_ms.p99": pct([r["queue_ms"] for r in ok_small], 99),
        "serve.solve_ms.p50": pct([r["solve_ms"] for r in ok_small], 50),
        "serve.wire_ms.p50": pct([(r["done"] - r["sent"]) * 1e3 - r["queue_ms"]
                                  - r["solve_ms"] for r in ok_small], 50),
        "serve.batch_runs.mean": sum(r["batch_runs"] for r in ok_open)
        / max(1, len(ok_open)),
        "serve.gen_late_ms.p99": pct([(r["sent"] - r["due"]) * 1e3
                                      for r in small + large_open], 99),
        "serve.isolation_splits": final["isolation_splits"],
        "obs.span_coverage": median(probe["coverage"]),
        "obs.overhead_frac": median(probe["traced_s"]) / median(probe["plain_s"]) - 1.0,
        "proc.children_leaked": raw["children_leaked"],
    })
    return out


# ---------------------------------------------------------------------- #
# driver
# ---------------------------------------------------------------------- #
def _stop_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left in the workload's session and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return  # the workload stopped everything it started
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_child(args, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "workload.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), str(work)]
    # Own session, so a timeout can stop the whole tree (pool, server).
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    _stop_session(proc)
    if code is None:
        raise RuntimeError(f"workload exceeded {CHILD_TIMEOUT_S}s")
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    return json.loads((work / "raw.json").read_text())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    traced = bool(args.trace)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        raw = _run_child(args, work)
        if args.workload == "serve-mix":
            checks, e2e, layers, info = judge_serve(args.seed, raw, traced)
        else:
            checks, e2e, layers, info = judge_batch(args.workload, args.seed, raw, traced)
    except Exception as exc:  # noqa: BLE001 - reported, and no result printed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# cpus {os.cpu_count()} workers {WORKERS} python "
          f"{platform.python_version()} numpy {numpy.__version__} "
          f"wall {time.perf_counter() - started:.1f}s")
    print("# " + " ".join(f"{k}={_fmt(v)}" for k, v in info.items()))
    fail_frac = checks.failed / checks.attempted
    print(f"# checks attempted {checks.attempted} failed {checks.failed} "
          f"fail_frac {fail_frac:.6g}")
    for what, count in checks.failures.items():
        print(f"# FAILED x{count}: {what}")
    for name, value in e2e.items():
        print(f"{name:28s} {_fmt(value):>14s} {END_TO_END[name]}")
    if layers is not None:
        for name, value in layers.items():
            print(f"{name:28s} {_fmt(value):>14s} {PER_LAYER[name]}")
        if traced:
            print(f"# spans written to {OUT.relative_to(HERE.parent)}/")
    chosen, units = (layers, PER_LAYER) if traced else (e2e, END_TO_END)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
