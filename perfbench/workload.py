"""One workload in one fresh process (run by ``run.py``; not an entry point
of its own).

Usage: ``python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE WORKDIR``

Sets the workload up several times (set-up time is their median), then
times operations for ``SECONDS`` and writes every raw observation —
timings, results, accounting, span summaries — to ``WORKDIR/raw.json``.
Correctness is judged afterwards by ``run.py``, outside this process, so
the reference computations never share this process's memory peak.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from common import (
    BOOTS, OUT, SERVE, SOLVER_SEEDS, SRC, WORKERS, batch_shape, gau_points,
    process_tree, serve_spaces, shm_segments, tree_peak_rss_mb,
)


def _other_children() -> int:
    """Live descendants, not counting multiprocessing's resource tracker
    (a helper that lives exactly as long as this interpreter)."""
    count = 0
    for pid in process_tree(os.getpid())[1:]:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"resource_tracker" in fh.read():
                    continue
        except OSError:
            continue
        count += 1
    return count


# ---------------------------------------------------------------------- #
# batch workloads: mrg-1m-sharded, eim-50k
# ---------------------------------------------------------------------- #
def run_batch(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    import repro
    from repro.mapreduce.executor import ProcessPoolExecutorBackend
    from repro.obs import trace as _trace

    import probes

    shape = batch_shape(name)
    sharded = name == "mrg-1m-sharded"
    if traced:
        probes.install_wrappers()  # before any pool forks its workers
    shm_before = shm_segments()
    warm = repro.EuclideanSpace(gau_points(5_000, seed + 1))

    setup_s, pool, data_dir = [], None, None
    for boot in range(BOOTS):
        if pool is not None:
            pool.close()
        start = time.perf_counter()
        if sharded:
            data_dir = work / f"shards-{boot}"
            repro.make_sharded(
                "gau", shape["n"], data_dir, shards=shape["shards"], seed=seed,
                chunk_size=shape["chunk_size"], dim=shape["dim"],
            )
            space = repro.as_space(str(data_dir))
        else:
            space = repro.EuclideanSpace(gau_points(shape["n"], seed, shape["dim"]))
        pool = ProcessPoolExecutorBackend(WORKERS).open()
        repro.solve(warm, shape["k"], shape["algo"], m=shape["m"], seed=0,
                    executor=pool)
        setup_s.append(time.perf_counter() - start)
        if sharded and boot:
            shutil.rmtree(work / f"shards-{boot - 1}")

    def solve_once(wrapped: bool, solver_seed: int) -> dict:
        executor = probes.TimedExecutor(pool) if wrapped else pool
        tracer = _trace.Tracer() if wrapped else None
        before = space.counter.evals
        start = time.perf_counter()
        with _trace.activate(tracer) if tracer else nullcontext():
            result = repro.solve(space, shape["k"], shape["algo"], m=shape["m"],
                                 seed=solver_seed, executor=executor)
        wall = time.perf_counter() - start
        stats = result.stats
        rec = {
            "wrapped": wrapped,
            "solver_seed": solver_seed,
            "wall_s": wall,
            "alg_s": result.wall_time,
            "eval_s": result.eval_time,
            "rounds": result.n_rounds,
            "tasks": sum(r.n_tasks for r in stats.rounds),
            "task_s": stats.cpu_time,
            "task_dist_evals": stats.dist_evals,
            "dist_evals": space.counter.evals - before,
            "retries": stats.retries,
            "centers": [int(c) for c in result.centers],
            "radius": result.radius,
            "approx_factor": result.approx_factor,
        }
        if wrapped:
            rec["round_wall_s"] = sum(executor.round_walls)
            rec["spans"] = probes.span_layers(tracer.spans)
            traces.append(tracer)
        return rec

    solves, traces = [], []
    # Solves cycle through SOLVER_SEEDS solver seeds: EIM's loop runs 4
    # iterations on most seeds and 5 on about a third, so a run that used
    # one seed throughout would time one or the other.  Traced runs pair a
    # plain solve with a wrapped, traced one of the same seed: the plain
    # ones give the tracing overhead and the bit-identity reference.  An
    # untraced run goes on until some seed has been solved twice.
    plan = (False, True) if traced else (False,)
    least = 2 if traced else SOLVER_SEEDS + 1
    begin = time.perf_counter()
    for turn in itertools.count():
        for wrapped in plan:
            solves.append(solve_once(wrapped, seed * 1000 + turn % SOLVER_SEEDS))
        elapsed = time.perf_counter() - begin
        last = sum(s["wall_s"] for s in solves[-len(plan):])
        if turn + 1 >= least and elapsed + last > seconds:
            break
    measured_s = time.perf_counter() - begin

    peak_rss_mb = tree_peak_rss_mb(os.getpid())
    pool.close()
    if traces:
        _export([e for t in traces for e in t.chrome_events()], name, seed)
    return {
        "setup_s": setup_s,
        "measured_s": measured_s,
        "solves": solves,
        "peak_rss_mb": peak_rss_mb,
        "data_dir": str(data_dir) if sharded else None,
        "shm_leaked": len(shm_segments() - shm_before),
        "children_leaked": _other_children(),
    }


def _export(events: list, name: str, seed: int) -> None:
    """Write the run's spans, as Chrome trace events, once it has ended."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-seed{seed}.trace.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #
def _start_server(work: Path) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = open(work / "server.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--backend", "thread", "--pool-size", str(WORKERS),
         "--cache-points", str(SERVE["n_small"])],
        stdout=subprocess.PIPE, stderr=log, env=env,
    )
    log.close()
    line = proc.stdout.readline().decode()  # "... listening on HOST:PORT (...)"
    if "listening on" not in line:
        _stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.split("listening on ")[1].split()[0].rsplit(":", 1)
    return proc, host, int(port)


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _record(req, phase: str) -> dict:
    resp = req.response or {}
    out = {"kind": req.kind, "space": req.space, "seed": req.seed,
           "phase": phase, "due": req.due, "sent": req.sent, "done": req.done,
           "ok": bool(resp.get("ok")),
           "error": (resp.get("error") or {}).get("code") if req.response else "no-reply"}
    if out["ok"]:
        result, acct = resp["result"], resp["accounting"]
        out.update(
            centers=result["centers"], radius=result["radius"],
            approx_factor=result["approx_factor"], rounds=result["rounds"],
            alg_s=result["wall_time"], eval_s=result["eval_time"],
            queue_ms=acct["queue_ms"], solve_ms=acct["solve_ms"],
            batch_runs=acct["batch_runs"],
            dist_evals=acct["summary"]["dist_evals"],
            task_s=acct["summary"]["cpu_time"],
        )
    return out


def _probe(client, path: str) -> dict:
    """Idle-server probe: plain versus ``progress`` (traced) large solves."""
    s = SERVE
    args = dict(algo="mrg", k=s["k_large"], data=path, seed=0,
                options={"m": s["m_large"]}, timeout=s["timeout_s"])
    plain, traced, coverage, events = [], [], [], []
    client.solve(**args)  # warm: the load phases just ended
    for _ in range(4):
        start = time.perf_counter()
        client.solve(**args)
        plain.append(time.perf_counter() - start)
        start = time.perf_counter()
        spans, _final = client.solve_progress(**args)
        traced.append(time.perf_counter() - start)
        solve = [e for e in spans if e["cat"] == "solve"]
        rounds = [e for e in spans if e["cat"] == "round"]
        coverage.append(sum(r["duration"] for r in rounds) / solve[0]["duration"])
        events.extend(spans)
    return {"plain_s": plain, "traced_s": traced, "coverage": coverage,
            "events": events}


def run_serve(seed: int, seconds: float, traced: bool, work: Path) -> dict:
    from repro.serve import ServeClient

    import serveload

    s = SERVE
    shm_before = shm_segments()
    setup_s, proc, paths = [], None, []
    for boot in range(BOOTS):
        if proc is not None:
            _stop_server(proc)
        start = time.perf_counter()
        spaces = serve_spaces(seed)
        paths = []
        for j, rows in enumerate(spaces["large"]):
            path = work / f"large-{j}.npy"
            np.save(path, rows)
            paths.append(str(path))
        proc, host, port = _start_server(work)
        with ServeClient(host, port, timeout=60) as warm:
            warm.solve("gon", s["k_small"], points=spaces["hot"], seed=0)
            warm.solve("mrg", s["k_large"], data=paths[0], seed=0,
                       options={"m": s["m_large"]})
        setup_s.append(time.perf_counter() - start)

    bodies = serveload.encode_bodies(spaces, paths)
    control = ServeClient(host, port, timeout=60)
    conns = [serveload.Connection(host, port) for _ in range(s["connections"])]
    try:
        before = control.stats()
        opened = serveload.open_loop(
            conns, serveload.request_stream(seed, 0, bodies, 0),
            s["open_rate"], seconds * s["open_share"])
        closed, c_start, c_end = serveload.closed_loop(
            conns, serveload.request_stream(seed, 1, bodies, 10**6),
            s["window"], seconds * (1 - s["open_share"]))
        after = control.stats()
        probe = _probe(control, paths[0]) if traced else None
        for _ in range(100):  # let the counters settle before the balance check
            final = control.stats()
            if final["pending"] == 0:
                break
            time.sleep(0.05)
        peak_rss_mb = tree_peak_rss_mb(os.getpid())
    finally:
        for conn in conns:
            conn.close()
        control.close()
        _stop_server(proc)
    if probe is not None:
        _export([
            {"name": e["name"], "cat": e["cat"], "ph": "X", "ts": e["start"] * 1e6,
             "dur": e["duration"] * 1e6, "pid": 0, "tid": 0, "args": e.get("args", {})}
            for e in probe.pop("events")
        ], "serve-mix", seed)
    return {
        "setup_s": setup_s,
        "requests": [_record(r, "open") for r in opened]
        + [_record(r, "closed") for r in closed],
        "closed_window": [c_start, c_end],
        "stats_before": before,
        "stats_after": after,
        "stats_final": final,
        "probe": probe,
        "large_paths": paths,
        "peak_rss_mb": peak_rss_mb,
        "shm_leaked": len(shm_segments() - shm_before),
        "children_leaked": _other_children(),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, traced, work = argv
    work = Path(work)
    if name == "serve-mix":
        raw = run_serve(int(seed), float(seconds), traced == "1", work)
    else:
        raw = run_batch(name, int(seed), float(seconds), traced == "1", work)
    (work / "raw.json").write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
