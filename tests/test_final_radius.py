"""The final objective evaluation: a parallel, traced pass on the job's
executor that must agree bit for bit with the serial covering radius.

``mrg``, ``mr_hs`` and ``eim`` evaluate their answer through
:func:`repro.core.evaluation.final_radius`: one task per contiguous row
block against driver-gathered center coordinates (or the serial pass
when too small to pay for a dispatch), run on the job's executor inside
its shared-memory scope.  These tests pin what that may not change —
the radius bits, the distance count, the round books — across backends
and in-memory/sharded input, whatever partition the job itself used,
and that a traced solve's round spans (the evaluation included) cover
its solve span.
"""

import numpy as np
import pytest

import repro
from repro.core import evaluation
from repro.core.assignment import covering_radius
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.partition import block_partition
from repro.mapreduce.tasks import capture_specs
from repro.obs import trace as _trace
from repro.store import shm

ALGOS = ("mrg", "mr_hs", "eim")
N, K, M = 3_000, 6, 8


@pytest.fixture(scope="module")
def points():
    return repro.make_dataset("gau", N, seed=5).points


@pytest.fixture(scope="module")
def shard_dir(points, tmp_path_factory):
    path = tmp_path_factory.mktemp("final-radius") / "shards"
    repro.make_sharded("gau", N, path, shards=3, seed=5, chunk_size=512)
    return str(path)


@pytest.fixture(scope="module")
def executors():
    pools = {
        "sequential": SequentialExecutor(),
        "thread": ThreadPoolExecutorBackend(2).open(),
        "process": ProcessPoolExecutorBackend(2).open(),
    }
    yield pools
    for pool in pools.values():
        pool.close()


@pytest.fixture(params=["per-block", "serial"])
def split(request, monkeypatch):
    """Expected evaluation tasks: one per block of ``block_partition(N,
    M)``, or — these passes being far below ``M * MIN_TASK_EVALS`` —
    none: the serial pass on the driver."""
    if request.param == "per-block":
        monkeypatch.setattr(evaluation, "MIN_TASK_EVALS", 1)
        return M
    return 0


def _space(kind, points, shard_dir):
    if kind == "memory":
        return repro.EuclideanSpace(points)
    return repro.as_space(shard_dir)


def _serial(points, centers):
    return covering_radius(repro.EuclideanSpace(points), centers)


def _solve(space, algo, executor, evaluate=True, seed=3):
    before = space.counter.evals
    result = repro.solve(
        space, K, algo, m=M, seed=seed, executor=executor, evaluate=evaluate
    )
    return result, space.counter.evals - before


@pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
@pytest.mark.parametrize("kind", ["memory", "sharded"])
@pytest.mark.parametrize("algo", ALGOS)
def test_parallel_radius_equals_serial(
    algo, kind, backend, split, points, shard_dir, executors
):
    space = _space(kind, points, shard_dir)
    with capture_specs() as rounds:
        result, evals = _solve(space, algo, executors[backend])
    labels = [label for label, _ in rounds]
    evaluation_specs = [specs for label, specs in rounds if label == "final.radius"]
    if split:
        assert labels[-1] == "final.radius"
        assert [len(specs) for specs in evaluation_specs] == [split]
        labels = labels[:-1]
    else:
        assert not evaluation_specs

    serial = covering_radius(_space(kind, points, shard_dir), result.centers)
    assert result.radius == serial  # bit for bit

    # The evaluation is not a round: the books describe the algorithm alone.
    assert result.n_rounds == len(result.stats.rounds) == len(labels)
    assert [r.label for r in result.stats.rounds] == labels
    # ... and it counts exactly the serial pass's n * k evaluations, into
    # the space's counter where the serial call put them.
    assert evals == result.stats.dist_evals + N * K

    # Identical to the job without evaluation, round for round.
    plain, plain_evals = _solve(
        _space(kind, points, shard_dir), algo, executors[backend], evaluate=False
    )
    assert np.array_equal(plain.centers, result.centers)
    assert [r.dist_evals for r in plain.stats.rounds] == [
        r.dist_evals for r in result.stats.rounds
    ]
    assert plain_evals == result.stats.dist_evals


@pytest.mark.parametrize("algo", ALGOS)
def test_evaluate_false_dispatches_nothing(algo, points):
    with capture_specs() as rounds:
        result, evals = _solve(
            repro.EuclideanSpace(points), algo, None, evaluate=False
        )
    assert "final.radius" not in [label for label, _ in rounds]
    assert result.eval_time == 0.0
    assert evals == result.stats.dist_evals


def test_eim_publishes_once(points, executors, monkeypatch):
    published = []
    real = shm.publish_points

    def counting(block):
        handle = real(block)
        published.append(handle)
        return handle

    monkeypatch.setattr(shm, "publish_points", counting)
    monkeypatch.setattr(evaluation, "MIN_TASK_EVALS", 1)  # evaluate on the pool
    tracer = _trace.Tracer()
    with _trace.activate(tracer):
        result, _ = _solve(repro.EuclideanSpace(points), "eim", executors["process"])
    assert len(published) == 1 and published[0] is not None
    driver = [s.name for s in tracer.spans if s.cat == "driver"]
    assert driver.count("publish") == 1
    assert result.radius == _serial(points, result.centers)


@pytest.mark.parametrize("algo", ["mrg", "mr_hs"])
def test_evaluation_ignores_the_job_partition(algo, points, monkeypatch):
    """A partitioner that drops a row still gets every point measured
    exactly once: the evaluation splits ``range(n)`` itself."""
    monkeypatch.setattr(evaluation, "MIN_TASK_EVALS", 1)
    outlier = np.vstack([points, np.full((1, points.shape[1]), 1e3)])
    n = len(outlier)

    def drop_last(size, machines, seed=None):
        blocks = block_partition(size, machines)
        return blocks[:-1] + [blocks[-1][blocks[-1] != n - 1]]

    space = repro.EuclideanSpace(outlier)
    with capture_specs() as rounds:
        result = repro.solve(space, K, algo, m=M, seed=1, partitioner=drop_last)
    assert n - 1 not in result.centers
    assert result.radius == _serial(outlier, result.centers)
    blocks = [spec.args[1] for spec in dict(rounds)["final.radius"]]
    assert np.array_equal(np.concatenate(blocks), np.arange(n))
    assert space.counter.evals == result.stats.dist_evals + n * K


def test_non_euclidean_space_evaluates_serially(points, monkeypatch):
    """No coordinates to hand the tasks: the serial pass, same span."""
    monkeypatch.setattr(evaluation, "MIN_TASK_EVALS", 1)
    space = repro.MinkowskiSpace(points[:600], p=1.0)
    with capture_specs() as rounds:
        result = repro.solve(space, K, "mrg", m=M, seed=1)
    assert "final.radius" not in dict(rounds)
    assert result.radius == covering_radius(space, result.centers)


def test_single_machine_mrg(points, monkeypatch):
    """No reduction round: the evaluation still splits into m blocks."""
    monkeypatch.setattr(evaluation, "MIN_TASK_EVALS", 1)
    with capture_specs() as rounds:
        result = repro.solve(points, K, "mrg", m=M, capacity=N)
    assert result.n_rounds == 1
    assert len(dict(rounds)["final.radius"]) == M
    assert result.radius == _serial(points, result.centers)


def _covered(parent, children) -> float:
    """Length of ``parent`` covered by the union of ``children``."""
    end_of = parent.start + parent.duration
    spans = sorted(
        (max(c.start, parent.start), min(c.start + c.duration, end_of))
        for c in children
    )
    total, cur_start, cur_end = 0.0, None, None
    for start, end in spans:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@pytest.mark.parametrize("per_block", [False, True], ids=["serial", "per-block"])
def test_traced_sharded_mrg_span_coverage(per_block, tmp_path, monkeypatch):
    """Round spans plus ``final.radius`` cover >= 95% of the solve span,
    whether the evaluation runs serially (this size's default) or one
    task per block; the driver's partition phase is a span too."""
    n, k, m = 100_000, 40, 16
    if per_block:
        monkeypatch.setattr(evaluation, "MIN_TASK_EVALS", 1)
    repro.make_sharded("gau", n, tmp_path / "s", shards=4, seed=0)
    space = repro.as_space(str(tmp_path / "s"))
    tracer = _trace.Tracer()
    with _trace.activate(tracer):
        result = repro.solve(space, k, "mrg", m=m, seed=0)
    assert result.radius == covering_radius(space, result.centers)

    (solve,) = [s for s in tracer.spans if s.cat == "solve"]
    rounds = [s for s in tracer.spans if s.cat == "round"]
    assert [s.name for s in rounds][-1] == "final.radius"
    tasks = [s for s in tracer.spans if s.cat == "task"]
    assert sum(s.name.startswith("final.radius[") for s in tasks) == (
        m if per_block else 0
    )
    assert "partition" in {s.name for s in tracer.spans if s.cat == "driver"}
    assert _covered(solve, rounds) >= 0.95 * solve.duration
