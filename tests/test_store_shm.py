"""Zero-copy shared-memory space transport (`repro.store.shm`).

The contract: inside a :func:`~repro.store.shm.shared_space` scope an
in-memory space pickles as a ~100-byte handle, workers attach the
published block by name and see the *exact* float64 bytes, the segment
dies with the scope — and none of it changes a single output bit.  This
is the only route an in-memory space (coordinates or a distance matrix)
takes into a process worker; the spill file is its fallback when the
segment cannot be created.
"""

import os
import pickle

import numpy as np
import pytest

import repro
from repro.core.mr_hochbaum_shmoys import mr_hochbaum_shmoys
from repro.core.eim import eim
from repro.core.mrg import mrg
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.metric.euclidean import EuclideanSpace
from repro.metric.minkowski import MinkowskiSpace
from repro.metric.precomputed import PrecomputedSpace
from repro.store import shm
from repro.store.cache import DistanceCache
from repro.store.shm import SharedPoints, publish_points, shared_space


@pytest.fixture
def points():
    return np.random.default_rng(17).normal(size=(400, 3))


def _attach_shape(handle: SharedPoints):
    return handle.attach().shape


def _no_segments(*_args, **_kwargs):
    raise OSError("no shared memory on this host")


@pytest.fixture
def force_spill(monkeypatch):
    """Make creating a segment fail, as on a host without /dev/shm."""
    monkeypatch.setattr(shm, "_publish_shm", _no_segments)


class TestPublishAttach:
    def test_roundtrip_is_bit_identical_and_readonly(self, points):
        handle = publish_points(points)
        try:
            attached = handle.attach()
            assert attached.dtype == np.float64
            assert np.array_equal(attached, points)
            assert not attached.flags.writeable
            # squared norms match the in-memory space's einsum bit-for-bit
            _, sq = handle.attach_with_sq()
            assert np.array_equal(sq, np.einsum("ij,ij->i", points, points))
        finally:
            handle.unpublish()

    def test_handle_pickles_small(self, points):
        handle = publish_points(points)
        try:
            blob = pickle.dumps(handle)
            assert len(blob) < 512  # a handle, not the rows
            clone = pickle.loads(blob)
            assert np.array_equal(clone.attach(), points)
        finally:
            handle.unpublish()

    def test_unpublish_is_idempotent_and_blocks_new_attach(self, points):
        handle = publish_points(points)
        handle.unpublish()
        handle.unpublish()
        fresh = SharedPoints(handle.kind, handle.token, handle.shape)
        with pytest.raises((FileNotFoundError, OSError)):
            fresh.attach()

    def test_spill_fallback_roundtrip_and_cleanup(self, points, force_spill):
        handle = publish_points(points)
        assert handle.kind == "spill"
        path = handle.token
        try:
            assert os.path.exists(path)
            assert np.array_equal(handle.attach(), points)
        finally:
            handle.unpublish()
        assert not os.path.exists(path)

    def test_worker_attachment_is_cached_per_process(self, points):
        handle = publish_points(points)
        try:
            first = handle.attach()
            second = pickle.loads(pickle.dumps(handle)).attach()
            assert second is first  # one mapping per process, not per task
        finally:
            handle.unpublish()


class TestSharedSpaceScope:
    def test_noop_for_sequential_and_thread_backends(self, points):
        space = EuclideanSpace(points)
        for executor in (SequentialExecutor(), ThreadPoolExecutorBackend(2)):
            with shared_space(space, executor) as out:
                assert out is space

    def test_process_backend_gets_a_published_clone(self, points):
        space = EuclideanSpace(points)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with shared_space(space, executor) as out:
            assert out is not space
            assert out._shared is not None
            assert out.counter is space.counter  # shallow clone: shared state
            # pickling the clone ships the handle, not the (400, 3) rows
            blob = pickle.dumps(out)
            assert len(blob) < points.nbytes / 4
            revived = pickle.loads(blob)
            assert np.array_equal(revived.points, points)
            assert np.array_equal(revived._sq, space._sq)
        assert space._shared is None  # original untouched

    def test_scope_cleans_up_on_error(self, points):
        space = EuclideanSpace(points)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with pytest.raises(RuntimeError, match="boom"):
            with shared_space(space, executor) as out:
                handle = out._shared
                raise RuntimeError("boom")
        fresh = SharedPoints(handle.kind, handle.token, handle.shape)
        with pytest.raises((FileNotFoundError, OSError)):
            fresh.attach()

    def test_minkowski_ships_by_handle(self, points):
        space = MinkowskiSpace(points, p=1.0)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with shared_space(space, executor) as out:
            revived = pickle.loads(pickle.dumps(out))
            assert revived.p == 1.0
            assert np.array_equal(revived.points, points)
            ref = space.cross(np.arange(10), np.arange(10, 20))
            assert np.array_equal(revived.cross(np.arange(10), np.arange(10, 20)), ref)


class TestEndToEndParity:
    """The acceptance claim: every transport path reproduces the
    sequential in-memory bits — centers, radius, dist_evals."""

    @pytest.fixture(scope="class")
    def big(self):
        return np.random.default_rng(23).normal(size=(3000, 4))

    @pytest.fixture(scope="class")
    def reference(self, big):
        return {
            "mrg": mrg(EuclideanSpace(big), 8, m=6, seed=3),
            "mrhs": mr_hochbaum_shmoys(EuclideanSpace(big), 8, m=6, seed=3),
        }

    @pytest.mark.parametrize("mode", ["shm", "spill"])
    def test_process_pool_solvers_bit_identical(
        self, big, reference, mode, monkeypatch
    ):
        if mode == "spill":
            monkeypatch.setattr(shm, "_publish_shm", _no_segments)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = {
                "mrg": mrg(EuclideanSpace(big), 8, m=6, seed=3, executor=ex),
                "mrhs": mr_hochbaum_shmoys(
                    EuclideanSpace(big), 8, m=6, seed=3, executor=ex
                ),
            }
        for name, ref in reference.items():
            assert (got[name].centers == ref.centers).all(), (mode, name)
            assert got[name].radius == ref.radius, (mode, name)
            assert got[name].stats.dist_evals == ref.stats.dist_evals, (mode, name)

    def test_solve_many_process_fanout_bit_identical(self, big):
        grid = dict(algorithms=("gon", "mrg"), seeds=(0, 1), m=6)
        ref = repro.solve_many(EuclideanSpace(big), 6, **grid)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = repro.solve_many(EuclideanSpace(big), 6, executor=ex, **grid)
        assert got.keys() == ref.keys()
        for key in ref:
            assert (got[key].centers == ref[key].centers).all(), key
            assert got[key].radius == ref[key].radius, key
        assert got.summary.dist_evals == ref.summary.dist_evals


def _matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


class TestPrecomputedOverProcessPool:
    """A distance-matrix space takes the same published route as a
    coordinate space: every solver reproduces its sequential bits on a
    process pool, and the job's space crosses as a handle."""

    K, M = 5, 6

    @pytest.fixture(scope="class")
    def matrix(self):
        return _matrix(np.random.default_rng(29).normal(size=(1200, 3)))

    SOLVERS = {
        "mrg": lambda space, **kw: mrg(space, 5, m=6, seed=2, **kw),
        "mr_hs": lambda space, **kw: mr_hochbaum_shmoys(space, 5, m=6, seed=2, **kw),
        # small threshold_coeff: the sampling loop runs instead of
        # falling straight back to GON
        "eim": lambda space, **kw: eim(
            space, 5, m=6, seed=2, eps=0.3, threshold_coeff=0.05, **kw
        ),
    }

    @pytest.mark.parametrize("algo", sorted(SOLVERS))
    def test_solver_bit_identical_to_sequential(self, matrix, algo):
        solve = self.SOLVERS[algo]
        ref = solve(PrecomputedSpace(matrix))
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = solve(PrecomputedSpace(matrix), executor=ex)
        if algo == "eim":
            assert ref.extra["iterations"] > 0
        assert np.array_equal(got.centers, ref.centers)
        assert got.radius == ref.radius
        assert got.stats.dist_evals == ref.stats.dist_evals

    # With a cache, each worker builds its matrix from the published
    # (read-only) block, so the build must not write into that block.
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_solve_many_bit_identical_to_sequential(self, matrix, cached):
        grid = dict(algorithms=("gon", "mrg", "eim"), seeds=(0, 1), m=self.M)
        cache = (lambda: DistanceCache()) if cached else (lambda: None)
        ref = repro.solve_many(PrecomputedSpace(matrix), self.K, cache=cache(), **grid)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = repro.solve_many(
                PrecomputedSpace(matrix), self.K, executor=ex, cache=cache(), **grid
            )
        assert got.keys() == ref.keys()
        for key in ref:
            assert np.array_equal(got[key].centers, ref[key].centers), key
            assert got[key].radius == ref[key].radius, key
            if ref[key].stats is not None:  # sequential GON keeps no job stats
                assert got[key].stats.dist_evals == ref[key].stats.dist_evals, key
        assert got.summary.dist_evals == ref.summary.dist_evals

    def test_published_clone_pickles_under_a_kib(self, matrix):
        space = PrecomputedSpace(matrix)
        with shared_space(space, ProcessPoolExecutorBackend(max_workers=1)) as out:
            blob = pickle.dumps(out)
            assert len(blob) < 1024
            revived = pickle.loads(blob)
            assert np.array_equal(revived.matrix, matrix)
            assert not revived.matrix.flags.writeable
        assert space._shared is None
        assert len(pickle.dumps(space)) > matrix.nbytes


class TestChunkedArrayOverProcessPool:
    """A chunked space over an in-memory array (``as_space(array,
    chunk_size=...)``) publishes the array under its
    :class:`~repro.store.stream.ArrayStream`: its tasks cross as a handle
    and every solver reproduces its sequential bits."""

    @pytest.fixture(scope="class")
    def big(self):
        return np.random.default_rng(31).normal(size=(3000, 3))

    def test_published_clone_pickles_under_a_kib(self, big):
        space = repro.as_space(big, chunk_size=512)
        with shared_space(space, ProcessPoolExecutorBackend(max_workers=1)) as out:
            blob = pickle.dumps(out)
            assert len(blob) < 1024
            revived = pickle.loads(blob)
            assert np.array_equal(revived.stream.points, big)
            assert not revived.stream.points.flags.writeable
            centers = np.arange(0, 3000, 300)
            assert revived.covering_radius(centers) == space.covering_radius(centers)
        assert space.stream._shared is None  # original untouched
        assert len(pickle.dumps(space)) > big.nbytes

    @pytest.mark.parametrize("algo", ["mrg", "mr_hs", "eim"])
    def test_solver_bit_identical_to_sequential(self, big, algo):
        def solve(**kw):
            space = repro.as_space(big, chunk_size=512)
            return repro.solve(space, 6, algo, m=5, seed=4, **kw)

        ref = solve()
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = solve(executor=ex)
        assert np.array_equal(got.centers, ref.centers)
        assert got.radius == ref.radius
        assert got.stats.dist_evals == ref.stats.dist_evals
