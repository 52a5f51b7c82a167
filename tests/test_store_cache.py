"""DistanceCache: shared matrices for repeated-space batches.

The contract under test (ISSUE acceptance): a repeated-space
``solve_many`` batch with a cache shows hits while producing **unchanged
records** — identical centers and distance-evaluation counts, radii equal
to kernel round-off (bit-equal for the block-kernel solvers).
"""

import numpy as np
import pytest

import repro
from repro.errors import InvalidParameterError
from repro.mapreduce.executor import ThreadPoolExecutorBackend
from repro.metric import EuclideanSpace, PrecomputedSpace
from repro.metric.base import DistCounter
from repro.store import DistanceCache


@pytest.fixture
def space():
    pts = np.random.default_rng(8).uniform(0.0, 100.0, size=(350, 3))
    return EuclideanSpace(pts)


class TestCacheMechanics:
    def test_hit_miss_accounting(self, space):
        cache = DistanceCache(max_points=512)
        m1 = cache.matrix_for(space)
        m2 = cache.matrix_for(space)
        assert m1 is m2
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats()["entries"] == 1

    def test_matrix_matches_space_distances(self, space):
        cache = DistanceCache(max_points=512)
        matrix = cache.matrix_for(space)
        idx = np.arange(25, dtype=np.intp)
        want = space.cross(idx, idx)
        got = matrix[np.ix_(idx, idx)]
        # atol covers the self-distance dust of the on-demand GEMM
        # expansion (the cache zeroes the diagonal exactly instead)
        np.testing.assert_allclose(want, got, atol=1e-5)
        assert np.all(np.diag(matrix) == 0.0)

    def test_space_for_wraps_and_counts(self, space):
        cache = DistanceCache(max_points=512)
        c1, c2 = DistCounter(), DistCounter()
        v1 = cache.space_for(space, c1)
        v2 = cache.space_for(space, c2)
        assert isinstance(v1, PrecomputedSpace) and isinstance(v2, PrecomputedSpace)
        assert (c1.cache_misses, c1.cache_hits) == (1, 0)
        assert (c2.cache_misses, c2.cache_hits) == (0, 1)

    def test_large_space_passes_through(self, space):
        cache = DistanceCache(max_points=100)
        assert not cache.cacheable(space)
        assert cache.space_for(space, DistCounter()) is space
        with pytest.raises(InvalidParameterError):
            cache.matrix_for(space)

    def test_eviction_cap(self):
        cache = DistanceCache(max_points=64, max_entries=2)
        spaces = [
            EuclideanSpace(np.random.default_rng(i).normal(size=(20, 2)))
            for i in range(3)
        ]
        for s in spaces:
            cache.matrix_for(s)
        assert cache.stats()["entries"] == 2
        cache.matrix_for(spaces[0])  # evicted -> rebuilt
        assert cache.misses == 4

    def test_construction_does_not_pollute_accounting(self, space):
        cache = DistanceCache(max_points=512)
        cache.matrix_for(space)
        assert space.counter.evals == 0

    def test_precomputed_input_is_neither_written_nor_aliased(self):
        pts = np.random.default_rng(3).normal(size=(40, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        np.fill_diagonal(d, 1e-13)  # within the validator's tolerance
        before = d.copy()
        matrix = DistanceCache(max_points=64).matrix_for(PrecomputedSpace(d))
        assert np.array_equal(d, before)
        assert not np.shares_memory(matrix, d)
        assert np.all(np.diag(matrix) == 0.0)

    def test_counter_reset_clears_cache_fields(self):
        c = DistCounter(evals=5, cache_hits=2, cache_misses=1)
        c.reset()
        assert (c.evals, c.cache_hits, c.cache_misses) == (0, 0, 0)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            DistanceCache(max_points=0)
        with pytest.raises(InvalidParameterError):
            DistanceCache(max_entries=0)


class TestSolveManyWithCache:
    ALGOS = ("stream", "gon", "hs")

    def test_repeated_space_batch_hits_with_unchanged_records(self, space):
        """ISSUE acceptance: >0 hits, records unchanged."""
        cache = DistanceCache(max_points=512)
        plain = repro.solve_many(space, 7, algorithms=self.ALGOS, seeds=(0, 1))
        cached = repro.solve_many(
            space, 7, algorithms=self.ALGOS, seeds=(0, 1), cache=cache
        )
        assert cache.hits > 0
        assert plain.keys() == cached.keys()
        for key in plain:
            assert np.array_equal(plain[key].centers, cached[key].centers), key
            # block-kernel distances are reused bit-for-bit; the fused
            # point kernel (gon's traversal) agrees to kernel round-off
            assert plain[key].radius == pytest.approx(
                cached[key].radius, rel=1e-9, abs=1e-9
            ), key
        # six runs, one matrix build
        assert (cache.hits, cache.misses) == (5, 1)

    def test_block_solver_records_bit_identical(self, space):
        cache = DistanceCache(max_points=512)
        plain = repro.solve_many(space, 7, algorithms=("stream",), seeds=(0, 1, 2))
        cached = repro.solve_many(
            space, 7, algorithms=("stream",), seeds=(0, 1, 2), cache=cache
        )
        for key in plain:
            assert np.array_equal(plain[key].centers, cached[key].centers)
            assert plain[key].radius == cached[key].radius
            assert plain[key].extra["threshold"] == cached[key].extra["threshold"]

    def test_cache_shared_across_batches(self, space):
        cache = DistanceCache(max_points=512)
        repro.solve_many(space, 5, algorithms=("stream",), seeds=(0,), cache=cache)
        repro.solve_many(space, 9, algorithms=("gon",), seeds=(1,), cache=cache)
        assert cache.misses == 1 and cache.hits == 1

    def test_thread_backend_counts_consistent(self, space):
        cache = DistanceCache(max_points=512)
        results = repro.solve_many(
            space,
            6,
            algorithms=("stream", "gon"),
            seeds=range(3),
            cache=cache,
            executor=ThreadPoolExecutorBackend(max_workers=4),
        )
        assert len(results) == 6
        assert cache.hits + cache.misses == 6
        assert cache.misses == 1

    def test_mapreduce_solver_unaffected_by_uncacheable_space(self, space):
        # mrg on a space above the cap: cache must be a transparent no-op
        cache = DistanceCache(max_points=10)
        plain = repro.solve_many(space, 5, algorithms=("mrg",), seeds=(0,), m=4)
        cached = repro.solve_many(
            space, 5, algorithms=("mrg",), seeds=(0,), m=4, cache=cache
        )
        key = next(iter(plain))
        assert np.array_equal(plain[key].centers, cached[key].centers)
        assert plain[key].radius == cached[key].radius
        assert plain[key].stats.dist_evals == cached[key].stats.dist_evals
        assert cache.hits == 0 and cache.misses == 0

    def test_pickles_for_process_pools(self, space):
        import pickle

        cache = DistanceCache(max_points=512)
        cache.matrix_for(space)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.stats()["entries"] == 1
        assert clone.misses == 1


class TestContentKeys:
    def test_equal_spaces_share_one_matrix(self):
        """ISSUE regression: two separately-constructed equal spaces must
        hit the same entry (id-keying never hit across rebuilds)."""
        pts = np.random.default_rng(4).normal(size=(40, 3))
        cache = DistanceCache(max_points=128)
        m1 = cache.matrix_for(EuclideanSpace(pts))
        m2 = cache.matrix_for(EuclideanSpace(pts.copy()))
        assert m1 is m2
        assert (cache.hits, cache.misses) == (1, 1)

    def test_chunked_twin_shares_the_in_memory_entry(self):
        # Same bits, different residency: the out-of-core adapter must
        # reuse the matrix built for the in-memory space (its distances
        # are bit-identical by the store layer's parity contract).
        from repro.store import ArrayStream, ChunkedMetricSpace

        pts = np.random.default_rng(5).normal(size=(50, 2))
        cache = DistanceCache(max_points=128)
        cache.matrix_for(EuclideanSpace(pts))
        cache.matrix_for(ChunkedMetricSpace(ArrayStream(pts, chunk_size=7)))
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_content_never_collides(self):
        pts = np.random.default_rng(6).normal(size=(60, 2))
        cache = DistanceCache(max_points=128)
        cache.matrix_for(EuclideanSpace(pts[:30]))
        matrix = cache.matrix_for(EuclideanSpace(pts[30:]))
        assert cache.misses == 2 and cache.hits == 0
        assert matrix[0, 1] == pytest.approx(
            EuclideanSpace(pts[30:]).dist(0, 1), abs=1e-8
        )

    def test_metric_parameters_are_part_of_the_key(self):
        # Same coordinates, different metric (or p): distinct entries.
        from repro.metric.minkowski import MinkowskiSpace

        pts = np.random.default_rng(7).normal(size=(25, 3))
        cache = DistanceCache(max_points=128)
        cache.matrix_for(MinkowskiSpace(pts, p=1.0))
        cache.matrix_for(MinkowskiSpace(pts, p=np.inf))
        cache.matrix_for(EuclideanSpace(pts))
        assert (cache.hits, cache.misses) == (0, 3)

    def test_fingerprintless_space_falls_back_to_pinned_identity(self):
        """A space that cannot fingerprint itself still caches, keyed on
        identity with the object pinned (a recycled id must rebuild)."""

        class OpaqueSpace(EuclideanSpace):
            def fingerprint(self):
                return None

        pts = np.random.default_rng(1).normal(size=(60, 2))
        cache = DistanceCache(max_points=128)
        s1 = OpaqueSpace(pts[:30])
        m1 = cache.matrix_for(s1)
        assert cache.matrix_for(s1) is m1
        s2 = OpaqueSpace(pts[30:])
        # simulate CPython recycling s1's address for s2
        cache._entries[("id", id(s2))] = cache._entries.pop(("id", id(s1)))
        matrix = cache.matrix_for(s2)
        assert cache.misses == 2
        assert matrix.shape == (30, 30)
        assert matrix[0, 1] == pytest.approx(s2.dist(0, 1), abs=1e-8)


class TestByteBound:
    """max_bytes: the long-lived server cache holds bounded memory."""

    def _space(self, n, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 2))
        return EuclideanSpace(pts)

    def test_total_bytes_evicts_lru(self):
        # Each 40-point matrix is 40*40*8 = 12800 bytes; cap at two.
        cache = DistanceCache(max_points=128, max_entries=8, max_bytes=26_000)
        for seed in range(3):
            cache.matrix_for(self._space(40, seed))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] <= 26_000
        # The oldest entry was the one evicted: re-requesting it misses.
        cache.matrix_for(self._space(40, 0))
        assert cache.misses == 4

    def test_space_over_byte_cap_is_not_cacheable(self):
        cache = DistanceCache(max_points=4096, max_bytes=1000)
        big = self._space(40, 0)  # matrix alone is 12.8 kB
        assert not cache.cacheable(big)
        # space_for passes it through untouched instead of raising
        assert cache.space_for(big) is big
        small = self._space(10, 1)  # 800 bytes fits
        assert cache.cacheable(small)
        cache.matrix_for(small)
        assert cache.stats()["entries"] == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DistanceCache(max_bytes=0)
        with pytest.raises(InvalidParameterError):
            DistanceCache(max_bytes=-5)
