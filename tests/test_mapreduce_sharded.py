"""Sharded input through the MapReduce solvers (ISSUE 4 acceptance).

Three contracts:

* **bit-identity** — ``solve("mr_hs", k, data=<shard dir>)`` (and mrg)
  returns the same radius, centers and ``dist_evals`` as the in-memory
  mapreduce run, at every shard count including 1 and more shards than
  chunks;
* **bounded driver memory** — the sharded solve's peak traced allocation
  stays below full materialisation of ``(n, d)``;
* **backend parity** — ``solve_many`` records over a sharded directory
  are bit-identical on Sequential/Thread/Process backends (shards
  re-open via ``__reduce__`` in workers), and the in-solver executors
  agree too, per-round accounting included.
"""

import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.mr_hochbaum_shmoys import mr_hochbaum_shmoys
from repro.core.mrg import mrg
from repro.mapreduce import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
    block_partition,
    shard_aligned_partitioner,
)
from repro.metric.euclidean import EuclideanSpace
from repro.store import GeneratorStream, ShardedStream, machine_view, write_shards

K = 5
M = 6
N = 3000
CHUNK = 500  # 6 chunks: shard counts 1/4/7 cover aligned, split and empty


@pytest.fixture(scope="module")
def gen():
    return GeneratorStream("gau", N, seed=21, chunk_size=CHUNK, k_prime=8)


@pytest.fixture(scope="module")
def points(gen):
    return np.concatenate([block for block, _ in gen])


@pytest.fixture(scope="module")
def shard_dirs(gen, tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    dirs = {}
    for shards in (1, 4, 7):
        write_shards(gen, root / f"s{shards}", shards)
        dirs[shards] = str(root / f"s{shards}")
    return dirs


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_mr_hs_matches_in_memory_run(self, points, shard_dirs, shards):
        base = mr_hochbaum_shmoys(EuclideanSpace(points), K, m=M, seed=0)
        got = repro.solve("mr_hs", K, data=shard_dirs[shards], m=M, seed=0)
        assert np.array_equal(got.centers, base.centers)
        assert got.radius == base.radius
        assert got.stats.dist_evals == base.stats.dist_evals
        assert [r.dist_evals for r in got.stats.rounds] == [
            r.dist_evals for r in base.stats.rounds
        ]

    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_mrg_matches_in_memory_run(self, points, shard_dirs, shards):
        base = mrg(EuclideanSpace(points), K, m=M, seed=7)
        got = repro.solve("mrg", K, data=shard_dirs[shards], m=M, seed=7)
        assert np.array_equal(got.centers, base.centers)
        assert got.radius == base.radius
        assert got.stats.dist_evals == base.stats.dist_evals

    def test_multi_round_regime_matches_too(self, points, shard_dirs):
        # Small capacity forces MRG's while loop to iterate; the later
        # rounds run over non-contiguous center subsets (the local-view
        # fallback path of machine_view).
        base = mrg(EuclideanSpace(points), K, m=50, capacity=100, seed=3)
        got = repro.solve("mrg", K, data=shard_dirs[4], m=50, capacity=100, seed=3)
        assert base.extra["reduction_rounds"] > 1
        assert np.array_equal(got.centers, base.centers)
        assert got.radius == base.radius
        assert got.stats.dist_evals == base.stats.dist_evals


class TestBoundedDriverMemory:
    def test_sharded_mr_hs_peaks_below_full_materialisation(self, tmp_path):
        # d large relative to n/m^2 so the per-shard HS candidate matrix
        # ((n/m)^2) stays well under the (n, d) footprint the sharded
        # path must never allocate.
        n, d, m, k = 20_000, 64, 50, 4
        gen = GeneratorStream(
            "gau", n, seed=5, chunk_size=512, gen_block=512, dim=d, k_prime=10
        )
        path = write_shards(gen, tmp_path / "s", m).path
        full_bytes = n * d * 8
        tracemalloc.start()
        result = repro.solve("mr_hs", k, data=str(path), m=m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.stats.n_rounds == 2
        assert peak < 0.8 * full_bytes, (peak, full_bytes)


class TestBackendParity:
    GRID = dict(algorithms=("mrg", "mrhs", "stream", "gon"), seeds=(0, 1), m=M)

    @pytest.fixture(scope="class")
    def reference(self, shard_dirs):
        return repro.solve_many(
            shard_dirs[4], K, executor=SequentialExecutor(), **self.GRID
        )

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ThreadPoolExecutorBackend(max_workers=4),
            lambda: ProcessPoolExecutorBackend(max_workers=2),
        ],
        ids=["thread", "process"],
    )
    def test_solve_many_records_bit_identical(self, shard_dirs, reference, factory):
        batch = repro.solve_many(shard_dirs[4], K, executor=factory(), **self.GRID)
        assert batch.keys() == reference.keys()
        for key in reference:
            assert np.array_equal(batch[key].centers, reference[key].centers), key
            assert batch[key].radius == reference[key].radius, key
            ref_stats, got_stats = reference[key].stats, batch[key].stats
            if ref_stats is not None:
                assert got_stats.dist_evals == ref_stats.dist_evals, key
                assert got_stats.n_rounds == ref_stats.n_rounds, key

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ThreadPoolExecutorBackend(max_workers=4),
            lambda: ProcessPoolExecutorBackend(max_workers=2),
        ],
        ids=["thread", "process"],
    )
    def test_in_solver_executor_round_accounting_identical(
        self, shard_dirs, factory
    ):
        # Reducer tasks are picklable partials returning TaskOutput, so
        # even per-round dist_evals survive a process boundary.
        base = repro.solve("mr_hs", K, data=shard_dirs[4], m=M, seed=0)
        got = repro.solve(
            "mr_hs", K, data=shard_dirs[4], m=M, seed=0, executor=factory()
        )
        assert np.array_equal(got.centers, base.centers)
        assert got.radius == base.radius
        assert [r.dist_evals for r in got.stats.rounds] == [
            r.dist_evals for r in base.stats.rounds
        ]


class TestMachineView:
    def test_contiguous_range_stays_out_of_core(self, shard_dirs):
        space = repro.store.as_space(shard_dirs[4])
        view = machine_view(space, np.arange(500, 2100))
        from repro.store import ChunkedMetricSpace

        assert isinstance(view, ChunkedMetricSpace)
        assert view.n == 1600
        assert view.counter is not space.counter

    def test_non_contiguous_indices_materialise(self, shard_dirs, points):
        space = repro.store.as_space(shard_dirs[4])
        idx = np.asarray([5, 17, 900, 2999], dtype=np.intp)
        view = machine_view(space, idx)
        assert isinstance(view, EuclideanSpace)
        np.testing.assert_array_equal(view.points, points[idx])

    def test_views_are_bit_identical_between_paths(self, shard_dirs, points):
        space = repro.store.as_space(shard_dirs[4])
        idx = np.arange(600, 1700)
        chunked = machine_view(space, idx)
        local = EuclideanSpace(points[idx])
        ref = np.arange(chunked.n, dtype=np.intp)
        np.testing.assert_array_equal(
            chunked.cross(ref[:50], ref), local.cross(ref[:50], ref)
        )


class TestShardAlignedPartition:
    def test_boundaries_mode_cuts_only_at_permitted_offsets(self):
        bounds = np.asarray([0, 500, 1000, 1500, 2000, 2500, 3000])
        parts = block_partition(3000, 4, boundaries=bounds)
        cuts = [0] + [int(p[-1]) + 1 for p in parts if len(p)]
        assert all(c in set(bounds.tolist()) for c in cuts)
        assert np.array_equal(np.concatenate(parts), np.arange(3000))

    def test_more_machines_than_boundary_intervals(self):
        parts = block_partition(100, 5, boundaries=[0, 50, 100])
        assert np.array_equal(np.concatenate(parts), np.arange(100))
        assert sum(1 for p in parts if len(p)) <= 2

    def test_align_and_boundaries_are_exclusive(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="not both"):
            block_partition(100, 2, align=10, boundaries=[0, 100])

    def test_partitioner_feeds_solvers(self, shard_dirs, points):
        stream = ShardedStream(shard_dirs[4])
        part = shard_aligned_partitioner(stream.shard_bounds)
        # Shard-aligned cuts trade balance for whole-file reducer inputs,
        # so the capacity must fit the largest shard union.
        got = repro.solve(
            "mrg", K, data=shard_dirs[4], m=M, seed=2, partitioner=part,
            capacity=1500,
        )
        base = mrg(
            EuclideanSpace(points), K, m=M, seed=2, partitioner=part,
            capacity=1500,
        )
        assert np.array_equal(got.centers, base.centers)
        assert got.radius == base.radius
        # Every reducer input in round 1 is a union of whole shards: the
        # cumulative machine cuts all land on shard boundaries.
        cuts = np.cumsum([0] + got.extra["shard_sizes"][0])
        assert set(cuts.tolist()) <= set(stream.shard_bounds.tolist())

    def test_multi_round_falls_back_to_plain_blocks(self, points):
        # Later MRG rounds partition a shrunken center subset; dataset
        # shard offsets no longer apply and must not be misused (this
        # used to raise "boundaries must be offsets within [0, n]").
        # Boundary granularity must fit the small capacity in round 1.
        part = shard_aligned_partitioner(np.arange(0, N + 1, 100, dtype=np.intp))
        result = mrg(
            EuclideanSpace(points), K, m=50, capacity=100, seed=3,
            partitioner=part,
        )
        assert result.extra["reduction_rounds"] > 1


class TestPublishedSpace:
    def test_process_pool_run_matches_sequential(self, points):
        # Bit-identity of the published-handle path (the space crosses
        # into the process pool as a shared-memory handle and each worker
        # builds its shard's view from the attached block) against the
        # sequential path.
        base = mr_hochbaum_shmoys(EuclideanSpace(points), K, m=M, seed=0)
        got = mr_hochbaum_shmoys(
            EuclideanSpace(points), K, m=M, seed=0,
            executor=ProcessPoolExecutorBackend(max_workers=2),
        )
        assert np.array_equal(got.centers, base.centers)
        assert got.radius == base.radius
        assert [r.dist_evals for r in got.stats.rounds] == [
            r.dist_evals for r in base.stats.rounds
        ]
        base_g = mrg(EuclideanSpace(points), K, m=M, seed=4)
        got_g = mrg(
            EuclideanSpace(points), K, m=M, seed=4,
            executor=ProcessPoolExecutorBackend(max_workers=2),
        )
        assert np.array_equal(got_g.centers, base_g.centers)
        assert got_g.radius == base_g.radius
        assert got_g.stats.dist_evals == base_g.stats.dist_evals
