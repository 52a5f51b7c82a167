"""The final objective evaluation as a parallel, traced executor pass.

Every MapReduce solver ends by measuring its answer: the covering radius
of the chosen centers over all n points (:func:`covering_radius`).  The
paper does not charge that evaluation to the algorithm, but it is real
work — at n = 10^6 and k = 100 it is 10^8 distance evaluations, as much
as the whole MRG job.  :func:`final_radius` runs it on the job's own
executor instead of the driver: the driver gathers the k center
coordinates once, and one :class:`~repro.mapreduce.tasks.TaskSpec` per
contiguous row block (``block_partition(n, min(m, n))``) returns its
block's max-min distance and its distance count in a
:class:`~repro.mapreduce.tasks.TaskOutput`; the driver takes the max.
A pass too small to give every block :data:`MIN_TASK_EVALS`
evaluations stays the serial call.

The result is bit-identical to the serial ``covering_radius(space,
centers)``: each point's nearest-center distance comes from the same
row-blocking-independent kernel (the store layer's parity contract),
and a max of per-block maxima is exactly the global max.  The pass is
a ``final.radius`` round-category span, so traces account for it, but
it is **not** a round of the job: it goes through
:meth:`SimulatedCluster.dispatch`, never ``run_round``, so nothing is
appended to the cluster's :class:`~repro.mapreduce.accounting.JobStats`
and ``n_rounds``, ``parallel_time`` and per-round ``dist_evals``
describe the algorithm alone.  Its distance evaluations fold into the
space's counter, exactly where the serial call counted them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.assignment import covering_radius
from repro.errors import InvalidParameterError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.partition import block_partition
from repro.mapreduce.tasks import TaskOutput, TaskSpec
from repro.metric import kernels
from repro.metric.base import MetricSpace
from repro.metric.euclidean import EuclideanSpace
from repro.obs import trace as _trace
from repro.store.space import ChunkedMetricSpace, machine_view

__all__ = ["final_radius"]

#: Span and task-name label of the evaluation pass.
LABEL = "final.radius"

#: Least distance evaluations per task (~10 ms of kernel time).  A pass
#: that cannot give every block this many runs serially on the driver:
#: dispatching 50 sub-millisecond tasks over a process pool costs more
#: than the evaluation itself (EIM at n = 5·10^4, k = 10 is 5·10^5
#: evaluations in all).
MIN_TASK_EVALS = 2**20


def _row_segments(view: MetricSpace) -> Iterator[np.ndarray]:
    """A machine view's coordinates, one resident segment at a time
    (stream chunks for an out-of-core view, the whole array otherwise)."""
    if isinstance(view, ChunkedMetricSpace):
        for chunk, _offset in view.stream:
            yield chunk
    else:
        yield view.points


def _radius_task(space, block: np.ndarray, center_coords: np.ndarray) -> TaskOutput:
    """Max over the rows of ``block`` of the distance to the nearest center.

    Runs the serial pass's kernel (:func:`repro.metric.kernels.min_dists`)
    on the block's machine view against the driver-gathered
    ``center_coords``, and reports the ``len(block) * k`` evaluations for
    the driver to fold.
    """
    view = machine_view(space, block)
    radius = 0.0
    try:
        for x in _row_segments(view):
            dists = kernels.min_dists(x, center_coords, block_bytes=view.block_bytes)
            radius = max(radius, float(dists.max()))
    finally:
        view.release()
    return TaskOutput(radius, len(block) * len(center_coords))


def final_radius(
    cluster: SimulatedCluster, space: MetricSpace, centers: np.ndarray
) -> float:
    """The covering radius of ``centers``, evaluated on ``cluster.executor``.

    Parameters
    ----------
    cluster:
        The job's cluster: its executor runs the tasks and its watched
        counter (the space's) receives their distance evaluations.  Its
        round statistics are left untouched.
    space:
        The space the job's tasks bind — inside a
        :func:`repro.store.shm.shared_space` scope, the published clone,
        so process workers attach to the job's one segment.
    centers:
        Global indices of the chosen centers (non-empty).

    Every point is measured exactly once: the tasks cover
    ``block_partition(n, min(cluster.m, n))``, whatever partition the
    job's rounds used.  Spaces without Euclidean coordinates, and passes
    below ``MIN_TASK_EVALS`` per block, take the serial
    :func:`covering_radius` under the same span.
    """
    centers = np.asarray(centers, dtype=np.intp)
    if centers.size == 0:
        raise InvalidParameterError("final_radius requires at least one center")
    parts = block_partition(space.n, min(cluster.m, space.n))
    if not isinstance(space, (EuclideanSpace, ChunkedMetricSpace)) or (
        space.n * len(centers) < len(parts) * MIN_TASK_EVALS
    ):
        # Too small to pay for a dispatch: the serial pass, which is
        # also the reference the parallel one must match bit for bit.
        with _trace.span(LABEL, cat="round", tasks=0):
            return covering_radius(space, centers)
    center_coords = space.local(centers).points
    specs = [
        TaskSpec(_radius_task, args=(space, block, center_coords), counting="output")
        for block in parts
    ]
    maxima, _times, _fault_stats = cluster.dispatch(LABEL, specs)
    return max(maxima)
