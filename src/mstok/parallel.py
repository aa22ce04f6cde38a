"""Data-parallel shards of a batch on worker threads, and the shard layout
every pass over an image set uses.

``shard_bounds(n)`` splits ``n`` images into shards of ``SHARD_SIZE``: the
train step splits a batch by it, the eval sweep the eval set, and
``export-latents`` its dataset, so the layout of the latent rows follows the
image set alone. ``export-latents`` runs its shards through ``run_shards``,
and each writes its rows into its own slice of one array the caller
allocated before the pool opened; a shard that returns large arrays instead
leaves them to be freed into its worker's malloc arena, which the calling
thread's next allocations do not reuse.

``run_shards(fn, shards)`` is the only way the package runs shards, and this
module the only one that starts threads or changes numpy's BLAS thread
count. Each call opens its own pool of worker threads, one per CPU the
process may use and at most one per shard, holds numpy's BLAS at one thread
(``blas.single_threaded``) until the pool is joined, and computes
``fn(*args)`` for every shard on those workers. numpy releases the
interpreter lock in its ufuncs, reductions and BLAS calls, so the shards'
single-threaded passes overlap on the CPUs. Each task runs in a copy of the
caller's context, which holds numpy's errstate. When the BLAS thread count
cannot be read or set (``blas.num_threads`` is None), BLAS keeps its own
threads and one worker runs the shards one after another.

A pool lives for one pass, such as one training step or one eval sweep, so
between passes the calling thread runs with BLAS at its own thread count and
no worker alive. Starting the threads again for each pass costs nothing
measurable, in time or memory: glibc puts an exited thread's malloc arena on
a free list that the next pass's new threads take from. On a 2-vCPU Xeon, a
default ``train`` step that opened its own pool read a median of 220 ms
(211-227 ms over 7 runs) against 223 ms (174-228 ms) with one pool held over
the whole run, and the runs' peak resident memory 217-226 MB against
218-226 MB.

The shards, and so the results, do not depend on the worker count: a caller
that fixes its shards by the batch alone gets the same results from one
worker as from several.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from . import blas

# Images per shard; a set's last shard takes the rest. Fixed by the image
# set alone, never by the CPU count. 16, not 32: a train step runs two shards
# at once and each holds its graph until its backward, so halving the shard
# halves the graphs a step holds (see ``mstok.loop``).
SHARD_SIZE = 16


def shard_bounds(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each shard of an ``n``-image set."""
    return [(start, min(start + SHARD_SIZE, n)) for start in range(0, n, SHARD_SIZE)]


def pool_size(shards: int) -> int:
    """Workers ``run_shards`` starts for a pass of ``shards`` shards: one per
    CPU this process may run on, at most one per shard, or 1 when BLAS
    cannot be held at one thread."""
    if blas.num_threads() is None:
        return 1
    return min(shards, len(os.sched_getaffinity(0)))


def run_shards(fn: Callable[..., Any], shards: Sequence[tuple]) -> list:
    """``[fn(*args) for args in shards]``, in shard order, computed on a pool
    of ``pool_size(len(shards))`` worker threads opened for this call.

    If shards fail, raises the first failure in shard order, whichever worker
    failed first, and cancels the shards not yet started. On return, also on
    error, the workers are joined and the BLAS thread count is restored.
    """
    with blas.single_threaded(), ThreadPoolExecutor(pool_size(len(shards))) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, *args) for args in shards]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
