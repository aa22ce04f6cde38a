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

``shard_pool`` opens a pool of worker threads, one per CPU the process may
use and at most one per shard of a batch, with numpy's BLAS held at one
thread (``blas.single_threaded``) until the block ends. It yields
``run(fn, shards)``, which computes ``fn(*args)`` for the shards of one batch
on those workers. numpy releases the interpreter lock in its ufuncs,
reductions and BLAS calls, so the shards' single-threaded passes overlap on
the CPUs. Each task runs in a copy of the caller's context, which holds
numpy's errstate. When the BLAS thread count cannot be read or set
(``blas.num_threads`` is None), BLAS keeps its own threads and one worker
runs the shards one after another.

A loop over batches keeps one pool open for all of them: the same threads
run every batch, so memory one batch freed is reused by the next, and no
thread is started per batch. ``run_shards`` opens a pool for one batch.

The shards, and so the results, do not depend on the worker count: a caller
that fixes its shards by the batch alone gets the same results from one
worker as from several.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from . import blas

ShardRunner = Callable[[Callable[..., Any], Sequence[tuple]], list]

# Images per shard; a set's last shard takes the rest. Fixed by the image
# set alone, never by the CPU count. 16, not 32: a train step runs two shards
# at once and each holds its graph until its backward, so halving the shard
# halves the graphs a step holds (see ``mstok.train``).
SHARD_SIZE = 16


def shard_bounds(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each shard of an ``n``-image set."""
    return [(start, min(start + SHARD_SIZE, n)) for start in range(0, n, SHARD_SIZE)]


def pool_size(shards: int) -> int:
    """Workers ``shard_pool`` starts for batches of ``shards`` shards: one per
    CPU this process may run on, at most one per shard, or 1 when BLAS
    cannot be held at one thread."""
    if blas.num_threads() is None:
        return 1
    return min(shards, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def shard_pool(shards: int) -> Iterator[ShardRunner]:
    """Worker threads for batches of up to ``shards`` shards, for the length
    of the block; yields ``run(fn, shards)``.

    ``run`` returns ``[fn(*args) for args in shards]`` in shard order. If
    shards fail, it raises the first failure in shard order, whichever worker
    failed first, and cancels the shards not yet started. Leaving the block,
    also on error, joins the workers and restores the BLAS thread count.
    """
    workers = pool_size(shards)
    with blas.single_threaded():
        pool = ThreadPoolExecutor(workers)
        try:
            yield functools.partial(_run_on, pool)
        finally:
            pool.shutdown(cancel_futures=True)


def _run_on(pool: ThreadPoolExecutor, fn: Callable[..., Any], shards: Sequence[tuple]) -> list:
    futures = [pool.submit(contextvars.copy_context().run, fn, *args) for args in shards]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


def run_shards(fn: Callable[..., Any], shards: Sequence[tuple]) -> list:
    """``fn(*args)`` for the shards of one batch, on a pool opened for it;
    see ``shard_pool``."""
    with shard_pool(len(shards)) as run:
        return run(fn, shards)
