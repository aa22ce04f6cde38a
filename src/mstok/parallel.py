"""Data-parallel shards of a batch on worker threads, and the shard layout
every pass over an image set uses.

``shard_bounds(n, tokens)`` is the one layout. It splits ``n`` images of
``tokens`` tokens each into contiguous shards, in order, of
``images_per_shard(tokens)`` images: as many as fit in ``SHARD_TOKENS``
tokens, the tokens of one default training shard (16 images of 85), but at
least 1 and at most ``SHARD_SIZE``; the last shard takes the rest. Each pass
gives its own count: the train step, the eval sweep and ``reconstruct`` the
decoder's ``schedule.total``, ``export-latents`` the encoder's
``base_grid ** 2``. So the layout follows the model and the image set
alone, never the CPU count or the batch size, and the default config's 85
decoder and 64 encoder tokens both give shards of 16. A shard of several
images pays numpy's fixed cost per op once for all of them, but holds
activations for all their tokens, and a training shard holds its whole
graph until its backward, while a step runs two shards at once. The cap
keeps that graph small: at the default config one training shard run alone
has a tracemalloc peak of 74.0 MiB at 32 images and 37.6 MiB at 16, and the
benchmark's default ``train`` run peaks at about 133 MB. A 64 px image has
341 decoder tokens, so its passes take shards of 3. On a 2-vCPU Xeon, a
fresh process that reconstructed 32 such images five times peaked at 40 MB
resident with 1 image per shard, 49-51 MB with 3, 57 MB with 4, 78 MB with
8 and 122 MB with 16, and took a median of 370 ms with 1 image per shard
against 289 ms with 3. Three 64 px training runs of 6 steps (scales
1,2,4,8,16, batch 64, 2 workers) peaked at 238-241 MB resident with shards
of 3 against 806-835 MB with 16, at 1056-1370 ms per step against
1129-1598 ms. The outputs of the grad-free passes and ``image_pyramid``'s
targets do not depend on the layout: the token-wise forward products run one
gemm per image (see ``tensor._product``), so a row's bits follow its own
image; a training step's do, since each shard's generator is keyed by its
index.
Inputs of up to 3 64 px images run as one shard on one worker.

``export-latents`` runs its shards through ``run_shards``, and each writes
its rows into its own slice of one array the caller allocated before the
pool opened; a shard that returns large arrays instead leaves them to be
freed into its worker's malloc arena, which the calling thread's next
allocations do not reuse.

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
a free list that the next pass's new threads take from. On a 2-vCPU Xeon,
default ``train`` runs that opened a pool per step and runs that held one
pool over the whole run read the same median step time and the same peak
resident memory, within their run-to-run spread.

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

# The most images a shard holds. 16, not 32: a train step runs two shards
# at once and each holds its graph until its backward, so halving the shard
# halves the graphs a step holds.
SHARD_SIZE = 16

# Tokens per shard: one default training shard, 16 images of 85 tokens.
SHARD_TOKENS = 1360


def images_per_shard(tokens: int) -> int:
    """Images of ``tokens`` tokens each in a shard of at most
    ``SHARD_TOKENS`` tokens: at least 1, at most ``SHARD_SIZE``."""
    return max(1, min(SHARD_SIZE, SHARD_TOKENS // tokens))


def shard_bounds(n: int, tokens: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each shard of an ``n``-image set whose images
    have ``tokens`` tokens each, ``images_per_shard(tokens)`` per shard."""
    size = images_per_shard(tokens)
    return [(start, min(start + size, n)) for start in range(0, n, size)]


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
