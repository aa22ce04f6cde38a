"""The training loop: seeded data-parallel steps over any parameter tree, with
JSON-lines logging, periodic checkpoints and a final eval.

``fit`` trains the ``Tensor`` parameters of a tree (a dataclass, dict or list
tree, walked by ``tensor.named_tensors``) on a dataset's training images. Its
caller gives the shard function, which computes one shard's forward and loss,
the checkpoint writer and the final eval; the loop owns everything else: the
batch walk, the shards, the backward, the gradient sum, the clip, the
learning rate, the AdamW step, the checkpoint calls and the log.

Each training batch is split into shards by ``parallel.shard_bounds``, sized
by the caller's token count per image (see ``mstok.parallel``), and run
as data-parallel shards by ``parallel.run_shards``, on a pool of worker
threads opened for that step alone. A shard runs on a replica of the tree it
builds itself (``tensor.replica``: the parameters' arrays are shared, their
gradients are not): the shard function's forward and loss, then the
backward, seeded with the shard's share of the batch, so the shards'
gradients sum to those of the batch's mean loss. The main thread then sums
the shard gradients in shard order, clips them and takes the AdamW step. A
step is a function of the parameters, AdamW's moments, the seed (the
config's ``tokenizer.seed``) and the step number alone: the batch is a slice
of the epoch's shuffle, which is keyed by the epoch; each shard gets its own
generator, keyed by step and shard; and AdamW's bias correction reads the
step number. The loop keeps no generator, data cursor, worker pool or BLAS
setting between steps: the main thread sums, clips and steps with BLAS at
its own thread count and no worker alive. The shards depend on the batch
and the token count alone, so a checkpoint does not depend on the worker
count. The shard results live in ``_batch_gradients``, which returns before the
next step's shards start, so no shard's gradients outlive their step.

The log opens with a header entry that says what produced the run: the
config, the package and numpy versions, the git commit of the checkout that
holds the package (null outside one), the parameter count, the BLAS numpy
runs on with its thread count (null when it cannot be read), and the shard
size and the worker count of the first step's shards. Each logged step entry
holds the learning rate, the shard sums' per-image means, the gradient norm
before clipping, the step's wall time ``step_ms``, each shard's busy time on
its worker ``shard_ms`` (in shard order), the main thread's gradient sum,
clip and AdamW step ``reduce_ms``, and the process's peak resident memory so
far, ``rss_mb``. The eval entry records the final eval's metrics, its wall
time ``eval_ms`` and ``rss_mb``. A failure is logged as an abort entry
before it propagates.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import subprocess
import time
from collections.abc import Callable

import numpy as np

from . import __version__, blas
from .config import RunConfig
from .data import STREAM_SHARD, Dataset
from .optim import AdamW, clip_grad_norm, cosine_lr
from .parallel import images_per_shard, pool_size, run_shards, shard_bounds
from .tensor import NumericError, Tensor, make_rng, named_tensors, replica


def log_path_for(checkpoint: str) -> str:
    stem, _ = os.path.splitext(checkpoint)
    return stem + ".log.jsonl"


def _git_commit() -> str | None:
    """``HEAD`` of the git checkout that holds this package; None outside one,
    without git, or when git takes over 5 s."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=os.path.dirname(os.path.abspath(__file__)),
                              capture_output=True, text=True, timeout=5, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        return None


def _log_header(config: RunConfig, tree, batch: int, tokens: int) -> dict:
    """The first log entry; it has no ``"step"`` key, which marks step entries.
    ``shard_size`` is the shard size for images of ``tokens`` tokens, and
    ``workers`` the worker count of the shards of a ``batch``-image batch,
    the first step's."""
    blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "event": "header",
        "config": dataclasses.asdict(config),
        "version": __version__,
        "git": _git_commit(),
        "parameters": sum(p.data.size for p in named_tensors(tree).values()),
        "numpy": np.__version__,
        "blas": {"name": blas_build.get("name"), "version": blas_build.get("version"),
                 "threads": blas.num_threads()},
        "shard_size": images_per_shard(tokens),
        "workers": pool_size(len(shard_bounds(batch, tokens))),
    }


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def image_means(sums: list[dict], n: int) -> dict:
    """Per-image means of shard sums: for each key, the shards' sums added in
    shard order, over the image count ``n``. Arrays come back as lists."""
    return {key: np.divide(sum(s[key] for s in sums), n).tolist() for key in sums[0]}


def _shard_gradients(shard: Callable, tree, images: np.ndarray, rng: np.random.Generator,
                     batch: int, step: int) -> tuple[dict, list, float]:
    """One shard of a ``batch``-image batch: ``shard``'s forward and loss on a
    replica of ``tree`` built here, then the backward, seeded with the
    shard's share of the batch. Returns the shard's sums, the replica's
    gradients in record order, and the shard's busy time in ms."""
    start = time.perf_counter()
    params = replica(tree)
    loss, sums = shard(params, images, rng)
    if not np.isfinite(loss.data):
        raise NumericError(f"non-finite loss at step {step}")
    loss.backward(np.array(len(images) / batch))
    grads = [p.grad for p in named_tensors(params).values()]
    return sums, grads, 1000.0 * (time.perf_counter() - start)


def _batch_gradients(tree, shard: Callable, images: np.ndarray, tokens: int, seed: int,
                     step: int) -> tuple[dict, list[float], float]:
    """Set each parameter's ``.grad`` to the gradient of the batch's mean
    loss, computed as data-parallel shards by ``run_shards``, the shard
    gradients summed in shard order. Each shard's generator is keyed by
    (seed, step, shard), so its draws follow the step and the shard alone.
    ``tokens``, the tokens of one image, sets the shard size.
    Returns the shard sums' per-image means, each shard's busy time in ms,
    and the ``perf_counter`` time at which the shards had returned, where
    the main thread's reduce begins."""
    b = len(images)
    results = run_shards(_shard_gradients, [
        (shard, tree, images[lo:hi], make_rng(seed, stream=(STREAM_SHARD, step, i)), b, step)
        for i, (lo, hi) in enumerate(shard_bounds(b, tokens))
    ])
    reduce_start = time.perf_counter()
    for p, shard_grads in zip(named_tensors(tree).values(), zip(*(grads for _, grads, _ in results))):
        grads = [g for g in shard_grads if g is not None]
        p.grad = sum(grads[1:], grads[0]) if grads else None
    return image_means([sums for sums, _, _ in results], b), [ms for _, _, ms in results], reduce_start


def fit(tree, shard: Callable[..., tuple[Tensor, dict]], tokens: int, dataset: Dataset,
        train_idx: np.ndarray, config: RunConfig, save: Callable[[], None],
        final_eval: Callable[[], dict], echo: bool = False) -> dict:
    """Train the parameters of ``tree`` on ``dataset.images[train_idx]`` for
    the config's steps, or its epochs when set; returns a JSON-friendly
    summary. Every log line is also printed when ``echo`` is set.

    ``shard(params, images, rng)`` computes one shard on ``params``, a
    replica of ``tree``: it returns the shard's mean loss over its images,
    a scalar ``Tensor`` recorded on ``params``, and a dict of its scores
    summed over its images, which the step entries report as per-image
    means. ``save()`` writes the checkpoint to ``config.checkpoint``: before
    step 1, every ``config.checkpoint_interval`` steps, and after the last
    step. ``final_eval()`` returns the eval entry's metrics. ``tokens``, the
    tokens of one image, sets the shard size (``parallel.shard_bounds``).
    """
    seed = config.tokenizer.seed
    per_epoch = math.ceil(len(train_idx) / config.batch_size)
    steps = config.epochs * per_epoch if config.epochs > 0 else config.steps
    params = named_tensors(tree)
    optimizer = AdamW(params)

    os.makedirs(os.path.dirname(config.checkpoint) or ".", exist_ok=True)
    log_path = log_path_for(config.checkpoint)
    save()  # step-0 state is always on disk

    last_entry = None

    with open(log_path, "w", encoding="utf-8") as log:

        def emit(entry: dict) -> None:
            line = json.dumps(entry)
            log.write(line + "\n")
            if echo:
                print(line)

        emit(_log_header(config, tree, min(config.batch_size, len(train_idx)), tokens))
        step = 0
        try:
            for step in range(1, steps + 1):
                step_start = time.perf_counter()
                epoch, k = divmod(step - 1, per_epoch)
                lo = k * config.batch_size
                batch_idx = dataset.epoch_order(seed, epoch, train_idx)[lo : lo + config.batch_size]
                means, shard_ms, reduce_start = _batch_gradients(tree, shard, dataset.images[batch_idx], tokens, seed, step)
                grad_norm = clip_grad_norm(params, config.grad_clip)
                lr = cosine_lr(step, steps, config.warmup_ratio, config.lr_start, config.lr_end)
                optimizer.step(lr, step)
                step_end = time.perf_counter()

                if step == 1 or step == steps or (config.log_interval and step % config.log_interval == 0):
                    last_entry = {
                        "step": step,
                        "lr": lr,
                        **means,
                        "grad_norm": grad_norm,
                        "step_ms": 1000.0 * (step_end - step_start),
                        "shard_ms": shard_ms,
                        "reduce_ms": 1000.0 * (step_end - reduce_start),
                        "rss_mb": _peak_rss_mb(),
                    }
                    emit(last_entry)
                if config.checkpoint_interval and step % config.checkpoint_interval == 0:
                    save()
            save()
            eval_start = time.perf_counter()
            eval_metrics = final_eval()
            eval_ms = 1000.0 * (time.perf_counter() - eval_start)
        except BaseException as err:
            # Any failure, interrupts included, is logged before it propagates;
            # "at_step" (0 before step 1) is not "step", which marks step
            # entries. The last checkpoint written stays on disk untouched.
            emit({"event": "abort", "at_step": step, "error_type": type(err).__name__, "error": str(err)})
            raise
        emit({"event": "eval", **eval_metrics, "eval_ms": eval_ms, "rss_mb": _peak_rss_mb()})

    return {
        "checkpoint": config.checkpoint,
        "log": log_path,
        "steps": steps,
        "train": last_entry,
        "eval": eval_metrics,
    }
