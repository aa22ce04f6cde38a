"""Training loop: seeded end-to-end runs with JSON-lines logging, periodic
checkpoints, and a final eval sweep (losses, PSNR/SSIM, commutation
residuals, latent uniformity).

Each training batch is split into shards by ``parallel.shard_bounds`` and
run as data-parallel shards by ``parallel.run_shards``, on a pool of worker
threads opened for that step alone. Every shard, of a training batch or of
the eval set, is a function of the model and its images that returns its
scores summed over those images; ``_image_means`` turns the shards' sums
into the per-image means the log reports. A training shard runs encode ->
sample -> decode -> loss -> backward on a replica of the model it builds
itself (the parameters' arrays are shared, their gradients are not), with
its loss weighted by its share of the batch, and also returns the replica's
gradients. The main thread then sums the shard gradients in shard order,
clips them and takes the AdamW step. A step is a function of the model,
AdamW's moments, the seed and the step number alone: the batch is a slice of
the epoch's shuffle, which is keyed by the epoch; each shard draws its
reparameterisation noise, then its drop_path masks, from its own generator,
keyed by step and shard; and AdamW's bias correction reads the step number.
The loop keeps no generator, data cursor, worker pool or BLAS setting
between steps: the main thread sums, clips and steps with BLAS at its own
thread count and no worker alive. The eval sweep splits the eval set into
shards the same way, on a pool of its own, and runs them on one replica
whose parameters do not require grad, so its forward passes record no graph.
The shards depend on the batch or the eval set alone, so neither a
checkpoint nor the eval depends on the worker count.

``parallel.SHARD_SIZE`` sets the memory of a step more than its speed. A
step's pool runs two shards at once on two CPUs, and each holds its whole
autograd graph until its backward, so a step's peak holds about two shard
graphs; the graph grows with the shard's images. At the default config one
shard run alone has a tracemalloc peak of 119.8 MB at 32 images and 60.3 MB
at 16 (140.6 and 70.7 MB while attention kept a dense T x T score matrix and
its weights per block). On a 2-vCPU Xeon, shards of 16 cut a default run's
peak resident memory from about 360 to 225 MB with that dense attention, for
a step 4-8% slower than with shards of 32; with span attention the
benchmark's default-config `train` run peaks at about 178 MB.

The log opens with a header entry that says what produced the run: the
config, the package and numpy versions, the git commit of the checkout that
holds the package (null outside one), the parameter count, the BLAS numpy
runs on with its thread count (null when it cannot be read), and the shard
size and worker count the steps run with. Each step entry records the
process's peak resident memory so far, ``rss_mb``; the eval entry records it
too, after the eval sweep, with the sweep's wall time, ``eval_ms``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import resource
import subprocess
import time

import numpy as np

from . import __version__, blas
from .config import RunConfig
from .data import STREAM_SHARD, Dataset, load_dataset
from .imageio import quantize_roundtrip
from .latent_stats import analyze_latents, commutation_residuals
from .losses import multiscale_loss
from .metrics import psnr, ssim
from .model import TokenizerModel, init_model, save_checkpoint
from .optim import AdamW, clip_grad_norm, cosine_lr
from .parallel import SHARD_SIZE, pool_size, run_shards, shard_bounds
from .pyramid import image_pyramid, tokens_to_images
from .tensor import NumericError, Tensor, make_rng

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


def _log_header(config: RunConfig, model: TokenizerModel) -> dict:
    """The first log entry; it has no ``"step"`` key, which marks step entries.
    ``workers`` is the worker count of a full batch's shards."""
    blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "event": "header",
        "config": dataclasses.asdict(config),
        "version": __version__,
        "git": _git_commit(),
        "parameters": sum(p.data.size for p in model.named_parameters().values()),
        "numpy": np.__version__,
        "blas": {"name": blas_build.get("name"), "version": blas_build.get("version"),
                 "threads": blas.num_threads()},
        "shard_size": SHARD_SIZE,
        "workers": pool_size(len(shard_bounds(config.batch_size))),
    }


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _image_means(sums: list[dict], n: int) -> dict:
    """Per-image means of shard sums: for each key, the shards' sums added in
    shard order, over the image count ``n``. Arrays come back as lists."""
    return {key: np.divide(sum(s[key] for s in sums), n).tolist() for key in sums[0]}


def _train_shard(model: TokenizerModel, images: np.ndarray, rng: np.random.Generator,
                 batch: int, config: RunConfig, step: int) -> tuple[dict, list]:
    """Forward and backward of one shard of a ``batch``-image batch on a
    replica of the model built here; ``rng`` gives the shard's latent noise,
    then its drop_path masks. The backward is seeded with the shard's
    share of the batch, so the shards' gradients sum to those of the batch's
    mean loss. Returns the shard's loss breakdown summed over its images, and
    the replica's gradients in record order."""
    replica = model.replica()
    px, code = replica.reconstruct(Tensor(images), deterministic=False, rng=rng, training=True)
    targets = image_pyramid(images, model.schedule, model.config.patch)
    loss, breakdown = multiscale_loss(px, targets, model.schedule, config, code)
    if not np.isfinite(loss.data):
        raise NumericError(f"non-finite loss at step {step}")
    b = len(images)
    loss.backward(np.array(b / batch))
    sums = {"total": breakdown["total"] * b, "per_scale": np.array(breakdown["per_scale"]) * b,
            "kl": breakdown["kl"] * b}
    return sums, [p.grad for p in replica.named_parameters().values()]


def _batch_gradients(model: TokenizerModel, images: np.ndarray, config: RunConfig, step: int) -> dict:
    """Set each parameter's ``.grad`` to the gradient of the batch's mean
    loss, computed as data-parallel shards by ``run_shards``, and return the
    batch's loss breakdown as per-image means. Each shard's generator is
    keyed by (seed, step, shard), so its noise follows the step and the shard
    alone. The shard gradients are summed in shard order."""
    b = len(images)
    seed = model.config.seed
    results = run_shards(_train_shard, [
        (model, images[lo:hi], make_rng(seed, stream=(STREAM_SHARD, step, shard)), b, config, step)
        for shard, (lo, hi) in enumerate(shard_bounds(b))
    ])
    for p, shard_grads in zip(model.named_parameters().values(), zip(*(grads for _, grads in results))):
        grads = [g for g in shard_grads if g is not None]
        p.grad = functools.reduce(np.add, grads) if grads else None
    return _image_means([sums for sums, _ in results], b)


def _eval_shard(model: TokenizerModel, dataset: Dataset, indices: np.ndarray,
                config: RunConfig) -> tuple[dict, np.ndarray]:
    """One eval shard's scores, each summed over its images, and its latent
    rows."""
    images = dataset.images[indices]
    schedule, patch = model.schedule, model.config.patch
    px, code = model.reconstruct(Tensor(images), deterministic=True)
    _, breakdown = multiscale_loss(px, image_pyramid(images, schedule, patch), schedule, config, code)
    b = len(indices)
    top = tokens_to_images(px.data, schedule, patch)[-1]
    quant = quantize_roundtrip(top)
    sums = {
        "l1": float(np.abs(top - images).mean()) * b,
        "kl": breakdown["kl"] * b,
        "psnr": psnr(quant, images) * b,
        "ssim": ssim(quant, images) * b,
        "per_scale": np.array(breakdown["per_scale"]) * b,
        "commutation": np.array(commutation_residuals(px.data, schedule, patch)) * b,
    }
    return sums, code.mu.data.reshape(b, -1)


def evaluate(model: TokenizerModel, dataset: Dataset, indices: np.ndarray, config: RunConfig) -> dict:
    """Deterministic eval pass over ``indices``, split by ``shard_bounds`` as
    a training batch is and computed by ``run_shards``, on one replica of
    the model whose parameters do not require grad, so no autograd graph is
    recorded. The shards follow the eval set alone, not ``config.batch_size``.
    Every metric is a mean over images (``_image_means``). PSNR/SSIM score
    the top-scale decode after the uint8 quantization a saved PPM would
    apply, so they match the reconstruct-then-score path. ``rec_loss`` is
    the top-scale entry of ``per_scale``."""
    n = len(indices)
    if n == 0:
        return {"n_images": 0}
    replica = model.replica(requires_grad=False)
    results = run_shards(_eval_shard, [(replica, dataset, indices[lo:hi], config) for lo, hi in shard_bounds(n)])
    means = _image_means([sums for sums, _ in results], n)
    # The log keeps l1 first, then rec_loss, then the other means in order.
    metrics = {"n_images": n, "l1": means["l1"], "rec_loss": means["per_scale"][-1], **means}
    vectors = np.concatenate([mu for _, mu in results], axis=0)
    if vectors.shape[0] >= 3:
        metrics["uniformity"] = analyze_latents(vectors).to_dict()
    else:
        metrics["uniformity"] = None
    return metrics


def train(config: RunConfig, echo: bool = False) -> dict:
    """Run training to completion; returns a JSON-friendly summary."""
    config.validate()
    tok = config.tokenizer
    dataset = load_dataset(config.data_dir, tok.image_size, tok.seed)
    train_idx, eval_idx = dataset.split(config.eval_fraction)

    per_epoch = math.ceil(len(train_idx) / config.batch_size)
    steps = config.epochs * per_epoch if config.epochs > 0 else config.steps

    model = init_model(tok)
    params = model.named_parameters()
    optimizer = AdamW(params)

    checkpoint_dir = os.path.dirname(config.checkpoint)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    log_path = log_path_for(config.checkpoint)
    save_checkpoint(model, config.checkpoint)  # step-0 state is always on disk

    last_entry = None

    with open(log_path, "w", encoding="utf-8") as log:

        def emit(entry: dict) -> None:
            line = json.dumps(entry)
            log.write(line + "\n")
            if echo:
                print(line)

        emit(_log_header(config, model))
        step = 0
        try:
            for step in range(1, steps + 1):
                step_start = time.perf_counter()
                epoch, k = divmod(step - 1, per_epoch)
                lo = k * config.batch_size
                batch_idx = dataset.epoch_order(tok.seed, epoch, train_idx)[lo : lo + config.batch_size]
                breakdown = _batch_gradients(model, dataset.images[batch_idx], config, step)
                grad_norm = clip_grad_norm(params, config.grad_clip)
                lr = cosine_lr(step, steps, config.warmup_ratio, config.lr_start, config.lr_end)
                optimizer.step(lr, step)
                step_ms = 1000.0 * (time.perf_counter() - step_start)

                if step == 1 or step == steps or (config.log_interval and step % config.log_interval == 0):
                    last_entry = {
                        "step": step,
                        "lr": lr,
                        "total": breakdown["total"],
                        "per_scale": breakdown["per_scale"],
                        "kl": breakdown["kl"],
                        "grad_norm": grad_norm,
                        "step_ms": step_ms,
                        "rss_mb": _peak_rss_mb(),
                    }
                    emit(last_entry)
                if config.checkpoint_interval and step % config.checkpoint_interval == 0:
                    save_checkpoint(model, config.checkpoint)
            save_checkpoint(model, config.checkpoint)
            eval_start = time.perf_counter()
            eval_metrics = evaluate(model, dataset, eval_idx, config)
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
