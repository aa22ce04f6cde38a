"""The tokenizer's training: its training shard, its eval sweep and its
checkpoint writer, run by ``loop.fit`` (see ``mstok.loop`` for the steps,
the shards, their memory and the log).

A training shard runs encode -> sample -> decode -> loss on the replica of
the model the loop gives it; its generator gives the shard's
reparameterisation noise, then its drop_path masks. Every shard, of a
training batch or of the eval set, returns its scores summed over its
images; ``loop.image_means`` turns the shards' sums into the per-image means
the log reports. The eval sweep splits the eval set into shards by
``parallel.shard_bounds``, as a training batch is split (see
``mstok.parallel``), and runs them on a pool of its own, on one replica
whose parameters do not require grad, so its forward passes record no graph.
"""

from __future__ import annotations

import numpy as np

from . import loop
from .config import RunConfig
from .data import Dataset, load_dataset
from .imageio import quantize_roundtrip
from .latent_stats import analyze_latents, commutation_residuals
from .losses import multiscale_loss
from .metrics import psnr, ssim
from .model import TokenizerModel, init_model, save_checkpoint
from .parallel import run_shards, shard_bounds
from .pyramid import image_pyramid, tokens_to_images
from .tensor import Tensor, replica


def _train_shard(config: RunConfig, model: TokenizerModel, images: np.ndarray,
                 rng: np.random.Generator) -> tuple[Tensor, dict]:
    """Forward and loss of one training shard on ``model``, a replica:
    ``rng`` gives the shard's latent noise, then its drop_path masks.
    Returns the shard's mean loss and its loss breakdown summed over its
    images."""
    px, code = model.reconstruct(Tensor(images), deterministic=False, rng=rng, training=True)
    targets = image_pyramid(images, model.schedule, model.config.patch)
    loss, breakdown = multiscale_loss(px, targets, model.schedule, config, code)
    b = len(images)
    return loss, {"total": breakdown["total"] * b, "per_scale": np.array(breakdown["per_scale"]) * b,
                  "kl": breakdown["kl"] * b}


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
    recorded. The shards follow the eval set and the model, not
    ``config.batch_size`` or the worker count. Every metric is a mean over
    images (``loop.image_means``). PSNR/SSIM score the top-scale decode
    after the uint8 quantization a saved PPM would apply, so they match the
    reconstruct-then-score path. ``rec_loss`` is the top-scale entry of
    ``per_scale``; ``uniformity`` is null below 3 images."""
    n = len(indices)
    if n == 0:
        return {"n_images": 0}
    graph_free = replica(model, requires_grad=False)
    results = run_shards(_eval_shard, [(graph_free, dataset, indices[lo:hi], config)
                                       for lo, hi in shard_bounds(n, model.schedule.total)])
    means = loop.image_means([sums for sums, _ in results], n)
    # The log keeps l1 first, then rec_loss, then the other means in order.
    metrics = {"n_images": n, "l1": means["l1"], "rec_loss": means["per_scale"][-1], **means}
    vectors = np.concatenate([mu for _, mu in results], axis=0)
    metrics["uniformity"] = analyze_latents(vectors).to_dict() if len(vectors) >= 3 else None
    return metrics


def train(config: RunConfig, echo: bool = False) -> dict:
    """Train the tokenizer the config describes to completion with
    ``loop.fit``; returns the loop's JSON-friendly summary."""
    config.validate()
    tok = config.tokenizer
    dataset = load_dataset(config.data_dir, tok.image_size, tok.seed)
    train_idx, eval_idx = dataset.split(config.eval_fraction)
    model = init_model(tok)
    return loop.fit(model, lambda params, images, rng: _train_shard(config, params, images, rng),
                    model.schedule.total, dataset, train_idx, config,
                    lambda: save_checkpoint(model, config.checkpoint),
                    lambda: evaluate(model, dataset, eval_idx, config), echo)
