"""Training loop: seeded end-to-end runs with JSON-lines logging, periodic
checkpoints, and a final eval sweep (losses, PSNR/SSIM, commutation
residuals, latent uniformity).

The log opens with a header entry that says what produced the run: the
config, the package and numpy versions, the parameter count and the BLAS
numpy runs on with its thread count (null when it cannot be read)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np

from . import __version__, blas
from .config import RunConfig
from .data import STREAM_NOISE, Dataset, load_dataset
from .imageio import quantize_roundtrip
from .latent_stats import analyze_latents, commutation_residuals
from .losses import multiscale_loss
from .metrics import psnr, ssim
from .model import TokenizerModel, init_model, save_checkpoint
from .optim import AdamW, clip_grad_norm, cosine_lr
from .pyramid import image_pyramid
from .tensor import NumericError, Tensor, make_rng, no_grad

ADAMW_BETAS = (0.9, 0.95)
ADAMW_WEIGHT_DECAY = 0.05


def log_path_for(checkpoint: str) -> str:
    stem, _ = os.path.splitext(checkpoint)
    return stem + ".log.jsonl"


def _log_header(config: RunConfig, model: TokenizerModel) -> dict:
    """The first log entry; it has no ``"step"`` key, which marks step entries."""
    blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "event": "header",
        "config": dataclasses.asdict(config),
        "version": __version__,
        "parameters": sum(p.data.size for p in model.named_parameters().values()),
        "numpy": np.__version__,
        "blas": {"name": blas_build.get("name"), "version": blas_build.get("version"),
                 "threads": blas.num_threads()},
    }


@no_grad()
def evaluate(model: TokenizerModel, dataset: Dataset, indices: np.ndarray, config: RunConfig) -> dict:
    """Deterministic eval pass in batches of ``config.batch_size``, run without
    an autograd graph. Every metric is a mean over images: each batch's mean
    weighted by its size. PSNR/SSIM score the top-scale decode after the uint8
    quantization a saved PPM would apply, so they match the
    reconstruct-then-score path. ``rec_loss`` is the top-scale entry of
    ``per_scale``."""
    schedule = model.schedule
    n = len(indices)
    if n == 0:
        return {"n_images": 0}
    per_scale = np.zeros(schedule.num_scales)
    residual_acc = np.zeros(schedule.num_scales)
    l1_total = kl_total = psnr_total = ssim_total = 0.0
    latents = []

    for start in range(0, n, config.batch_size):
        batch_idx = indices[start : start + config.batch_size]
        x = Tensor(dataset.images[batch_idx])
        outputs, code = model.reconstruct(x, deterministic=True)
        targets = image_pyramid(x, schedule, model.config.patch)
        b = len(batch_idx)

        _, breakdown = multiscale_loss(outputs, targets, config, code)
        per_scale += np.array(breakdown["per_scale"]) * b
        kl_total += breakdown["kl"] * b

        top = outputs[-1].data
        l1_total += float(np.abs(top - x.data).mean()) * b
        residual_acc += np.array(commutation_residuals([o.data for o in outputs])) * b
        quant = quantize_roundtrip(top)
        psnr_total += psnr(quant, x.data) * b
        ssim_total += ssim(quant, x.data) * b
        latents.append(code.mu.data.reshape(b, -1))

    scale_means = (per_scale / n).tolist()
    metrics = {
        "n_images": int(n),
        "l1": l1_total / n,
        "rec_loss": scale_means[-1],
        "kl": kl_total / n,
        "psnr": psnr_total / n,
        "ssim": ssim_total / n,
        "per_scale": scale_means,
        "commutation": (residual_acc / n).tolist(),
    }
    vectors = np.concatenate(latents, axis=0)
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

    steps = config.steps
    if config.epochs > 0:
        steps = config.epochs * math.ceil(len(train_idx) / config.batch_size)

    model = init_model(tok)
    params = model.named_parameters()
    optimizer = AdamW(params, betas=ADAMW_BETAS, weight_decay=ADAMW_WEIGHT_DECAY)
    noise_rng = make_rng(tok.seed, stream=STREAM_NOISE)

    checkpoint_dir = os.path.dirname(config.checkpoint)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    log_path = log_path_for(config.checkpoint)
    save_checkpoint(model, config.checkpoint)  # step-0 state is always on disk

    epoch = 0
    order = dataset.epoch_order(tok.seed, epoch, train_idx)
    cursor = 0
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
                if cursor >= len(order):
                    epoch += 1
                    order = dataset.epoch_order(tok.seed, epoch, train_idx)
                    cursor = 0
                batch_idx = order[cursor : cursor + config.batch_size]
                cursor += config.batch_size

                x = Tensor(dataset.images[batch_idx])
                outputs, code = model.reconstruct(
                    x, deterministic=False, rng=noise_rng, training=True
                )
                targets = image_pyramid(x, model.schedule, tok.patch)
                loss, breakdown = multiscale_loss(outputs, targets, config, code)
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite loss at step {step}")

                model.zero_grad()
                loss.backward()
                grad_norm = clip_grad_norm(params, config.grad_clip)
                lr = cosine_lr(step, steps, config.warmup_ratio, config.lr_start, config.lr_end)
                optimizer.step(lr)
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
                    }
                    emit(last_entry)
                if config.checkpoint_interval and step % config.checkpoint_interval == 0:
                    save_checkpoint(model, config.checkpoint)
            save_checkpoint(model, config.checkpoint)
            eval_metrics = evaluate(model, dataset, eval_idx, config)
        except BaseException as err:
            # Any failure, interrupts included, is logged before it propagates;
            # "at_step" (0 before step 1) is not "step", which marks step
            # entries. The last checkpoint written stays on disk untouched.
            emit({"event": "abort", "at_step": step, "error_type": type(err).__name__, "error": str(err)})
            raise
        emit({"event": "eval", **eval_metrics})

    return {
        "checkpoint": config.checkpoint,
        "log": log_path,
        "steps": steps,
        "train": last_entry,
        "eval": eval_metrics,
    }
