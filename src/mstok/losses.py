"""Reconstruction, KL, and multi-scale composite losses.

The term weights come from the ``RunConfig`` (``l1_weight``, ``mse_weight``,
``scale_weights`` and the tokenizer's ``kl_weight``); ``RunConfig.validate``
checks them.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .model import LatentCode
from .tensor import NumericError, ShapeError, Tensor, add, as_tensor, scale, square, sub, tabs, texp, tmean


def rec_loss(pred, target, config: RunConfig) -> Tensor:
    """Pixel reconstruction: l1_weight * mean|err| + mse_weight * mean(err^2)."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"rec_loss: prediction {pred.shape} != target {target.shape}")
    diff = sub(pred, target)
    return add(scale(tmean(tabs(diff)), config.l1_weight), scale(tmean(square(diff)), config.mse_weight))


def kl_loss(code: LatentCode) -> Tensor:
    """Mean KL divergence of N(mu, exp(logvar)) from the standard normal."""
    if not np.isfinite(code.logvar.data).all():
        raise NumericError("kl_loss: non-finite logvar")
    inner = sub(add(square(code.mu), texp(code.logvar)), add(code.logvar, 1.0))
    return scale(tmean(inner), 0.5)


def multiscale_loss(
    outputs: list, targets: list, config: RunConfig, code: LatentCode | None = None
) -> tuple[Tensor, dict]:
    """Weighted mean of per-scale reconstruction losses plus the KL term.

    Returns the scalar total and a plain-float breakdown for logging.
    """
    if len(outputs) != len(targets):
        raise ShapeError(f"multiscale_loss: {len(outputs)} outputs for {len(targets)} targets")
    weights = config.scale_weights or tuple(1.0 for _ in outputs)
    norm = sum(weights)

    per_scale = [rec_loss(o, t, config) for o, t in zip(outputs, targets)]
    total = None
    for term, wt in zip(per_scale, weights):
        piece = scale(term, wt / norm)
        total = piece if total is None else add(total, piece)
    breakdown = {"per_scale": [float(t.data) for t in per_scale]}
    if code is not None:
        kl = kl_loss(code)
        total = add(total, scale(kl, config.tokenizer.kl_weight))
        breakdown["kl"] = float(kl.data)
    else:
        breakdown["kl"] = 0.0
    breakdown["total"] = float(total.data)
    return total, breakdown
