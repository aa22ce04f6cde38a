"""The multi-scale reconstruction loss on pixel tokens, and the KL term.

The term weights come from the ``RunConfig`` (``l1_weight``, ``mse_weight``,
``scale_weights`` and the tokenizer's ``kl_weight``); ``RunConfig.validate``
checks them. Every constant here, a weight or an averaging matrix, is handed
to the ops as a Python number or a numpy array and takes the dtype of the
prediction it meets, so a float32 decode gives a float32 loss.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .model import LatentCode
from .pyramid import ScaleSchedule, segment_matrix
from .tensor import (NumericError, ShapeError, Tensor, add, as_tensor, clip, matmul, mul, reshape, square, sub,
                     tabs, texp, tmean)


def kl_loss(code: LatentCode) -> Tensor:
    """Mean KL divergence of N(mu, exp(logvar)) from the standard normal, in
    the code's dtype, clamped at 0: for a code a few ulps from the standard
    normal, ``exp(logvar) - (logvar + 1)`` rounds below 0 (``mu = 0``,
    ``logvar = -3e-7`` gives -3.0e-8 in float32). Above 0 the clamp passes
    the value and its gradient unchanged."""
    if not np.isfinite(code.logvar.data).all():
        raise NumericError("kl_loss: non-finite logvar")
    inner = sub(add(square(code.mu), texp(code.logvar)), add(code.logvar, 1.0))
    return clip(mul(tmean(inner), 0.5), 0.0, np.inf)


def multiscale_loss(
    px, targets, schedule: ScaleSchedule, config: RunConfig, code: LatentCode | None = None
) -> tuple[Tensor, dict]:
    """Weighted mean of per-scale reconstruction losses plus the KL term.

    ``px`` is the decoder's batch x T x 3p² pixel tokens and ``targets`` their
    ``image_pyramid``. ``|err|`` and ``err²`` each take their per-image,
    per-scale means in a matmul with the ``segment_matrix`` scaled to means;
    weighting them only after that keeps the graph at three full-size arrays.
    A 1/batch row then makes the per-scale vector of ``l1_weight * mean|err|
    + mse_weight * mean(err²)``, weighted by ``scale_weights`` over their
    sum. Returns the scalar total and a plain-float breakdown.
    """
    px = as_tensor(px)
    if px.shape != np.shape(targets) or px.ndim != 3 or px.shape[1] != schedule.total:
        raise ShapeError(f"multiscale_loss: prediction {px.shape} and target {np.shape(targets)} "
                         f"are not both batch x {schedule.total} x width")
    b, t, d = px.shape
    err = sub(px, targets)
    means = segment_matrix(schedule, d) / (np.array(schedule.counts) * d)
    l1 = matmul(reshape(tabs(err), (b, t * d)), means)
    l2 = matmul(reshape(square(err), (b, t * d)), means)
    per_image = add(mul(l1, config.l1_weight), mul(l2, config.mse_weight))
    per_scale = matmul(np.full((1, b), 1.0 / b), per_image)
    weights = np.array(config.scale_weights or np.ones(schedule.num_scales))
    total = reshape(matmul(per_scale, weights[:, None] / weights.sum()), ())
    breakdown = {"per_scale": per_scale.data[0].tolist()}
    if code is not None:
        kl = kl_loss(code)
        total = add(total, mul(kl, config.tokenizer.kl_weight))
        breakdown["kl"] = float(kl.data)
    else:
        breakdown["kl"] = 0.0
    breakdown["total"] = float(total.data)
    return total, breakdown
