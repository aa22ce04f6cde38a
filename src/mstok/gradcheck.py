"""Gradient validation: composed-op checks plus a full tiny-model sweep.

Everything runs in double precision. The end-to-end check perturbs every
parameter (a deterministic spread of coordinates for large ones) against
central finite differences of the total training loss.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import AttentionRegime, build_mask
from .config import RunConfig, TokenizerConfig
from .losses import multiscale_loss
from .model import init_model
from .pyramid import build_schedule, downsample_interp, image_pyramid
from .tensor import Tensor, make_rng, named_tensors

TINY_CONFIG = TokenizerConfig(
    image_size=8, patch=4, enc_layers=1, dec_layers=1, enc_width=8, dec_width=8,
    heads=2, latent_dim=4, scales=(1, 2), downsample_mode="conv", regime="scalecausal",
    kl_weight=1e-2, seed=0,
)


def op_library_checks(eps: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error for a library of composed operations."""
    rng = make_rng(11)
    results: dict[str, float] = {}

    x = Tensor(rng.standard_normal((4, 4)))
    results["sum_of_squares"] = T.grad_check(lambda t: T.tsum(T.square(t)), x, eps)

    mask = np.where(rng.random((4, 4)) < 0.4, T.MASK_VALUE, 0.0)
    mask[:, 1] = 0.0
    results["masked_softmax_square_sum"] = T.grad_check(
        lambda t: T.tsum(T.square(T.softmax(t, additive_mask=mask))), x, eps
    )
    results["scaled_masked_softmax"] = T.grad_check(
        lambda t: T.tsum(T.square(T.softmax(t, additive_mask=mask, scale=0.7))), x, eps
    )

    kernel = Tensor(rng.standard_normal((3, 2, 2, 2)), dtype=np.float64)
    gain = Tensor(rng.standard_normal(3), dtype=np.float64)
    bias = Tensor(rng.standard_normal(3), dtype=np.float64)

    def conv_ln_mean(t):
        y = T.conv2d(T.transpose(t, (0, 2, 3, 1)), kernel)
        y = T.layer_norm(y, gain, bias)
        return T.tmean(y)

    results["conv_layernorm_mean"] = T.grad_check(conv_ln_mean, Tensor(rng.standard_normal((1, 2, 4, 4))), eps)

    sched = build_schedule(4, [1, 2, 4])
    coeffs = Tensor(rng.standard_normal((sched.total, 3)), dtype=np.float64)
    results["pyramid_interp"] = T.grad_check(
        lambda t: T.tsum(T.mul(downsample_interp(t, sched), coeffs)), Tensor(rng.standard_normal((1, 4, 4, 3))), eps
    )

    w = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
    results["gelu_mlp"] = T.grad_check(
        lambda t: T.tmean(T.gelu(T.matmul(t, w))), Tensor(rng.standard_normal((3, 4))), eps
    )

    results["area_pool_fractional"] = T.grad_check(
        lambda t: T.tsum(T.square(T.area_pool(t, 3, 3))), Tensor(rng.standard_normal((1, 2, 4, 4))), eps
    )

    # q^T, k and v^T of 2 heads with hd = 3 over a 1, 2, 3 schedule, stacked
    # in one tensor so one check covers all three inputs.
    sched = build_schedule(3, [1, 2, 3])
    qkv = Tensor(rng.standard_normal((3, 2, sched.total, 3)))
    coeffs = Tensor(rng.standard_normal((2, 3, sched.total)), dtype=np.float64)

    def span_attention_sum(t, spans):
        q_t, k, v_t = (T.reshape(T.slice_axis(t, 0, i, i + 1), t.shape[1:]) for i in range(3))
        out = T.span_attention(T.transpose(q_t, (0, 2, 1)), k, T.transpose(v_t, (0, 2, 1)), spans, 0.6)
        return T.tsum(T.square(T.mul(out, coeffs)))

    for regime in (AttentionRegime.SCALE_CAUSAL, AttentionRegime.SCALE_INDEPENDENT):
        spans = build_mask(sched, regime).spans
        results[f"span_attention_{regime.value}"] = T.grad_check(
            lambda t: span_attention_sum(t, spans), qkv, eps
        )
    return results


def _coordinate_subset(size: int, max_coords: int) -> np.ndarray:
    if size <= max_coords:
        return np.arange(size)
    return np.unique(np.linspace(0, size - 1, max_coords).round().astype(int))


def model_end_to_end_check(eps: float = 1e-4, max_coords_per_param: int = 8) -> float:
    """Max relative gradient error of the total loss over every parameter of a
    tiny double-precision model."""
    cfg = TINY_CONFIG
    model = init_model(cfg, dtype=np.float64)
    rng = make_rng(12)
    x = Tensor(rng.uniform(-1, 1, (2, 3, cfg.image_size, cfg.image_size)))
    targets = image_pyramid(x, model.schedule, cfg.patch)
    run = RunConfig(tokenizer=cfg)

    def loss_fn() -> Tensor:
        # A fresh same-seed generator draws the same latent noise on every
        # call, so the reparameterized sample is under the check too.
        px, code = model.reconstruct(x, deterministic=False, rng=make_rng(13))
        total, _ = multiscale_loss(px, targets, model.schedule, run, code)
        return total

    params = named_tensors(model)
    loss_fn().backward()
    analytic = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for name, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        idx = _coordinate_subset(p.size, max_coords_per_param)
        numeric = T.central_differences(lambda: loss_fn().data, p.data.reshape(-1), idx, eps)
        worst = max(worst, T.max_relative_error(analytic[name].reshape(-1)[idx], numeric))
    return worst
