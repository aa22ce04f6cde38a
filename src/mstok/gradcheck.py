"""Gradient validation: composed-op checks plus a full tiny-model sweep.

Everything runs in double precision. The end-to-end check perturbs every
parameter (a deterministic spread of coordinates for large ones) against
central finite differences of the trainer's own shard loss
(``train.train_shard``).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import AttentionRegime, build_mask
from .config import RunConfig, TokenizerConfig
from .model import init_model
from .pyramid import build_schedule, downsample_interp
from .tensor import Tensor, make_rng, named_tensors
from .train import train_shard

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

    # The MLP residual branch t + rows * mlp(t), with the row scale drop_path
    # draws at rate 0.5 when it drops the second of three rows.
    w1 = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
    w2 = Tensor(np.ascontiguousarray(w1.data.T))
    rows = np.array([[2.0], [0.0], [2.0]])
    results["mlp_branch"] = T.grad_check(
        lambda t: T.tmean(T.mlp(t, w1, w2, residual=t, rows=rows)), Tensor(rng.standard_normal((3, 4))), eps
    )

    results["area_pool_fractional"] = T.grad_check(
        lambda t: T.tsum(T.square(T.area_pool(t, 3, 3))), Tensor(rng.standard_normal((1, 2, 4, 4))), eps
    )

    # q, k and v of 2 heads with hd = 3 over a 1, 2, 3 schedule, stacked in
    # one tensor so one check covers all three inputs.
    sched = build_schedule(3, [1, 2, 3])
    qkv = Tensor(rng.standard_normal((3, 1, sched.total, 6)))
    coeffs = Tensor(rng.standard_normal((1, sched.total, 6)), dtype=np.float64)

    def span_attention_sum(t, spans):
        q, k, v = (T.reshape(T.slice_axis(t, 0, i, i + 1), t.shape[1:]) for i in range(3))
        return T.tsum(T.square(T.mul(T.span_attention(q, k, v, 2, spans), coeffs)))

    for regime in (AttentionRegime.SCALE_CAUSAL, AttentionRegime.SCALE_INDEPENDENT):
        spans = build_mask(sched, regime)
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
    x = rng.uniform(-1, 1, (2, 3, cfg.image_size, cfg.image_size))
    run = RunConfig(tokenizer=cfg)

    def loss_fn() -> Tensor:
        # The trainer's own shard loss. A fresh same-seed generator draws the
        # same latent noise on every call, so the reparameterized sample is
        # under the check too; TINY_CONFIG's drop_path is 0, so it draws
        # no masks.
        return train_shard(run, model, x, make_rng(13))[0]

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
