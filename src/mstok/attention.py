"""Scale-structured attention: masks over the low-to-high pyramid sequence, masked
multi-head attention, and pre-norm transformer blocks.

Three visibility regimes over the token sequence. Full attention sees
everything; scale-independent attention confines each token to its own scale
block; scale-causal attention lets a block attend to itself and every
coarser block, so information flows from low to high resolution only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import (
    MASK_VALUE,
    ConfigError,
    ShapeError,
    Tensor,
    add,
    as_tensor,
    drop_path,
    gelu,
    layer_norm,
    matmul,
    reshape,
    softmax,
    transpose,
)
from .pyramid import ScaleSchedule


class AttentionRegime(str, Enum):
    FULL = "full"
    SCALE_INDEPENDENT = "scaleindependent"
    SCALE_CAUSAL = "scalecausal"

    @classmethod
    def parse(cls, name: str) -> "AttentionRegime":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown attention regime {name!r}; expected one of "
                f"{[r.value for r in cls]}"
            ) from None


@dataclass(frozen=True)
class AttentionMask:
    allow: np.ndarray             # T x T boolean
    schedule: ScaleSchedule
    regime: AttentionRegime
    additive: np.ndarray          # T x T float32: 0 where allowed, MASK_VALUE where forbidden


def build_mask(schedule: ScaleSchedule, regime: AttentionRegime) -> AttentionMask:
    t = schedule.total
    if regime is AttentionRegime.FULL:
        allow = np.ones((t, t), dtype=bool)
    else:
        scale_of = np.repeat(np.arange(schedule.num_scales), schedule.counts)
        q = scale_of[:, None]
        k = scale_of[None, :]
        allow = (q == k) if regime is AttentionRegime.SCALE_INDEPENDENT else (q >= k)
    # Built once per model and shared by every attention call; read-only so
    # no caller can alter the mask another call sees.
    additive = np.where(allow, 0.0, MASK_VALUE).astype(np.float32)
    additive.flags.writeable = False
    return AttentionMask(allow=allow, schedule=schedule, regime=regime, additive=additive)


@dataclass
class AttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class MlpParams:
    fc1: Tensor                   # width -> mlp_ratio * width
    fc2: Tensor                   # mlp_ratio * width -> width


@dataclass
class BlockParams:
    ln1: LayerNormParams
    attn: AttentionParams
    ln2: LayerNormParams
    mlp: MlpParams


def masked_mha(x, params: AttentionParams, heads: int, mask: AttentionMask | None) -> Tensor:
    """Scaled dot-product multi-head attention with additive masking.

    Accepts tokens x width or batch x tokens x width; no QKV or output biases.
    """
    x = as_tensor(x)
    squeeze = x.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.shape)
    b, t, d = x.shape
    if d % heads:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    if mask is not None and mask.allow.shape != (t, t):
        raise ShapeError(f"mask is {mask.allow.shape} but sequence has {t} tokens")
    hd = d // heads

    def split_heads(m: Tensor) -> Tensor:
        return transpose(reshape(m, (b, t, heads, hd)), (0, 2, 1, 3))

    q = split_heads(matmul(x, params.wq))
    k = split_heads(matmul(x, params.wk))
    v = split_heads(matmul(x, params.wv))
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    weights = softmax(scores, axis=-1, additive_mask=None if mask is None else mask.additive,
                      scale=1.0 / math.sqrt(hd))
    mixed = matmul(weights, v)
    out = reshape(transpose(mixed, (0, 2, 1, 3)), (b, t, d))
    out = matmul(out, params.wo)
    return reshape(out, (t, d)) if squeeze else out


def mlp(x, params: MlpParams) -> Tensor:
    return matmul(gelu(matmul(x, params.fc1)), params.fc2)


def transformer_block(
    x,
    params: BlockParams,
    heads: int,
    mask: AttentionMask | None,
    eps: float = 1e-6,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Pre-norm residual block: LN -> masked MHA -> +, LN -> MLP -> +."""
    x = as_tensor(x)
    attn_out = masked_mha(layer_norm(x, params.ln1.gain, params.ln1.bias, eps), params.attn, heads, mask)
    h = add(x, drop_path(attn_out, drop_rate, rng, training))
    mlp_out = mlp(layer_norm(h, params.ln2.gain, params.ln2.bias, eps), params.mlp)
    return add(h, drop_path(mlp_out, drop_rate, rng, training))
