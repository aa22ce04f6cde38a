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
    """Which keys each query may read, built once per model.

    ``allow[q, k]`` is query-major, as ``dump-mask`` prints it. ``additive``
    is key-major, the layout of ``masked_mha``'s scores: a C-contiguous
    ``additive[k, q]`` holding 0 where ``allow[q, k]`` and ``MASK_VALUE``
    where not, so adding it to the scores reads no strided view.
    """

    allow: np.ndarray             # T x T boolean, query-major
    additive: np.ndarray          # T x T float32, key-major


def build_mask(schedule: ScaleSchedule, regime: AttentionRegime) -> AttentionMask:
    t = schedule.total
    if regime is AttentionRegime.FULL:
        allow = np.ones((t, t), dtype=bool)
    else:
        q = schedule.scale_of()[:, None]
        k = q.T
        allow = (q == k) if regime is AttentionRegime.SCALE_INDEPENDENT else (q >= k)
    # Built once per model and shared by every attention call; read-only so
    # no caller can alter the mask another call sees.
    additive = np.ascontiguousarray(np.where(allow.T, 0.0, MASK_VALUE), dtype=np.float32)
    additive.flags.writeable = False
    return AttentionMask(allow=allow, additive=additive)


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

    Takes batch x tokens x width only (``ShapeError`` otherwise); no QKV or
    output biases. The scores are key-major, ``k @ q^T`` of shape
    ``(b, heads, keys, queries)``, normalised over keys with
    ``softmax(..., axis=-2)``, and each head's output is ``v^T @ weights``.
    This is ``softmax(q k^T) v`` with the keys on the second-last axis, where
    numpy's max and sum reduce across the contiguous queries; the sums run
    in a different order, so results differ from the query-major form in
    the last float32 bits.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"masked_mha: expected batch x tokens x width, got shape {x.shape}")
    b, t, d = x.shape
    if d % heads:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    if mask is not None and mask.allow.shape != (t, t):
        raise ShapeError(f"mask is {mask.allow.shape} but sequence has {t} tokens")
    hd = d // heads

    def split_heads(m: Tensor, axes: tuple[int, ...]) -> Tensor:
        return transpose(reshape(m, (b, t, heads, hd)), axes)

    # q^T and v^T are (b, heads, hd, t); k is (b, heads, t, hd).
    q_t = split_heads(matmul(x, params.wq), (0, 2, 3, 1))
    k = split_heads(matmul(x, params.wk), (0, 2, 1, 3))
    v_t = split_heads(matmul(x, params.wv), (0, 2, 3, 1))
    scores_t = matmul(k, q_t)
    weights_t = softmax(scores_t, additive_mask=None if mask is None else mask.additive,
                        scale=1.0 / math.sqrt(hd), axis=-2)
    mixed_t = matmul(v_t, weights_t)  # (b, heads, hd, t)
    # A strided view: matmul copies it to (b * t, d) rows once, and its
    # kernel gradient reuses that copy.
    out = reshape(transpose(mixed_t, (0, 3, 1, 2)), (b, t, d))
    return matmul(out, params.wo)


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
