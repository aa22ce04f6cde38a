"""Scale-structured attention: masks over the low-to-high pyramid sequence, masked
multi-head attention, and pre-norm transformer blocks.

Three visibility regimes over the token sequence. Full attention sees
everything; scale-independent attention confines each token to its own scale
block; scale-causal attention lets a block attend to itself and every
coarser block, so information flows from low to high resolution only.

Under every regime each scale's queries read one contiguous run of keys, so
a mask is a tuple of spans, one per scale (one for the whole sequence under
full attention), and nothing else: attention scores each scale's queries
only against the keys it may read, through ``tensor.span_attention``, and
no T x T matrix, boolean, additive or of scores, is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import (
    ConfigError,
    ShapeError,
    Tensor,
    as_tensor,
    drop_path,
    layer_norm,
    linear,
    matmul,
    mlp,
    reshape,
    span_attention,
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


# One ``(q_lo, q_hi, k_lo, k_hi)`` per run of queries: queries ``[q_lo, q_hi)``
# read keys ``[k_lo, k_hi)``, and the runs cover every query once.
Spans = tuple[tuple[int, int, int, int], ...]


def build_mask(schedule: ScaleSchedule, regime: AttentionRegime) -> Spans:
    """The mask's spans, from the schedule's scale blocks: scale s reads keys
    ``[0, end_s)`` under scale-causal attention and ``[start_s, end_s)``
    under scale-independent attention; full attention is one span over the
    whole sequence. Under either scale regime the first ``s + 1`` spans are
    the mask of the sequence's first ``s + 1`` scales."""
    t = schedule.total
    if regime is AttentionRegime.FULL:
        return ((0, t, 0, t),)
    causal = regime is AttentionRegime.SCALE_CAUSAL
    return tuple((lo, lo + n, 0 if causal else lo, lo + n)
                 for lo, n in zip(schedule.offsets(), schedule.counts))


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


def masked_mha(x, params: AttentionParams, heads: int, mask: Spans | None,
               residual=None, rows: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product multi-head attention over the mask's spans.

    Takes batch x tokens x width only (``ShapeError`` otherwise); no QKV or
    output biases. ``mask`` is ``build_mask``'s spans, or ``None`` (the
    encoder's) for one span over the whole sequence; spans that do not
    cover the sequence's queries once, such as another schedule's, raise
    ``ShapeError`` in ``span_attention``. It scores each span's queries
    only against the keys it reads, key-major: ``k @ q^T`` of shape
    ``(b, heads, keys, queries)``, normalised over the keys, and each head's
    output is ``v^T @ weights``. This is ``softmax(q k^T) v`` with the keys
    on the second-last axis, where numpy's max and sum reduce across the
    contiguous queries; the sums run in a different order, so results
    differ from the query-major form in the last float32 bits.

    The output projection is ``linear(merged, wo, residual, rows)``, so with
    a ``residual`` and a row scale ``rows`` it returns the residual branch
    ``residual + rows * attention(x)`` as one node, leaving out whichever
    of the two is None; with neither it returns the attention output. That
    node keeps the merged heads' rows, a view of the ``span_attention``
    output, and the row scale; no ``wo`` product is kept apart from the
    output. ``span_attention`` keeps its per-span probabilities, and each of
    the q, k and v projections the rows of ``x``.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"masked_mha: expected batch x tokens x width, got shape {x.shape}")
    b, t, d = x.shape
    if d % heads:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    hd = d // heads

    def split_heads(m: Tensor, axes: tuple[int, ...]) -> Tensor:
        return transpose(reshape(m, (b, t, heads, hd)), axes)

    # q^T and v^T are (b, heads, hd, t); k is (b, heads, t, hd).
    q_t = split_heads(matmul(x, params.wq), (0, 2, 3, 1))
    k = split_heads(matmul(x, params.wk), (0, 2, 1, 3))
    v_t = split_heads(matmul(x, params.wv), (0, 2, 3, 1))
    spans = ((0, t, 0, t),) if mask is None else mask
    mixed_t = span_attention(q_t, k, v_t, spans, 1.0 / math.sqrt(hd))  # (b, heads, hd, t)
    # span_attention stores its output token-major, so this transpose and
    # reshape are views, and linear's (b * t, d) rows share that storage.
    out = reshape(transpose(mixed_t, (0, 3, 1, 2)), (b, t, d))
    return linear(out, params.wo, residual, rows)


def transformer_block(
    x,
    params: BlockParams,
    heads: int,
    mask: Spans | None,
    eps: float = 1e-6,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Pre-norm residual block: LN -> masked MHA -> +, LN -> MLP -> +.

    ``mask`` is as in ``masked_mha``. With ``rng``, each branch drops token
    rows at ``drop_rate`` (``tensor.drop_path``, the attention branch's
    draw first); without it the block is deterministic.

    Each residual branch is one graph node, which adds the branch to the
    residual in its product's buffer: ``masked_mha``'s output projection
    (``tensor.linear``) and ``tensor.mlp``. Besides its output and its row
    scale, the attention branch's node keeps the merged heads' rows, a view
    of the ``span_attention`` output, and the MLP branch's node keeps its
    input rows, a view of the second layer norm's output, and the
    ``(rows, hidden)`` pre-activation. The MLP node rebuilds the GELU
    activation in its backward, so neither a branch's product nor the
    activation is held between the forward and the backward.
    """
    x = as_tensor(x)
    h = masked_mha(layer_norm(x, params.ln1.gain, params.ln1.bias, eps), params.attn, heads, mask,
                   residual=x, rows=drop_path(x, drop_rate, rng))
    return mlp(layer_norm(h, params.ln2.gain, params.ln2.bias, eps), params.mlp.fc1, params.mlp.fc2,
               residual=h, rows=drop_path(h, drop_rate, rng))
