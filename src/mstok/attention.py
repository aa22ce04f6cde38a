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
no T x T matrix, boolean, additive or of scores, is built. ``masked_mha``
hands that op the token-major q, k and v projections; the op splits and
merges the heads.
"""

from __future__ import annotations

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
    span_attention,
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

    Takes batch x tokens x width only (``ShapeError`` otherwise) and a width
    that divides by ``heads`` (``ConfigError`` otherwise); no QKV or output
    biases. ``mask`` is ``build_mask``'s spans, or ``None`` (the encoder's)
    for one span over the whole sequence; spans that do not cover the
    sequence's queries once, such as another schedule's, raise
    ``ShapeError`` in ``span_attention``. The q, k and v projections go to
    ``span_attention`` token-major, and it splits and merges the heads. It
    scores each span's queries only against the keys it reads, key-major:
    ``k @ q^T`` of shape ``(b, heads, keys, queries)``, normalised over the
    keys, and each head's output is ``v^T @ weights``. This is
    ``softmax(q k^T) v`` with the keys on the second-last axis, where
    numpy's max and sum reduce across the contiguous queries; the sums run
    in a different order, so results differ from the query-major form in
    the last float32 bits. They equal the key-major dense form over the
    mask bit for bit on the OpenBLAS kernels ``span_attention`` was measured
    on, ``SkylakeX`` and ``Sandybridge``, and not on ``Haswell`` or
    ``Prescott``.

    The output projection is ``linear(mixed, wo, residual, rows)`` on the
    ``(b, t, d)`` attention output ``mixed``, so with a ``residual`` and a
    row scale ``rows`` it returns the residual branch ``residual + rows *
    attention(x)`` as one node, leaving out whichever of the two is None;
    with neither it returns the attention output. That node keeps the rows
    of ``mixed``, a view, and the row scale; no ``wo`` product is kept apart
    from the output. ``span_attention`` keeps each span's softmax
    statistics, the per-query max and sum, and rebuilds the probabilities
    from q and k in its backward; each of the q, k and v projections keeps
    the rows of ``x``. One call records five graph nodes.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"masked_mha: expected batch x tokens x width, got shape {x.shape}")
    _, t, d = x.shape
    if d % heads:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    spans = ((0, t, 0, t),) if mask is None else mask
    mixed = span_attention(matmul(x, params.wq), matmul(x, params.wk), matmul(x, params.wv), heads, spans)
    return linear(mixed, params.wo, residual, rows)


def transformer_block(
    x,
    params: BlockParams,
    heads: int,
    mask: Spans | None,
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
    scale, the attention branch's node keeps the rows of the token-major
    ``span_attention`` output, a view, and the MLP branch's node keeps its
    input rows, a view of the second layer norm's output, and the
    ``(rows, hidden)`` pre-activation. The MLP node rebuilds the GELU
    activation in its backward, and ``span_attention`` the attention
    probabilities from q, k and its per-query softmax max and sum, so
    neither a branch's product, the activation nor the probabilities are
    held between the forward and the backward.
    """
    x = as_tensor(x)
    h = masked_mha(layer_norm(x, params.ln1.gain, params.ln1.bias), params.attn, heads, mask,
                   residual=x, rows=drop_path(x, drop_rate, rng))
    return mlp(layer_norm(h, params.ln2.gain, params.ln2.bias), params.mlp.fc1, params.mlp.fc2,
               residual=h, rows=drop_path(h, drop_rate, rng))
