"""Test helper: dense softmax attention in numpy, the reference that
``tensor.span_attention`` and ``attention.masked_mha`` are checked against.

Every query scores every key, and a pair outside the allowed set gets
``MASK_VALUE`` added to its logit, so its weight underflows to exactly 0.0.
``q``, ``k``, ``v`` and the output are token-major ``(b, T, d)``, split into
heads as the package splits them: ``q^T`` and ``v^T`` are
``(b, heads, hd, T)``, ``k`` is ``(b, heads, T, hd)`` and the weights are
``(b, heads, keys, queries)``. The forward forms the same products as
``tensor.span_attention`` and normalises with its in-place steps, so it
equals the package's forward bit for bit. The backward is the closed form,
so its sums run in another order than the package's.

``kept_span_backward`` is the other reference: ``span_attention``'s own
per-span backward, run from probabilities kept by the forward, which the
package's backward, rebuilding them, must equal bit for bit.
"""

import math

import numpy as np

from mstok import tensor as T

# Large enough that exp() underflows to exactly 0.0 in float32 and float64,
# yet small enough never to overflow.
MASK_VALUE = -1e9

TRANSPOSED, KEY_MAJOR = (0, 2, 3, 1), (0, 2, 1, 3)  # head views of (b, T, heads, hd)


def split(a, heads, axes):
    b, t, d = a.shape
    return a.reshape(b, t, heads, d // heads).transpose(axes)


def merge(a, axes):
    """The ``(b, T, d)`` array whose ``split`` by ``axes`` is ``a``."""
    a = a.transpose(np.argsort(axes))
    return a.reshape(a.shape[:2] + (-1,))


def attention(q, k, v, heads, allow):
    """Dense attention of ``heads`` heads over the query-major T x T boolean
    ``allow``, with logits scaled by ``1 / sqrt(d // heads)``.

    Returns the ``(b, T, d)`` output and a function from its gradient to the
    gradients of ``q``, ``k`` and ``v``.
    """
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    q_t, k_h, v_t = split(q, heads, TRANSPOSED), split(k, heads, KEY_MAJOR), split(v, heads, TRANSPOSED)
    p = k_h @ q_t
    p *= scale
    p += np.where(allow.T, 0.0, MASK_VALUE).astype(p.dtype)
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)

    def backward(g):
        g = split(g, heads, TRANSPOSED)
        g_v = g @ np.swapaxes(p, -1, -2)
        g_p = np.swapaxes(v_t, -1, -2) @ g
        g_s = scale * p * (g_p - (g_p * p).sum(axis=-2, keepdims=True))
        g_q, g_k = np.swapaxes(k_h, -1, -2) @ g_s, g_s @ np.swapaxes(q_t, -1, -2)
        return merge(g_q, TRANSPOSED), merge(g_k, KEY_MAJOR), merge(g_v, TRANSPOSED)

    return merge(v_t @ p, TRANSPOSED), backward


def mha(x, weights, heads, allow):
    """Multi-head attention of ``(b, t, d)`` tokens as ``masked_mha`` forms it,
    with ``weights`` the ``(d, d)`` arrays wq, wk, wv and wo.

    Returns the ``(b, t, d)`` output and a function from its gradient to the
    gradients of ``x`` and of each weight, in that order.
    """
    b, t, d = x.shape
    wq, wk, wv, wo = weights
    rows = x.reshape(b * t, d)
    mixed, attention_backward = attention(*((rows @ w).reshape(b, t, d) for w in (wq, wk, wv)), heads, allow)
    mixed = mixed.reshape(b * t, d)

    def backward(g):
        g = g.reshape(b * t, d)
        g_q, g_k, g_v = (a.reshape(b * t, d) for a in attention_backward((g @ wo.T).reshape(b, t, d)))
        g_x = g_q @ wq.T + g_k @ wk.T + g_v @ wv.T
        return (g_x.reshape(b, t, d), rows.T @ g_q, rows.T @ g_k, rows.T @ g_v, mixed.T @ g)

    return (mixed @ wo).reshape(b, t, d), backward


def kept_span_backward(q, k, v, heads, spans):
    """A function from the gradient of ``span_attention(q, k, v, heads,
    spans)`` to those of ``q``, ``k`` and ``v``, by the op's per-span steps
    and products, with each span's probabilities kept from a forward."""
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    q_t, k_h, v_t = split(q, heads, TRANSPOSED), split(k, heads, KEY_MAJOR), split(v, heads, TRANSPOSED)
    probs = []
    for q_lo, q_hi, k_lo, k_hi in spans:
        p = T._product(k_h[..., k_lo:k_hi, :], q_t[..., q_lo:q_hi])
        p *= scale
        T._normalize(p)
        probs.append(p)

    def backward(g):
        g = split(g, heads, TRANSPOSED)
        gq, gk, gv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
        for (q_lo, q_hi, k_lo, k_hi), p in zip(spans, probs):
            g_out = g[..., q_lo:q_hi]
            split(gv, heads, TRANSPOSED)[..., k_lo:k_hi] += T._product(g_out, np.swapaxes(p, -1, -2))
            gs = T._product(np.swapaxes(v_t[..., k_lo:k_hi], -1, -2), g_out)
            T._normalize_backward(gs, p, scale)
            split(gk, heads, KEY_MAJOR)[..., k_lo:k_hi, :] += T._product(gs, np.swapaxes(q_t[..., q_lo:q_hi], -1, -2))
            T._product(np.swapaxes(k_h[..., k_lo:k_hi, :], -1, -2), gs, out=split(gq, heads, TRANSPOSED)[..., q_lo:q_hi])
        return gq, gk, gv

    return backward
