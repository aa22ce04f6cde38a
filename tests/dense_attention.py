"""Test helper: dense softmax attention in numpy, the reference that
``tensor.span_attention`` and ``attention.masked_mha`` are checked against.

Every query scores every key, and a pair outside the allowed set gets
``MASK_VALUE`` added to its logit, so its weight underflows to exactly 0.0.
The layout is the package's key-major one: ``q_t`` and ``v_t`` are
``(..., hd, T)``, ``k`` is ``(..., T, hd)`` and the weights are
``(..., keys, queries)``. The forward forms the same products as
``tensor.matmul`` and normalises with ``span_attention``'s in-place steps,
so it equals the package's forward bit for bit. The backward is the closed
form, so its sums run in another order than the package's.
"""

import math

import numpy as np

# Large enough that exp() underflows to exactly 0.0 in float32 and float64,
# yet small enough never to overflow.
MASK_VALUE = -1e9


def attention(q_t, k, v_t, allow, scale):
    """Dense attention over the query-major T x T boolean ``allow``.

    Returns the ``(..., hd, T)`` output and a function from its gradient to
    the gradients of ``q_t``, ``k`` and ``v_t``.
    """
    p = k @ q_t
    p *= scale
    p += np.where(allow.T, 0.0, MASK_VALUE).astype(p.dtype)
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)

    def backward(g):
        g_v = g @ np.swapaxes(p, -1, -2)
        g_p = np.swapaxes(v_t, -1, -2) @ g
        g_s = scale * p * (g_p - (g_p * p).sum(axis=-2, keepdims=True))
        return np.swapaxes(k, -1, -2) @ g_s, g_s @ np.swapaxes(q_t, -1, -2), g_v

    return v_t @ p, backward


def mha(x, weights, heads, allow):
    """Multi-head attention of ``(b, t, d)`` tokens as ``masked_mha`` forms it,
    with ``weights`` the ``(d, d)`` arrays wq, wk, wv and wo.

    Returns the ``(b, t, d)`` output and a function from its gradient to the
    gradients of ``x`` and of each weight, in that order.
    """
    b, t, d = x.shape
    hd = d // heads
    wq, wk, wv, wo = weights
    rows = x.reshape(b * t, d)

    def split(w, axes):
        return (rows @ w).reshape(b, t, heads, hd).transpose(axes)

    q_t, k, v_t = split(wq, (0, 2, 3, 1)), split(wk, (0, 2, 1, 3)), split(wv, (0, 2, 3, 1))
    mixed_t, attention_backward = attention(q_t, k, v_t, allow, 1.0 / math.sqrt(hd))
    mixed = mixed_t.transpose(0, 3, 1, 2).reshape(b * t, d)

    def backward(g):
        g = g.reshape(b * t, d)
        g_q_t, g_k, g_v_t = attention_backward((g @ wo.T).reshape(b, t, heads, hd).transpose(0, 2, 3, 1))
        g_q, g_v = (a.transpose(0, 3, 1, 2).reshape(b * t, d) for a in (g_q_t, g_v_t))
        g_k = g_k.transpose(0, 2, 1, 3).reshape(b * t, d)
        g_x = g_q @ wq.T + g_k @ wk.T + g_v @ wv.T
        return (g_x.reshape(b, t, d), rows.T @ g_q, rows.T @ g_k, rows.T @ g_v, mixed.T @ g)

    return (mixed @ wo).reshape(b, t, d), backward
