"""Test helper: the pre-norm transformer block as a chain of separate graph
nodes, the reference that ``attention.transformer_block`` is checked against.

Each residual branch is the composition that the block's fused nodes
replace: ``add(x, drop(matmul(merged_heads, wo)))`` and
``add(h, drop(matmul(gelu(matmul(ln2(h), fc1)), fc2)))``, where ``drop``
multiplies the branch by a row scale drawn as ``tensor.drop_path`` draws it,
attention branch first, and is left out without a generator or at rate 0.
The token-wise products and the GELU are numpy nodes here: a product is one
gemm on the input's rows, its input gradient multiplies by a row-major copy
of the transposed kernel, and its kernel gradient reduces over the largest
multiple of 32 rows and then the tail, as the package's do; the GELU is the
textbook tanh form. The layer norms, the attention core and the elementwise
``mul`` and ``add`` are the package's own ops. Every node keeps what its
backward reads, as separate nodes do.
"""

import math

import numpy as np

from mstok import tensor as T
from mstok.tensor import Tensor


def matmul(x, w):
    """Token-wise ``x @ w`` of an ``(..., n)`` input and an ``(n, m)`` kernel."""
    n, m = w.shape
    rows = x.data.reshape(-1, n)

    def backward(g):
        g = g.reshape(-1, m)
        if x.requires_grad:
            T._accumulate(x, (g @ np.ascontiguousarray(w.data.T)).reshape(x.shape), fresh=True)
        if w.requires_grad:
            k = len(rows) - len(rows) % 32 or len(rows)
            grad = rows[:k].T @ g[:k]
            if k < len(rows):
                grad += rows[k:].T @ g[k:]
            T._accumulate(w, grad, fresh=True)

    return T._result((rows @ w.data).reshape(x.shape[:-1] + (m,)), (x, w), backward)


def gelu(a):
    """Tanh-form GELU by the textbook expressions."""
    x = a.data
    c, k = T._GELU_C, T._GELU_K
    u = np.tanh(c * (x + k * x * x * x))

    def backward(g):
        du = c * (1.0 + 3.0 * k * x * x) * (1.0 - u * u)
        T._accumulate(a, g * (0.5 * (1.0 + u) + 0.5 * x * du), fresh=True)

    return T._result(0.5 * x * (1.0 + u), (a,), backward)


def drop(branch, rate, rng):
    if rng is None or rate <= 0.0:
        return branch
    keep = 1.0 - rate
    scale = (rng.random(branch.shape[:-1] + (1,)) < keep).astype(branch.dtype) / keep
    return T.mul(branch, Tensor(scale))


def transformer_block(x, params, heads, mask, eps=1e-6, drop_rate=0.0, rng=None):
    """``attention.transformer_block``'s math, one graph node per op."""
    b, t, d = x.shape
    hd = d // heads
    ln1 = T.layer_norm(x, params.ln1.gain, params.ln1.bias, eps)

    def split_heads(w, axes):
        return T.transpose(T.reshape(matmul(ln1, w), (b, t, heads, hd)), axes)

    q_t = split_heads(params.attn.wq, (0, 2, 3, 1))
    k = split_heads(params.attn.wk, (0, 2, 1, 3))
    v_t = split_heads(params.attn.wv, (0, 2, 3, 1))
    spans = ((0, t, 0, t),) if mask is None else mask
    mixed_t = T.span_attention(q_t, k, v_t, spans, 1.0 / math.sqrt(hd))
    merged = T.reshape(T.transpose(mixed_t, (0, 3, 1, 2)), (b, t, d))
    h = T.add(x, drop(matmul(merged, params.attn.wo), drop_rate, rng))
    ln2 = T.layer_norm(h, params.ln2.gain, params.ln2.bias, eps)
    branch = matmul(gelu(matmul(ln2, params.mlp.fc1)), params.mlp.fc2)
    return T.add(h, drop(branch, drop_rate, rng))
