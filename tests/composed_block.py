"""Test helper: the pre-norm transformer block as a chain of separate graph
nodes, the reference that ``attention.transformer_block`` is checked against.

Each residual branch is the composition that the block's fused nodes
replace: ``add(x, drop(matmul(attention, wo)))`` and
``add(h, drop(matmul(gelu(matmul(ln2(h), fc1)), fc2)))``, where ``drop``
multiplies the branch by a row scale drawn as ``tensor.drop_path`` draws it,
attention branch first, and is left out without a generator or at rate 0.
The token-wise products and the GELU are numpy nodes here: a product's
forward is one gemm per image, the input's first axis, its input gradient
one gemm on the gradient's rows times the transposed kernel, and its kernel
gradient reduces over the largest multiple of 32 rows and then the tail, as
the package's do; the GELU is the textbook tanh form. The layer norms, the attention core
(``tensor.span_attention`` on the token-major q, k and v products) and the
elementwise ``mul`` and ``add`` are the package's own ops. Every node keeps
what its backward reads, as separate nodes do.
"""

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
            T._accumulate(x, (g @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            k = len(rows) - len(rows) % 32 or len(rows)
            grad = rows[:k].T @ g[:k]
            if k < len(rows):
                grad += rows[k:].T @ g[k:]
            T._accumulate(w, grad)

    return T._result((rows.reshape(len(x.data), -1, n) @ w.data).reshape(x.shape[:-1] + (m,)), (x, w), backward)


def gelu(a):
    """Tanh-form GELU by the textbook expressions."""
    x = a.data
    c, k = T._GELU_C, T._GELU_K
    u = np.tanh(c * (x + k * x * x * x))

    def backward(g):
        du = c * (1.0 + 3.0 * k * x * x) * (1.0 - u * u)
        T._accumulate(a, g * (0.5 * (1.0 + u) + 0.5 * x * du))

    return T._result(0.5 * x * (1.0 + u), (a,), backward)


def drop(branch, rate, rng):
    if rng is None or rate <= 0.0:
        return branch
    keep = 1.0 - rate
    scale = (rng.random(branch.shape[:-1] + (1,)) < keep).astype(branch.dtype) / keep
    return T.mul(branch, Tensor(scale))


def transformer_block(x, params, heads, mask, drop_rate=0.0, rng=None):
    """``attention.transformer_block``'s math, one graph node per op."""
    t = x.shape[1]
    ln1 = T.layer_norm(x, params.ln1.gain, params.ln1.bias)
    q, k, v = (matmul(ln1, w) for w in (params.attn.wq, params.attn.wk, params.attn.wv))
    merged = T.span_attention(q, k, v, heads, ((0, t, 0, t),) if mask is None else mask)
    h = T.add(x, drop(matmul(merged, params.attn.wo), drop_rate, rng))
    ln2 = T.layer_norm(h, params.ln2.gain, params.ln2.bias)
    branch = matmul(gelu(matmul(ln2, params.mlp.fc1)), params.mlp.fc2)
    return T.add(h, drop(branch, drop_rate, rng))
