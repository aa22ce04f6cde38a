"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Arrays are numpy-backed. Training math runs in float32; gradient checks and
oracles build float64 tensors (every op preserves the input dtype). A backward
pass walks the graph in reverse topological order, visiting each node exactly
once and accumulating (never overwriting) gradients, so DAGs with shared
subexpressions differentiate correctly.

The graph is freed as the sweep goes: right after a node's backward closure
runs, the node drops its gradient, its closure and its parents, so what the
closure held is freed before the sweep reaches the inputs. Only leaf
gradients (the parameters') survive ``backward()``, and a later sweep that
reaches a released node raises. Because a node's gradient dies right after
its closure runs, one consumer may own that buffer, or a view of it, instead
of copying it (see ``_accumulate``), and the closure itself may write into
the gradient it is handed: ``layer_norm`` and ``gelu`` build their input
gradient in that buffer.

Token maps are channel-last (batch x H x W x C), and ``conv2d`` takes them
that way; images and ``area_pool`` are batch x C x H x W.

The inputs alone decide whether an op records a graph: an op whose inputs
do not require grad returns a constant and keeps no closure, so each
intermediate array is freed as soon as nothing reads it. Inference runs on a
replica of the model whose parameters do not require grad
(``replica(model, requires_grad=False)``); its outputs are bit-identical to
graph mode.

A parameter tree is a dataclass, dict or list whose leaves are ``Tensor``s
or values that hold none (a config, a schedule). ``named_tensors`` and
``replica`` are the package's one walk over such trees: the model's
checkpoint records, the training loop's parameters and every replica follow
its order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np


class ConfigError(ValueError):
    """A configuration value or option is invalid or unsupported (CLI exit 1)."""


class DataError(ValueError):
    """Input data is empty, inconsistent, malformed or cannot be read (CLI
    exit 2). Every other data error of the package derives from it."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values (CLI exit 3)."""


class ShapeError(DataError):
    """Operand shapes do not conform for the requested operation."""


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype)
    if arr.dtype.kind != "f":
        return arr.astype(np.float32)
    return arr


class Tensor:
    """A dense n-dimensional array that can participate in backprop."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this node; accumulates into ``.grad``.

        The graph is freed as the sweep goes: right after a node's closure
        runs, the node drops its gradient, its closure and its parents. Only
        leaf gradients survive. A sweep that would pass through a node an
        earlier ``backward()`` released raises before any gradient changes.
        A seed ``grad`` is copied, since the sweep may own and update it in
        place.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise ShapeError(
                    f"backward(): implicit seed gradient needs a scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError(
                    f"backward(): seed gradient shape {grad.shape} != output shape {self.shape}"
                )

        # Iterative reverse topological order over grad-requiring nodes.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_fn is _RELEASED:
                raise ValueError("backward(): the graph was released by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        _accumulate(self, grad, fresh=True)
        # Popping drops the list's reference too, so a released node whose
        # data no one else holds is freed before the sweep moves on.
        while order:
            node = order.pop()
            if node._backward_fn is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = _RELEASED
            node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _children(node) -> list | None:
    """``(key, child)`` pairs of a dataclass (fields in order), a dict
    (insertion order) or a list (by index); None for any other value."""
    if is_dataclass(node):
        return [(f.name, getattr(node, f.name)) for f in fields(node)]
    if isinstance(node, dict):
        return list(node.items())
    if isinstance(node, list):
        return list(enumerate(node))
    return None


def _map_tensors(node, fn, path: str = ""):
    """``node`` with every ``Tensor`` under it replaced by ``fn(path,
    tensor)``, where ``path`` is the tensor's dotted path, taken in field,
    insertion and index order; a value that holds no ``Tensor`` is returned
    as it is."""
    if isinstance(node, Tensor):
        return fn(path, node)
    children = _children(node)
    if not children:
        return node
    mapped = {key: _map_tensors(child, fn, f"{path}.{key}" if path else str(key)) for key, child in children}
    if all(mapped[key] is child for key, child in children):
        return node
    if isinstance(node, dict):
        return mapped
    if isinstance(node, list):
        return list(mapped.values())
    return replace(node, **mapped)


# The public walks recurse through the private helpers above, so a tracer
# that wraps the module's public functions sees one call per walk.
def named_tensors(tree) -> dict[str, Tensor]:
    """Dotted path -> ``Tensor`` for every tensor in a parameter tree, in
    field, insertion and index order (``enc.0.attn.wq``, ``down.2.0``); a
    value that holds no tensor gives none."""
    named = {}
    _map_tensors(tree, named.setdefault)  # maps each tensor to itself
    return named


def replica(tree, requires_grad: bool = True):
    """A copy of a parameter tree whose tensors share the tree's ``.data``
    arrays but own their ``.grad``: backward passes on separate replicas
    never write to one buffer, and in-place updates of the tree's parameters
    show in every replica. Every value that holds no tensor is shared. With
    ``requires_grad=False`` no tensor requires grad, so a forward pass on the
    replica records no graph."""
    return _map_tensors(tree, lambda _, p: Tensor(p.data, requires_grad=requires_grad))


# Marks the closure slot of a node whose graph a backward sweep has freed.
_RELEASED = object()


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add a gradient contribution to ``t.grad``.

    ``fresh`` lets the first contribution own ``g`` instead of copying it.
    A closure may set it for an array it allocated, and also for the
    gradient it was given, or a view of it, when no other consumer takes
    that buffer: the sweep releases the gradient right after the closure
    runs, so the owner may then update it in place. The same holds for the
    closure itself: it owns the gradient it is handed and may write into it,
    as ``layer_norm`` and ``gelu`` do. A buffer another consumer also gets,
    a read-only broadcast view or a caller's array is copied. A 0-d gradient
    is stored as a 0-d array, never a numpy scalar.
    """
    # numpy returns a 0-d result as a scalar; store an array, so in-place
    # updates write into it instead of rebinding.
    g = np.asarray(g)
    reduced = np.asarray(_unbroadcast(g, t.data.shape))
    if t.grad is None:
        if reduced is not g:
            # unbroadcast allocated a reduction; safe to own
            t.grad = reduced if reduced.dtype == t.data.dtype else reduced.astype(t.data.dtype)
        elif fresh and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += reduced


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")
    return g


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    grad_parents = tuple(p for p in parents if p.requires_grad)
    out = Tensor(data, requires_grad=bool(grad_parents))
    if grad_parents:
        out._parents = grad_parents
        out._backward_fn = backward_fn
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g, fresh=True)
        if b.requires_grad:
            _accumulate(b, g, fresh=not a.requires_grad)  # a may own g

    return _result(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g, fresh=True)
        if b.requires_grad:
            _accumulate(b, -g, fresh=True)

    return _result(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data, fresh=True)
        if b.requires_grad:
            _accumulate(b, g * a.data, fresh=True)

    return _result(out_data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    out_data = a.data * s

    def backward(g):
        _accumulate(a, g * s, fresh=True)

    return _result(out_data, (a,), backward)


def _column_major(x: np.ndarray) -> bool:
    """Whether the last two axes of ``x`` are laid out column by column, as in
    a transposed view of a row-major array."""
    return x.ndim >= 2 and x.strides[-2] == x.itemsize and x.strides[-1] != x.itemsize


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(x, y, out=out)``; when both operands are column-major,
    formed as the transpose of ``y^T @ x^T``, whose operands are row-major,
    and written into ``out``'s transpose when ``out`` is given. numpy 2.4.6
    on its OpenBLAS 0.3.31 returned wrong values (or crashed) for a product
    of two column-major operands while a product of another shape ran on a
    second thread, as the training shards' products do. Every product in
    this module goes through here."""
    if _column_major(x) and _column_major(y):
        out_t = None if out is None else np.swapaxes(out, -1, -2)
        return np.swapaxes(np.matmul(np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2), out=out_t), -1, -2)
    return np.matmul(x, y, out=out)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, batched over the leading ones.

    The token-wise ``x @ W`` case (2-D ``b``, ``a`` of 3 or more dims) runs
    as one ``(rows, n) @ (n, m)`` gemm on ``a`` reshaped to rows, in the
    forward and in both gradients, instead of one small gemm per batch item;
    the result, of shape ``a.shape[:-1] + (m,)``, equals the batched
    product bit for bit. When ``a``'s leading axes do not merge
    into one (a strided view such as merged attention heads), the reshape
    to rows copies, once: the kernel gradient reuses the forward's rows.

    The kernel gradient reduces over the rows in two products: the largest
    multiple of 32 rows, then the remaining tail. On OpenBLAS 0.3.31 (as
    bundled with numpy 2.4) a product reduced over ``K`` rows gives the same
    bits at 1 and 2 BLAS threads whenever ``K`` is a multiple of 32, and for
    most other ``K`` above a few hundred it does not; with the split,
    training results do not depend on the BLAS thread count.

    Every product, forward or backward, goes through ``_product``, so none
    multiplies two column-major operands. The forward's result is
    C-contiguous unless both operands are column-major: ``_product`` returns
    such a product as a transposed view.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    flat = b.ndim == 2 and a.ndim > 2
    if flat:
        n, m = b.shape
        # A view, or one copy when a's rows do not merge (a strided view such
        # as merged attention heads); the kernel gradient reuses it.
        a_rows = a.data.reshape(math.prod(a.shape[:-1]), n)
        out_data = _product(a_rows, b.data).reshape(a.shape[:-1] + (m,))
    else:
        out_data = _product(a.data, b.data)

    def backward(g):
        if flat:
            g2 = g.reshape(a_rows.shape[0], m)
            if a.requires_grad:
                _accumulate(a, _product(g2, b.data.T).reshape(a.shape), fresh=True)
            if b.requires_grad:
                rows = a_rows.shape[0]
                k = rows - rows % 32 or rows  # fewer than 32 rows: one product
                grad_b = _product(a_rows[:k].T, g2[:k])
                if k < rows:
                    grad_b += _product(a_rows[k:].T, g2[k:])
                _accumulate(b, grad_b, fresh=True)
            return
        if a.requires_grad:
            _accumulate(a, _product(g, np.swapaxes(b.data, -1, -2)), fresh=True)
        if b.requires_grad:
            _accumulate(b, _product(np.swapaxes(a.data, -1, -2), g), fresh=True)

    return _result(out_data, (a, b), backward)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _result(out_data, (a,), backward)


def tmean(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape) / a.size, fresh=True)

    return _result(out_data, (a,), backward)


def texp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data, fresh=True)

    return _result(out_data, (a,), backward)


def tabs(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def backward(g):
        _accumulate(a, g * np.sign(a.data), fresh=True)

    return _result(out_data, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data * a.data

    def backward(g):
        _accumulate(a, g * (2.0 * a.data), fresh=True)

    return _result(out_data, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2 / pi)
_GELU_K = 0.044715
# Block size of gelu's passes: small enough that a block's few buffers stay
# in a core's L2 cache, large enough that the per-block call overhead is
# negligible.
_BLOCK_BYTES = 1 << 18


def _blocks(flat: np.ndarray) -> list[slice]:
    """Consecutive slices of about ``_BLOCK_BYTES`` covering a 1-D array (at
    least one, so an empty array gets one empty slice)."""
    step = max(1, _BLOCK_BYTES // flat.itemsize)
    return [slice(i, i + step) for i in range(0, max(flat.size, 1), step)]


def gelu(a) -> Tensor:
    """Tanh-form GELU; an order of magnitude cheaper than erf on CPU.

    Forward and backward run their in-place passes over blocks of about
    ``_BLOCK_BYTES`` of the flattened array, so each block's passes stay in
    the L2 cache instead of streaming whole activations through memory
    several times. The forward fills two buffers (``u``, kept for the
    backward, and the output); the backward builds the input gradient in the
    gradient it owns. A non-contiguous input or gradient is copied to C
    order first. Every float op keeps the operands and order of the textbook
    expressions, up to swapping the operands of a commutative op, so results
    equal them bit for bit: ``u = tanh(c * (x + k * x * x * x))``,
    ``out = 0.5 * x * (1 + u)`` and
    ``g * (0.5 * (1 + u) + 0.5 * x * (c * (1 + 3k * x * x) * (1 - u * u)))``.
    """
    a = as_tensor(a)
    xf = np.ascontiguousarray(a.data).reshape(-1)
    u = np.empty_like(xf)
    out_data = np.empty_like(xf)
    blocks = _blocks(xf)
    tmp = np.empty_like(xf[blocks[0]])
    for s in blocks:
        xb, ub, ob = xf[s], u[s], out_data[s]
        tb = tmp[:len(xb)]
        np.multiply(xb, _GELU_K, out=ub)
        ub *= xb
        ub *= xb
        ub += xb
        ub *= _GELU_C
        np.tanh(ub, out=ub)
        np.multiply(xb, 0.5, out=ob)
        np.add(ub, 1.0, out=tb)
        ob *= tb

    def backward(g):
        # g is this node's own gradient, released right after this closure
        # runs, so the input gradient is built in its buffer.
        if not (g.flags.c_contiguous and g.flags.writeable):
            g = np.array(g, order="C")
        gf = g.reshape(-1)
        du = np.empty_like(xf[blocks[0]])
        buf = np.empty_like(du)
        for s in blocks:
            xb, ub, gb = xf[s], u[s], gf[s]
            db, bb = du[:len(xb)], buf[:len(xb)]
            np.multiply(xb, 3.0 * _GELU_K, out=db)
            db *= xb
            db += 1.0
            db *= _GELU_C
            np.multiply(ub, ub, out=bb)
            np.subtract(1.0, bb, out=bb)
            db *= bb
            np.multiply(xb, 0.5, out=bb)
            db *= bb
            np.add(ub, 1.0, out=bb)
            bb *= 0.5
            bb += db
            gb *= bb
        _accumulate(a, g, fresh=True)

    return _result(out_data.reshape(a.shape), (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the non-clamped region."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)

    def backward(g):
        inside = (a.data >= lo) & (a.data <= hi)
        _accumulate(a, g * inside, fresh=True)

    return _result(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape), fresh=True)

    return _result(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inverse), fresh=True)

    return _result(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accumulate(t, g[tuple(index)], fresh=True)  # disjoint slices

    return _result(out_data, tuple(tensors), backward)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out_data = a.data[index]

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accumulate(a, full, fresh=True)

    return _result(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Neural-network primitives
# ---------------------------------------------------------------------------

def _normalize(z: np.ndarray) -> None:
    """Softmax of the key-major logits ``z`` over the keys (axis -2), in place.

    Over axis -2 of a C-contiguous array numpy reduces with vector passes
    across the contiguous last axis, where a reduction over a short last axis
    would pay a per-row cost.
    """
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)


def _normalize_backward(g: np.ndarray, p: np.ndarray, scale: float) -> None:
    """Turn ``g``, the gradient of the softmax ``p`` over the keys (axis -2) of
    logits ``scale * x``, into the gradient of ``x``, in place."""
    inner = (g * p).sum(axis=-2, keepdims=True)
    g -= inner
    g *= p
    g *= scale


def span_attention(q_t, k, v_t, spans, scale: float) -> Tensor:
    """Softmax attention in which each run of queries reads one run of keys.

    ``q_t`` and ``v_t`` are ``(..., hd, T)``, ``k`` is ``(..., T, hd)``, all
    with the same leading axes, and each span ``(q_lo, q_hi, k_lo, k_hi)``
    lets queries ``[q_lo, q_hi)`` read keys ``[k_lo, k_hi)``; the query runs
    must cover every query exactly once. For each span the key-major scores
    ``k[..., k_lo:k_hi, :] @ q_t[..., q_lo:q_hi]`` are scaled and normalised
    over the keys in place, and ``v_t[..., k_lo:k_hi] @ p`` fills that
    span's columns of the ``(..., hd, T)`` output.

    The forward equals dense attention bit for bit: the scores ``k @ q_t``,
    scaled, with a large negative value added outside the spans so that
    their weights underflow to zero, normalised over the keys and multiplied
    into ``v_t``. Every entry the spans skip adds an exact zero to the dense
    sums; the tests check this against a numpy reference of those steps.
    Only the per-span probabilities are kept for the backward, which runs
    the same steps per span and adds each span's key and value gradients
    into its key range; those sum over the queries in another order than
    the dense products, so they differ from them in the last bits.
    """
    q_t, k, v_t = as_tensor(q_t), as_tensor(k), as_tensor(v_t)
    t = k.shape[-2] if k.ndim >= 2 else 0
    if (k.ndim < 2 or q_t.shape != k.shape[:-2] + (k.shape[-1], t)
            or v_t.ndim != k.ndim or v_t.shape[:-2] + v_t.shape[-1:] != k.shape[:-2] + (t,)):
        raise ShapeError(f"span_attention: q^T {q_t.shape}, k {k.shape} and v^T {v_t.shape} do not conform")
    spans = tuple(spans)
    runs = sorted((q_lo, q_hi) for q_lo, q_hi, _, _ in spans)
    ends = [0] + [hi for _, hi in runs]
    if ([lo for lo, _ in runs] != ends[:-1] or ends[-1] != t
            or any(lo >= hi or not 0 <= k_lo < k_hi <= t for lo, hi, k_lo, k_hi in spans)):
        raise ShapeError(f"span_attention: spans {spans} do not cover {t} queries once with keys in range")
    scale = float(scale)
    out_data = np.empty(v_t.shape, dtype=np.result_type(q_t.dtype, k.dtype, v_t.dtype))
    probs = []
    for q_lo, q_hi, k_lo, k_hi in spans:
        p = _product(k.data[..., k_lo:k_hi, :], q_t.data[..., q_lo:q_hi])
        p *= scale
        _normalize(p)
        _product(v_t.data[..., k_lo:k_hi], p, out=out_data[..., q_lo:q_hi])
        probs.append(p)

    def backward(g):
        gq = np.empty_like(q_t.data) if q_t.requires_grad else None
        gk = np.zeros_like(k.data) if k.requires_grad else None
        gv = np.zeros_like(v_t.data) if v_t.requires_grad else None
        for (q_lo, q_hi, k_lo, k_hi), p in zip(spans, probs):
            g_out = g[..., q_lo:q_hi]
            if gv is not None:
                gv[..., k_lo:k_hi] += _product(g_out, np.swapaxes(p, -1, -2))
            gs = _product(np.swapaxes(v_t.data[..., k_lo:k_hi], -1, -2), g_out)
            _normalize_backward(gs, p, scale)
            if gk is not None:
                gk[..., k_lo:k_hi, :] += _product(gs, np.swapaxes(q_t.data[..., q_lo:q_hi], -1, -2))
            if gq is not None:
                _product(np.swapaxes(k.data[..., k_lo:k_hi, :], -1, -2), gs, out=gq[..., q_lo:q_hi])
        for node, grad in ((q_t, gq), (k, gk), (v_t, gv)):
            if grad is not None:
                _accumulate(node, grad, fresh=True)

    return _result(out_data, (q_t, k, v_t), backward)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply an elementwise affine.

    The output has ``x``'s dtype. Forward and backward reuse their buffers in
    place; every float op keeps the operands and order of
    ``xhat = (x - mu) * (1 / sqrt(var + eps))``, ``out = xhat * gain + bias``
    and ``gx = (gx - mean(gx) - xhat * mean(gx * xhat)) * inv`` with
    ``gx = g * gain``, so results equal them bit for bit.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1] if x.ndim > 0 else 0
    if n == 0:
        raise ShapeError("layer_norm: last axis must be non-empty")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last axis {n}"
        )
    # Two buffers: the centred input, scaled in place to xhat, and the
    # squares, reused for the output.
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out_data = xhat * xhat
    var = out_data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0), fresh=True)
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0), fresh=True)
        if x.requires_grad:
            gx = g  # this node's own gradient; the affine grads above are done with it
            gx *= gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= m1
            gx -= xhat * m2
            gx *= inv
            _accumulate(x, gx, fresh=True)

    return _result(out_data, (x, gain, bias), backward)


def conv2d(x, kernel) -> Tensor:
    """2-D cross-correlation of a channel-last ``b x H x W x C`` map with an
    ``O x C x k x k`` kernel, giving a channel-last ``b x H/k x W/k x O`` map.

    Windows do not overlap: the stride is the kernel side k, so each spatial
    side of the input must be a positive multiple of k (patch embedding and
    2x2 downsampling are the two uses). The patches, flattened in the kernel's
    ``(C, k, k)`` order, go through ``matmul``'s one gemm, so the gradients
    are those of the composed ops.

    The gemm gets a row-major copy of the kernel matrix. OpenBLAS 0.3.31
    forms a small product with a column-major operand in another kernel,
    whose results differ in the last bits from those of the same rows in a
    larger product: at ``(rows, 48) @ (48, 16)``, for up to 75 rows. With
    the copy, at the patch-embedding and 2x2-downsampling shapes of widths 16
    and 64, a row's result did not depend on the product's row count from 2
    to 256 rows (one row takes a gemv, which may differ), so a grad-free
    pass's outputs do not depend on its shard size.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and kernel, got {x.shape} and {kernel.shape}")
    b, h, w, c = x.shape
    o, ck, k, kw = kernel.shape
    if k != kw or k < 1:
        raise ShapeError(f"conv2d: kernel must be square and non-empty, got {kernel.shape}")
    if ck != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {ck} (shapes {x.shape}, {kernel.shape})")
    if h < k or w < k or h % k or w % k:
        raise ShapeError(f"conv2d: spatial dims {h}x{w} not a positive multiple of kernel side {k}")
    hp, wp = h // k, w // k
    patches = transpose(reshape(x, (b, hp, k, wp, k, c)), (0, 1, 3, 5, 2, 4))
    rows = reshape(patches, (b, hp, wp, c * k * k))
    kernel_t = transpose(reshape(kernel, (o, c * k * k)), (1, 0))
    weights = _result(np.ascontiguousarray(kernel_t.data), (kernel_t,), lambda g: _accumulate(kernel_t, g, fresh=True))
    return matmul(rows, weights)


@functools.lru_cache(maxsize=None)
def pool_weights(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic matrix mapping n_in source pixels to n_out cell means.

    Each source pixel contributes in proportion to its overlap with the
    output cell, which handles non-integral ratios such as 16 -> 12. Built
    once per shape and dtype, and read-only, since every caller shares it.
    """
    w = np.zeros((n_out, n_in), dtype=np.float64)
    span = n_in / n_out
    for p in range(n_out):
        lo = p * span
        hi = lo + span
        for r in range(int(np.floor(lo)), min(int(np.ceil(hi)), n_in)):
            overlap = min(hi, r + 1) - max(lo, r)
            if overlap > 0:
                w[p, r] = overlap
    w = (w / span).astype(dtype)
    w.flags.writeable = False
    return w


def area_pool(x, out_h: int, out_w: int) -> Tensor:
    """Mean-pool a ``b x C x H x W`` map to ``b x C x out_h x out_w``.

    Every output cell is the (fractional-area weighted) mean of its source
    region: the rows, then the columns, go through ``matmul`` with the
    constant ``pool_weights`` matrices, so the gradients are those of the
    composed ``matmul``s. A gemm sums in another order than a block mean, so
    at integral ratios results can differ from one in the last float32 bits.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"area_pool: expected 4-D input, got shape {x.shape}")
    h, w = x.shape[2:]
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"area_pool: output dims must be positive, got {out_h}x{out_w}")
    if out_h > h or out_w > w:
        raise ShapeError(f"area_pool: output {out_h}x{out_w} exceeds input {h}x{w}")
    rows = matmul(Tensor(pool_weights(h, out_h, x.dtype)), x)
    return matmul(rows, Tensor(pool_weights(w, out_w, x.dtype).T))


def drop_path(x, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Stochastic depth over token rows: each row is zeroed with probability
    ``rate``, by the next draw of ``rng``, and the rest scaled by ``1 /
    (1 - rate)``. The identity, returning ``x``, when ``rng`` is None (at
    eval) or ``rate`` is 0."""
    x = as_tensor(x)
    if rng is None or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask_shape = x.shape[:-1] + (1,)
    mask = (rng.random(mask_shape) < keep).astype(x.dtype) / keep
    return mul(x, Tensor(mask))


# ---------------------------------------------------------------------------
# Seeded randomness and gradient checking
# ---------------------------------------------------------------------------

def make_rng(seed: int, stream: int | tuple[int, ...] = 0) -> np.random.Generator:
    """Counter-based (Philox) generator; distinct streams never collide."""
    key = (stream,) if isinstance(stream, int) else tuple(stream)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


# The standard normal CDF at -2 and 2, as the nearest doubles;
# 0.5 * math.erfc(2 / math.sqrt(2)) is one ulp off the first.
_TRUNC_LO = 0.022750131948179195
_TRUNC_HI = 0.9772498680518208

# Wichura's AS241 (PPND16, Appl. Stat. 37, 1988) rational approximations of
# the inverse normal CDF: numerator and denominator coefficients, highest
# degree first. The central one holds for |u - 0.5| <= 0.425, the tail one
# for r = sqrt(-log(min(u, 1 - u))) <= 5; on [_TRUNC_LO, _TRUNC_HI], r <= 1.95.
_AS241_CENTRAL_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
                      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
                      1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_CENTRAL_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
                      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
                      4.2313330701600911252e+1, 1.0)
_AS241_TAIL_NUM = (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
                   1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
                   4.6303378461565452959e+0, 1.4234371107496835773e+0)
_AS241_TAIL_DEN = (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
                   1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
                   2.0531916266377588219e+0, 1.0)


def _horner(coeffs, r: np.ndarray) -> np.ndarray:
    """The polynomial at ``r``, by Horner's rule in place."""
    out = coeffs[0] * r + coeffs[1]
    for c in coeffs[2:]:
        out *= r
        out += c
    return out


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) truncated to two standard deviations, via inverse CDF.

    The inverse CDF is Wichura's AS241 (Appl. Stat. 1988), vectorised with
    the operation order of CPython's ``statistics.NormalDist.inv_cdf``, so
    each draw is that function's to the bit.
    """
    u = rng.uniform(_TRUNC_LO, _TRUNC_HI, size=shape)
    q = u - 0.5
    r = 0.180625 - q * q
    x = _horner(_AS241_CENTRAL_NUM, r) * q / _horner(_AS241_CENTRAL_DEN, r)
    tail = np.abs(q) > 0.425
    u = u[tail]
    r = np.sqrt(-np.log(np.minimum(u, 1.0 - u))) - 1.6
    x[tail] = np.copysign(_horner(_AS241_TAIL_NUM, r) / _horner(_AS241_TAIL_DEN, r), q[tail])
    return (x * std).astype(dtype)


def central_differences(f, flat: np.ndarray, indices, eps: float) -> np.ndarray:
    """Central-difference derivatives of the scalar ``f()`` with respect to
    ``flat[i]`` for each index. ``flat`` is perturbed in place, one coordinate
    at a time, and restored; ``f`` must read its inputs through it."""
    numeric = np.empty(len(indices))
    for k, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f())
        flat[i] = orig - eps
        lo = float(f())
        flat[i] = orig
        numeric[k] = (hi - lo) / (2.0 * eps)
    return numeric


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max of |a - n| / max(|a|, |n|, 1e-8); raises on non-finite gradients."""
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise NumericError("gradient check: non-finite gradient")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The check runs in double precision regardless of the input dtype, on a
    C-ordered copy of the input, so that a strided view is perturbed too;
    ``f`` must map a tensor to a scalar tensor.
    """
    base = np.array(x.data, dtype=np.float64, order="C")

    x64 = Tensor(base.copy(), requires_grad=True)
    out = f(x64)
    if out.size != 1:
        raise ShapeError(f"grad_check: f must return a scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check: non-finite forward output")
    out.backward()

    flat = base.reshape(-1)
    numeric = central_differences(lambda: f(Tensor(base.copy())).data, flat, range(flat.size), eps)
    return max_relative_error(x64.grad.reshape(-1), numeric)
