"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Arrays are numpy-backed. Training math runs in float32; gradient checks and
oracles build float64 tensors. Every op preserves its input's dtype, and a
constant operand of ``add``, ``sub``, ``mul`` or ``matmul``, a Python number
or an array that is not a ``Tensor``, takes the dtype of the tensor it meets
(``_operands``), so no caller casts a constant itself. A backward
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
the gradient it is handed: ``layer_norm`` builds its input gradient in that
buffer, and ``linear`` and ``mlp`` hand it on to their residual.

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
        return arr.astype(dtype, copy=False)
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

        _accumulate(self, grad)
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


def _accumulate(t: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """Add a gradient contribution to ``t.grad``.

    A closure hands ``g`` over: the first contribution owns it instead of
    copying it, unless the closure says it is ``shared``. That holds for an
    array the closure allocated and for the gradient it was given, or a view
    of it: the sweep releases the gradient right after the closure runs, so
    the owner may then update it in place. The same holds for the closure
    itself: it owns the gradient it is handed and may write into it, as
    ``layer_norm`` does. A buffer another consumer also gets (``add``'s
    second operand) or a read-only broadcast view (``tsum``'s) is shared,
    and copied. A 0-d gradient is stored as a 0-d array, never a numpy
    scalar.
    """
    # numpy returns a 0-d result as a scalar; store an array, so in-place
    # updates write into it instead of rebinding.
    g = np.asarray(g)
    reduced = np.asarray(_unbroadcast(g, t.data.shape))
    if t.grad is None:
        if reduced is not g:
            # unbroadcast allocated a reduction; safe to own
            t.grad = reduced if reduced.dtype == t.data.dtype else reduced.astype(t.data.dtype)
        elif not shared and g.dtype == t.data.dtype:
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

def _operands(a, b) -> tuple[Tensor, Tensor]:
    """``a`` and ``b`` as tensors. An operand that is not a ``Tensor`` (a
    Python number or an array) is a constant and takes the other operand's
    dtype, as numpy's weak Python scalars do (NEP 50): ``mul(x, 0.5)`` on a
    float32 ``x`` is ``x * np.float32(0.5)``, and its result is float32.
    Two tensors, or two constants, promote as numpy does."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = Tensor(b, dtype=a.dtype)
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = Tensor(a, dtype=b.dtype)
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g, shared=a.requires_grad)  # a may own g

    return _result(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _result(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _result(out_data, (a, b), backward)


def _column_major(x: np.ndarray) -> bool:
    """Whether the last two axes of ``x`` are laid out column by column, as in
    a transposed view of a row-major array."""
    return x.ndim >= 2 and x.strides[-2] == x.itemsize and x.strides[-1] != x.itemsize


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(x, y, out=out)``; every product in this module goes
    through here. When both operands are column-major, as some of
    ``span_attention``'s are, the product is the transpose of ``y^T @
    x^T``, written into ``out``'s transpose when ``out`` is given: numpy
    2.4.6 on its OpenBLAS 0.3.31 returned wrong values (or crashed) for two
    column-major operands while a product of another shape ran on a second
    thread.

    A product's bits may depend on its shape: OpenBLAS picks its kernels by
    CPU, and some give a row of an ``(r, n) @ (n, m)`` product other bits at
    other row counts ``r``, and numpy forms a 1-row product as a gemv. So
    the token-wise forwards (``linear``, ``mlp``) multiply one image at a
    time, as a stacked ``(images, rows per image, n)`` product: numpy runs
    one gemm (or gemv) of the same shape per image, so a row's bits follow
    its own image, whatever the shard around it and on every kernel."""
    if _column_major(x) and _column_major(y):
        out_t = None if out is None else np.swapaxes(out, -1, -2)
        return np.swapaxes(np.matmul(np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2), out=out_t), -1, -2)
    return np.matmul(x, y, out=out)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, batched over the leading ones.

    The token-wise ``x @ W`` case (2-D ``b``, ``a`` of 3 or more dims) is
    ``linear(a, b)``: a forward of one gemm per image, ``a``'s first axis,
    and gradients of one ``(rows, n) @ (n, m)`` gemm each on ``a`` reshaped
    to rows.

    Every product, forward or backward, goes through ``_product``, so none
    multiplies two column-major operands. The forward's result is
    C-contiguous unless both operands are column-major: ``_product`` returns
    such a product as a transposed view.
    """
    a, b = _operands(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        return linear(a, b)
    out_data = _product(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _product(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _accumulate(b, _product(np.swapaxes(a.data, -1, -2), g))

    return _result(out_data, (a, b), backward)


def _kernel_grad(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``rows.T @ g``, the kernel gradient of a token-wise product, reduced
    over the rows in two products: the largest multiple of 32 rows, then the
    remaining tail. On OpenBLAS 0.3.31 (as bundled with numpy 2.4) a product
    reduced over ``K`` rows gives the same bits at 1 and 2 BLAS threads
    whenever ``K`` is a multiple of 32, and for most other ``K`` above a few
    hundred it does not; with the split, training results do not depend on
    the BLAS thread count."""
    n = rows.shape[0]
    k = n - n % 32 or n  # fewer than 32 rows: one product
    grad = _product(rows[:k].T, g[:k])
    if k < n:
        grad += _product(rows[k:].T, g[k:])
    return grad


def _branch_operands(op: str, x: Tensor, out_shape: tuple[int, ...], residual, rows):
    """``residual`` as a tensor of the output's shape and ``rows`` as a
    ``(rows, 1)`` array, or None for either; ``ShapeError`` if a shape is
    off."""
    if residual is not None:
        residual = as_tensor(residual)
        if residual.shape != out_shape:
            raise ShapeError(f"{op}: residual shape {residual.shape} != output shape {out_shape}")
    if rows is not None:
        if np.shape(rows) != x.shape[:-1] + (1,):
            raise ShapeError(f"{op}: row scale shape {np.shape(rows)} != {x.shape[:-1] + (1,)}")
        rows = rows.reshape(-1, 1)
    return residual, rows


def _add_branch(p: np.ndarray, residual: Tensor | None, rows: np.ndarray | None) -> None:
    """``p = residual + rows * p`` on a branch's ``(rows, m)`` product, in
    its own buffer."""
    if rows is not None:
        p *= rows
    if residual is not None:
        p += residual.data.reshape(p.shape)


def _by_image(x: Tensor, x_rows: np.ndarray) -> np.ndarray:
    """``x_rows``, the ``(rows, n)`` rows of an ``(..., n)`` token input
    ``x``, as ``(images, rows per image, n)``: the images are ``x``'s first
    axis when it has 3 or more dims, and a 1-D or 2-D ``x`` is one image."""
    images, per_image = (x.shape[0], math.prod(x.shape[1:-1])) if x.ndim > 2 else (1, len(x_rows))
    return x_rows.reshape(images, per_image, x.shape[-1])


def linear(x, w, residual=None, rows=None) -> Tensor:
    """Token-wise product ``x @ w`` of an ``(..., n)`` input and an ``(n, m)``
    kernel. The forward runs one gemm per image (``_by_image``), so a row's
    bits follow its own image (see ``_product``); the gradients multiply
    ``x``'s rows, and ``g``'s, as one ``(rows, ...)`` array each. With a
    ``residual`` of the output's shape and a row scale ``rows`` of shape
    ``x.shape[:-1] + (1,)`` (as ``drop_path`` draws it), either may be None,
    it is the residual branch ``residual + rows * (x @ w)`` as one node.

    The product is scaled and the residual added in the product's own
    buffer, so no branch output is held apart from the node's output. The
    node keeps ``x``'s rows, which the kernel gradient needs, and the row
    scale. When ``x``'s leading axes do not merge into one (a strided view),
    the reshape to rows copies, once; ``span_attention``'s output is a
    C-contiguous ``(b, T, d)`` array, so its rows are a view. The backward
    forms both product gradients from ``g`` (times the row scale) before it
    hands ``g`` to the residual, which then owns it, as ``add`` hands its
    gradient to its first operand. Every float op is that of
    ``add(residual, mul(matmul(x, w), rows))``, up to swapping the operands
    of ``+`` and ``*``, so results equal that composition bit for bit; the
    kernel gradient is ``_kernel_grad``'s.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: expected (..., n) input and (n, m) kernel, got {x.shape} and {w.shape}")
    n, m = w.shape
    out_shape = x.shape[:-1] + (m,)
    residual, rows = _branch_operands("linear", x, out_shape, residual, rows)
    x_rows = x.data.reshape(math.prod(x.shape[:-1]), n)
    out_data = _product(_by_image(x, x_rows), w.data).reshape(len(x_rows), m)
    _add_branch(out_data, residual, rows)

    def backward(g):
        gp = g.reshape(x_rows.shape[0], m)
        if rows is not None:
            gp = gp * rows
        if x.requires_grad:
            _accumulate(x, _product(gp, w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, _kernel_grad(x_rows, gp))
        if residual is not None and residual.requires_grad:
            _accumulate(residual, g)  # the products above are done with g

    return _result(out_data.reshape(out_shape), (x, w) + (() if residual is None else (residual,)), backward)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape), shared=True)

    return _result(out_data, (a,), backward)


def tmean(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape) / a.size)

    return _result(out_data, (a,), backward)


def texp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _result(out_data, (a,), backward)


def tabs(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _result(out_data, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data * a.data

    def backward(g):
        _accumulate(a, g * (2.0 * a.data))

    return _result(out_data, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2 / pi)
_GELU_K = 0.044715
# Block size of the GELU passes: small enough that a block's few buffers stay
# in a core's L2 cache, large enough that the per-block call overhead is
# negligible.
_BLOCK_BYTES = 1 << 18


def _blocks(flat: np.ndarray) -> list[slice]:
    """Consecutive slices of about ``_BLOCK_BYTES`` covering a 1-D array (at
    least one, so an empty array gets one empty slice)."""
    step = max(1, _BLOCK_BYTES // flat.itemsize)
    return [slice(i, i + step) for i in range(0, max(flat.size, 1), step)]


def _gelu(x: np.ndarray, out: np.ndarray, g: np.ndarray | None = None) -> None:
    """Tanh-form GELU of the flat ``x`` into ``out``, which may be ``x``
    itself, and, given the flat gradient ``g`` of ``out`` (and an ``out``
    apart from ``x``), the gradient of ``x`` in place of ``g``, in one
    pass over blocks of about ``_BLOCK_BYTES``, so each block's steps stay in
    the L2 cache instead of streaming whole activations through memory
    several times. Every float op keeps the operands and order of the
    textbook expressions, up to swapping the operands of a commutative op,
    so results equal them bit for bit: ``u = tanh(c * (x + k * x * x * x))``,
    ``out = 0.5 * x * (1 + u)`` and
    ``g * (0.5 * (1 + u) + 0.5 * x * (c * (1 + 3k * x * x) * (1 - u * u)))``.
    """
    blocks = _blocks(x)
    u = np.empty_like(x[blocks[0]])
    half, one_u, du = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    for s in blocks:
        xb = x[s]
        n = len(xb)
        ub, hb, tb, db = u[:n], half[:n], one_u[:n], du[:n]
        _gelu_tanh(xb, ub)
        np.multiply(xb, 0.5, out=hb)
        np.add(ub, 1.0, out=tb)
        np.multiply(hb, tb, out=out[s])
        if g is None:
            continue
        np.multiply(xb, 3.0 * _GELU_K, out=db)
        db *= xb
        db += 1.0
        db *= _GELU_C
        ub *= ub
        np.subtract(1.0, ub, out=ub)
        db *= ub
        db *= hb
        tb *= 0.5
        tb += db
        g[s] *= tb


def _gelu_tanh(x: np.ndarray, u: np.ndarray) -> None:
    """``u = tanh(c * (x + k * x * x * x))``, written into ``u``; the forward
    and the backward run these same ops, so they get the same bits."""
    np.multiply(x, _GELU_K, out=u)
    u *= x
    u *= x
    u += x
    u *= _GELU_C
    np.tanh(u, out=u)


def mlp(x, w1, w2, residual=None, rows=None) -> Tensor:
    """Token-wise two-layer perceptron ``gelu(x @ w1) @ w2`` with the
    tanh-form GELU (an order of magnitude cheaper than erf on CPU), of an
    ``(..., n)`` input, an ``(n, h)`` and an ``(h, m)`` kernel. With a
    ``residual`` and a row scale ``rows`` as in ``linear`` (either may be
    None), it is the residual branch ``residual + rows * mlp(x)`` as one
    node.

    The node keeps ``x``'s rows, which ``w1``'s kernel gradient needs, the
    ``(rows, h)`` pre-activation ``x @ w1``, which the GELU gradient needs,
    and the row scale; the activation is freed when the forward returns, and
    ``w2``'s product is scaled and the residual added in its own buffer. The
    backward rebuilds the activation and the GELU gradient in one blocked
    ``_gelu`` pass, by the forward's own ops, then forms ``w2``'s kernel
    gradient and the pre-activation's and ``x``'s gradients, and hands its
    gradient to the residual last. Every float op is that of
    ``add(residual, mul(matmul(gelu(matmul(x, w1)), w2), rows))``, up to
    swapping the operands of a commutative op, so results equal that
    composition bit for bit; the products are ``linear``'s: one gemm per
    image in the forward, one over all rows for each gradient.
    """
    x, w1, w2 = as_tensor(x), as_tensor(w1), as_tensor(w2)
    if (x.ndim < 1 or w1.ndim != 2 or w2.ndim != 2
            or x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]):
        raise ShapeError(f"mlp: expected (..., n) input and (n, h), (h, m) kernels, "
                         f"got {x.shape}, {w1.shape} and {w2.shape}")
    n, h, m = w1.shape + w2.shape[1:]
    out_shape = x.shape[:-1] + (m,)
    residual, rows = _branch_operands("mlp", x, out_shape, residual, rows)
    parents = (x, w1, w2) + (() if residual is None else (residual,))
    x_rows = x.data.reshape(math.prod(x.shape[:-1]), n)
    x_images = _by_image(x, x_rows)
    # The GELU runs on flat arrays in row order: ``reshape(-1)`` is a view of
    # a C-contiguous product and a copy of a transposed one (``_product``).
    # With no graph to record, the activation overwrites the pre-activation.
    pre = _product(x_images, w1.data).reshape(-1)
    act = np.empty_like(pre) if any(p.requires_grad for p in parents) else pre
    _gelu(pre, act)
    out_data = _product(act.reshape(x_images.shape[:2] + (h,)), w2.data).reshape(len(x_rows), m)
    del act
    _add_branch(out_data, residual, rows)

    def backward(g):
        gp = g.reshape(x_rows.shape[0], m)
        if rows is not None:
            gp = gp * rows
        g_pre = _product(gp, w2.data.T).reshape(-1)
        act = np.empty_like(pre)
        _gelu(pre, act, g_pre)
        g_pre = g_pre.reshape(len(x_rows), h)
        if w2.requires_grad:
            _accumulate(w2, _kernel_grad(act.reshape(len(x_rows), h), gp))
        del act
        if x.requires_grad:
            _accumulate(x, _product(g_pre, w1.data.T).reshape(x.shape))
        if w1.requires_grad:
            _accumulate(w1, _kernel_grad(x_rows, g_pre))
        if residual is not None and residual.requires_grad:
            _accumulate(residual, g)  # the products above are done with g

    return _result(out_data.reshape(out_shape), parents, backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the non-clamped region."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)

    def backward(g):
        inside = (a.data >= lo) & (a.data <= hi)
        _accumulate(a, g * inside)

    return _result(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _result(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inverse))

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
                _accumulate(t, g[tuple(index)])  # disjoint slices

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
        _accumulate(a, full)

    return _result(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Neural-network primitives
# ---------------------------------------------------------------------------

def _normalize(z: np.ndarray, stats: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of the key-major logits ``z`` over the keys (axis -2), in place.

    Returns its statistics ``(m, s)``: the per-query max of ``z`` and the sum
    of the exps, each with a length-1 key axis. Handed the ``stats`` of an
    earlier call on the same logits, it subtracts and divides by them in
    place of its two reductions, and so rebuilds that call's result bit for
    bit.

    Over axis -2 of a C-contiguous array numpy reduces with vector passes
    across the contiguous last axis, where a reduction over a short last axis
    would pay a per-row cost.
    """
    m = z.max(axis=-2, keepdims=True) if stats is None else stats[0]
    z -= m
    np.exp(z, out=z)
    s = z.sum(axis=-2, keepdims=True) if stats is None else stats[1]
    z /= s
    return m, s


def _normalize_backward(g: np.ndarray, p: np.ndarray, scale: float) -> None:
    """Turn ``g``, the gradient of the softmax ``p`` over the keys (axis -2) of
    logits ``scale * x``, into the gradient of ``x``, in place."""
    inner = (g * p).sum(axis=-2, keepdims=True)
    g -= inner
    g *= p
    g *= scale


def span_attention(q, k, v, heads: int, spans) -> Tensor:
    """Multi-head softmax attention in which each run of queries reads one
    run of keys.

    ``q``, ``k``, ``v`` and the output are token-major ``(b, T, d)``: each
    token's ``d`` features are ``heads`` heads of ``hd = d // heads``, and
    the logits are scaled by ``1 / sqrt(hd)``. Each span ``(q_lo, q_hi,
    k_lo, k_hi)`` lets queries ``[q_lo, q_hi)`` read keys ``[k_lo, k_hi)``;
    the query runs must cover every query exactly once. The op works on
    numpy head views, which record no graph node: ``q^T`` and ``v^T`` as
    ``(b, heads, hd, T)``, ``k`` as ``(b, heads, T, hd)``. For each span the
    key-major scores ``k[..., k_lo:k_hi, :] @ q^T[..., q_lo:q_hi]`` are
    scaled and normalised over the keys in place, and ``v^T[..., k_lo:k_hi]
    @ p`` fills that span's columns of the output's head view. The output
    and the gradients of ``q``, ``k`` and ``v`` are allocated ``(b, T, d)``
    and written through such views.

    On OpenBLAS's ``SkylakeX`` and ``Sandybridge`` kernels, the ones it was
    measured on, the forward equals dense attention bit for bit: the scores
    ``k @ q^T``, scaled, with a large negative value added outside the spans
    so that their weights underflow to zero, normalised over the keys and
    multiplied into ``v^T``. Every entry the spans skip adds an exact zero
    to the dense sums; the tests check this against a numpy reference of
    those steps. On the ``Haswell`` and ``Prescott`` kernels a span's
    products, of other shapes than the dense ones, differ from them in the
    last bits.
    For the backward each span keeps only its softmax statistics, the
    per-query max and sum of ``_normalize``, ``(b, heads, 1, queries)``
    each. The backward rebuilds the span's probabilities from the head
    views of ``q`` and ``k``, whose arrays the graph holds anyway, by the
    forward's own steps, so they equal the forward's bit for bit. It then
    adds each span's key and value gradients into its key range; those sum
    over the queries in another order than the dense products, so they
    differ from them in the last bits.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if k.ndim != 3 or q.shape != k.shape or v.shape != k.shape or k.shape[-1] % heads:
        raise ShapeError(f"span_attention: q {q.shape}, k {k.shape} and v {v.shape} are not (b, T, d) "
                         f"with d divisible by {heads} heads")
    b, t, d = k.shape
    spans = tuple(spans)
    runs = sorted((q_lo, q_hi) for q_lo, q_hi, _, _ in spans)
    ends = [0] + [hi for _, hi in runs]
    if ([lo for lo, _ in runs] != ends[:-1] or ends[-1] != t
            or any(lo >= hi or not 0 <= k_lo < k_hi <= t for lo, hi, k_lo, k_hi in spans)):
        raise ShapeError(f"span_attention: spans {spans} do not cover {t} queries once with keys in range")
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)

    def heads_of(a, axes=(0, 2, 3, 1)):  # (b, T, d) as (b, heads, hd, T); k as (b, heads, T, hd)
        return a.reshape(b, t, heads, hd).transpose(axes)

    key_major = (0, 2, 1, 3)
    q_t, k_h, v_t = heads_of(q.data), heads_of(k.data, key_major), heads_of(v.data)
    out_data = np.empty(k.shape, dtype=np.result_type(q.dtype, k.dtype, v.dtype))
    out_t = heads_of(out_data)

    def logits(q_lo, q_hi, k_lo, k_hi):  # the span's scaled key-major scores
        z = _product(k_h[..., k_lo:k_hi, :], q_t[..., q_lo:q_hi])
        z *= scale
        return z

    stats = []
    for q_lo, q_hi, k_lo, k_hi in spans:
        p = logits(q_lo, q_hi, k_lo, k_hi)
        stats.append(_normalize(p))
        _product(v_t[..., k_lo:k_hi], p, out=out_t[..., q_lo:q_hi])

    def backward(g):
        g = heads_of(g)
        gq = np.empty(q.shape, q.dtype) if q.requires_grad else None
        gk = np.zeros(k.shape, k.dtype) if k.requires_grad else None
        gv = np.zeros(v.shape, v.dtype) if v.requires_grad else None
        for (q_lo, q_hi, k_lo, k_hi), kept in zip(spans, stats):
            p = logits(q_lo, q_hi, k_lo, k_hi)
            _normalize(p, kept)
            g_out = g[..., q_lo:q_hi]
            if gv is not None:
                heads_of(gv)[..., k_lo:k_hi] += _product(g_out, np.swapaxes(p, -1, -2))
            gs = _product(np.swapaxes(v_t[..., k_lo:k_hi], -1, -2), g_out)
            _normalize_backward(gs, p, scale)
            if gk is not None:
                heads_of(gk, key_major)[..., k_lo:k_hi, :] += _product(gs, np.swapaxes(q_t[..., q_lo:q_hi], -1, -2))
            if gq is not None:
                _product(np.swapaxes(k_h[..., k_lo:k_hi, :], -1, -2), gs, out=heads_of(gq)[..., q_lo:q_hi])
        for node, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(node, grad)

    return _result(out_data, (q, k, v), backward)


LAYER_NORM_EPS = 1e-6


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis, then apply an elementwise affine, with
    ``eps = LAYER_NORM_EPS``.

    The output has ``x``'s dtype. Forward and backward reuse their buffers in
    place; every float op keeps the operands and order of
    ``xhat = (x - mu) * (1 / sqrt(var + eps))``, ``out = xhat * gain + bias``
    and ``gx = (gx - mean(gx) - xhat * mean(gx * xhat)) * inv`` with
    ``gx = g * gain``, so results equal them bit for bit. Only the row
    statistics ``mu`` and ``inv`` are kept for the backward, which rebuilds
    ``xhat`` from the input by the forward's own two ops.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1] if x.ndim > 0 else 0
    if n == 0:
        raise ShapeError("layer_norm: last axis must be non-empty")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last axis {n}"
        )
    # Two buffers: the centred input, scaled in place to xhat and freed on
    # return, and the squares, reused for the output.
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out_data = xhat * xhat
    var = out_data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        xhat = x.data - mu
        xhat *= inv
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gx = g  # this node's own gradient; the affine grads above are done with it
            gx *= gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= m1
            gx -= xhat * m2
            gx *= inv
            _accumulate(x, gx)

    return _result(out_data, (x, gain, bias), backward)


def conv2d(x, kernel) -> Tensor:
    """2-D cross-correlation of a channel-last ``b x H x W x C`` map with an
    ``O x C x k x k`` kernel, giving a channel-last ``b x H/k x W/k x O`` map.

    Windows do not overlap: the stride is the kernel side k, so each spatial
    side of the input must be a positive multiple of k (patch embedding and
    2x2 downsampling are the two uses). The patches, flattened in the kernel's
    ``(C, k, k)`` order, go through ``matmul``'s one gemm, so the gradients
    are those of the composed ops.
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
    return matmul(rows, kernel_t)


@functools.lru_cache(maxsize=None)
def pool_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic float64 matrix mapping n_in source pixels to n_out cell
    means.

    Each source pixel contributes in proportion to its overlap with the
    output cell, which handles non-integral ratios such as 16 -> 12. Built
    once per shape, and read-only, since every caller shares it. As a
    constant operand of an op it takes the other operand's dtype.
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
    w /= span
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
    rows = matmul(pool_weights(h, out_h), x)
    return matmul(rows, pool_weights(w, out_w).T)


def drop_path(x, rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Stochastic depth over token rows: the row scale, for ``linear``'s and
    ``mlp``'s ``rows``, that zeroes each row of ``x`` with probability
    ``rate``, by the next draw of ``rng``, and scales the rest by ``1 / (1 -
    rate)``: an array of shape ``x.shape[:-1] + (1,)`` in ``x``'s dtype.
    None, scaling no row, when ``rng`` is None (at eval) or ``rate`` is 0."""
    if rng is None or rate <= 0.0:
        return None
    x = as_tensor(x)
    keep = 1.0 - rate
    return (rng.random(x.shape[:-1] + (1,)) < keep).astype(x.dtype) / keep


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


def trunc_normal(rng: np.random.Generator, shape, std: float, dtype=np.float32) -> np.ndarray:
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
