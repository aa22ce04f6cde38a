"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Arrays are numpy-backed. Training math runs in float32; gradient checks and
oracles build float64 tensors (every op preserves the input dtype). A backward
pass walks the graph in reverse topological order, visiting each node exactly
once and accumulating (never overwriting) gradients, so DAGs with shared
subexpressions differentiate correctly.

Inside ``with no_grad():`` ops record no parents and keep no backward
closures: every result is a plain constant, so each intermediate array is
freed as soon as nothing reads it. Inference paths use it; their outputs are
bit-identical to graph mode. The flag is process-wide, nests, and is restored
on exit, also when the block raises.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy import special as sp_special

# Additive mask value for attention logits. Large enough that exp() underflows
# to exactly 0.0 in float32 and float64, which makes mask-induced causality
# hold to floating-point equality, yet small enough to never overflow.
MASK_VALUE = -1e9
# Positions with an additive mask at or below this are treated as masked out.
_MASK_THRESHOLD = -1e8


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

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this node; accumulates into ``.grad``."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise ShapeError(
                    f"backward(): implicit seed gradient needs a scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
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
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        _accumulate(self, grad)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # Operator sugar. Scalars multiply/add as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add a gradient contribution. ``fresh`` promises g is a newly allocated
    array with no other referents, so the first contribution can take
    ownership instead of copying; views or shared buffers must copy."""
    reduced = _unbroadcast(g, t.data.shape)
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


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run the enclosed ops without recording an autograd graph."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if not _grad_enabled:
        return Tensor(data)
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
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _result(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)
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


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)), fresh=True)
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                # x @ W case: collapse the batch dims into one gemm instead of
                # many small gemms followed by a reduction.
                n = a.shape[-1]
                m = g.shape[-1]
                gb = np.matmul(a.data.reshape(-1, n).T, g.reshape(-1, m))
                _accumulate(b, gb, fresh=True)
            else:
                _accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g), fresh=True)

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
        _accumulate(a, np.broadcast_to(g, a.shape) / a.size)

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


def gelu(a) -> Tensor:
    """Tanh-form GELU; an order of magnitude cheaper than erf on CPU."""
    a = as_tensor(a)
    x = a.data
    u = np.tanh(_GELU_C * (x + _GELU_K * x * x * x))
    out_data = 0.5 * x * (1.0 + u)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_K * x * x) * (1.0 - u * u)
        _accumulate(a, g * (0.5 * (1.0 + u) + 0.5 * x * du), fresh=True)

    return _result(out_data, (a,), backward)


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
                _accumulate(t, g[tuple(index)])

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

def softmax(x, additive_mask=None, scale: float = 1.0) -> Tensor:
    """Softmax of ``scale * x + additive_mask`` along the last axis.

    The scaled, masked logits are built in one owned buffer that is then
    normalized in place, so attention scores cost no intermediate tensors;
    the result equals ``softmax(scale(x, s), additive_mask=m)`` bit for bit.
    The mask is a numpy array. The result keeps ``x``'s shape and dtype, so
    the mask must broadcast to ``x``'s shape.
    Masked positions carry an additive value of ``MASK_VALUE``; their weight
    underflows to exactly 0.0. Rows where every position is masked output
    zeros rather than NaN, so a uniform mask-handling path is safe.
    """
    x = as_tensor(x)
    scale = float(scale)
    out_data = x.data * scale  # fresh buffer
    if additive_mask is not None:
        additive_mask = np.asarray(additive_mask)
        try:
            out_data += additive_mask
        except ValueError:
            raise ShapeError(f"softmax: mask shape {additive_mask.shape} does not broadcast to {x.shape}") from None
    out_data -= out_data.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=-1, keepdims=True)
    if additive_mask is not None:
        dead_rows = np.all(additive_mask <= _MASK_THRESHOLD, axis=-1, keepdims=True)
        if dead_rows.any():
            out_data = np.where(np.broadcast_to(dead_rows, out_data.shape), 0.0, out_data)

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        gx = out_data * (g - inner)
        gx *= scale
        _accumulate(x, gx, fresh=True)

    return _result(out_data, (x,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply an elementwise affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1] if x.ndim > 0 else 0
    if n == 0:
        raise ShapeError("layer_norm: last axis must be non-empty")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last axis {n}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0), fresh=True)
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0), fresh=True)
        if x.requires_grad:
            gx = g * gain.data
            term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, term * inv, fresh=True)

    return _result(out_data, (x, gain, bias), backward)


def conv2d(x, kernel) -> Tensor:
    """2-D cross-correlation, NCHW input against an OCkk kernel.

    Windows do not overlap: the stride is the kernel side k, so each spatial
    side of the input must be a positive multiple of k (patch embedding and
    2x2 downsampling are the two uses).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and kernel, got {x.shape} and {kernel.shape}")
    b, c, h, w = x.shape
    o, ck, k, kw = kernel.shape
    if k != kw or k < 1:
        raise ShapeError(f"conv2d: kernel must be square and non-empty, got {kernel.shape}")
    if ck != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {ck} (shapes {x.shape}, {kernel.shape})")
    if h < k or w < k or h % k or w % k:
        raise ShapeError(f"conv2d: spatial dims {h}x{w} not a positive multiple of kernel side {k}")
    hp, wp = h // k, w // k

    # A reshape exposes the patches directly and the input gradient is a
    # single tensordot.
    patches = x.data.reshape(b, c, hp, k, wp, k)
    out_data = np.ascontiguousarray(
        np.tensordot(patches, kernel.data, axes=([1, 3, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    )

    def backward(g):
        if kernel.requires_grad:
            gk = np.tensordot(g, patches, axes=([0, 2, 3], [0, 2, 4]))
            _accumulate(kernel, gk, fresh=True)
        if x.requires_grad:
            gx = np.tensordot(g, kernel.data, axes=([1], [0]))
            gx = gx.transpose(0, 3, 1, 4, 2, 5).reshape(x.shape)
            _accumulate(x, np.ascontiguousarray(gx), fresh=True)

    return _result(out_data, (x, kernel), backward)


def _pool_weights(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic matrix mapping n_in source pixels to n_out cell means.

    Each source pixel contributes in proportion to its overlap with the
    output cell, which handles non-integral ratios such as 16 -> 12.
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
    return (w / span).astype(dtype)


def area_pool(x, out_h: int, out_w: int) -> Tensor:
    """Mean-pool a NCHW map to ``out_h x out_w``; every output cell is the
    (fractional-area weighted) mean of its source region."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"area_pool: expected 4-D input, got shape {x.shape}")
    b, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"area_pool: output dims must be positive, got {out_h}x{out_w}")
    if out_h > h or out_w > w:
        raise ShapeError(f"area_pool: output {out_h}x{out_w} exceeds input {h}x{w}")

    if h % out_h == 0 and w % out_w == 0:
        # Integral ratio: exact block averaging.
        sh, sw = h // out_h, w // out_w
        blocked = x.data.reshape(b, c, out_h, sh, out_w, sw)
        out_data = blocked.mean(axis=(3, 5))

        def backward(g):
            gx = np.repeat(np.repeat(g, sh, axis=2), sw, axis=3) / (sh * sw)
            _accumulate(x, gx, fresh=True)

        return _result(out_data, (x,), backward)

    wr = _pool_weights(h, out_h, x.dtype)
    wc = _pool_weights(w, out_w, x.dtype)
    out_data = np.einsum("ph,qw,bchw->bcpq", wr, wc, x.data, optimize=True)

    def backward(g):
        _accumulate(x, np.einsum("ph,qw,bcpq->bchw", wr, wc, g, optimize=True), fresh=True)

    return _result(out_data, (x,), backward)


def drop_path(x, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Stochastic depth over token rows. Identity when rate is 0 or at eval."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ConfigError("drop_path: rng required in training mode with rate > 0")
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


_TRUNC_LO = float(sp_special.ndtr(-2.0))
_TRUNC_HI = float(sp_special.ndtr(2.0))


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) truncated to two standard deviations, via inverse CDF."""
    u = rng.uniform(_TRUNC_LO, _TRUNC_HI, size=shape)
    return (sp_special.ndtri(u) * std).astype(dtype)


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

    The check runs in double precision regardless of the input dtype; ``f``
    must map a tensor to a scalar tensor.
    """
    base = x.data.astype(np.float64)

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
