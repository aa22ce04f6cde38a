import math
import statistics
import zlib

import dense_attention as dense
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from mstok import blas
from mstok import tensor as T
from mstok.tensor import Tensor


def rand64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# Elementwise / linear ops
# ---------------------------------------------------------------------------

def test_matmul_kernel_gradient_independent_of_blas_threads():
    # 5355 = 63 x 85 rows, the decoder's row count at batch 63: on OpenBLAS
    # 0.3.31 one product reduced over them differs between 1 and 2 threads.
    controls = blas._controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread controls are missing")
    get, set_ = controls
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((63, 85, 64)).astype(np.float32))
    g = rng.standard_normal((63, 85, 256)).astype(np.float32)
    grads = []
    saved = get()
    try:
        for threads in (1, 2):
            set_(threads)
            w = Tensor(np.ones((64, 256), dtype=np.float32), requires_grad=True)
            T.matmul(x, w).backward(g)
            grads.append(w.grad)
    finally:
        set_(saved)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_matmul_scalar_product():
    out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_sum_value_and_gradient():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    s = T.tsum(x)
    assert s.item() == 6.0
    s.backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_mean_matches_arithmetic_mean_oracle():
    values = [[1.0, 2.0], [3.0, 4.0]]
    flat = [v for row in values for v in row]
    expected = sum(flat) / len(flat)  # independent arithmetic mean
    assert T.tmean(Tensor(values)).item() == pytest.approx(expected)
    assert expected == 2.5


def test_add_shape_mismatch_names_op_and_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    msg = str(err.value)
    assert "add" in msg and "(2, 3)" in msg and "(4, 5)" in msg


def test_matmul_inner_dim_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(T.ShapeError, match="inner dimensions"):  # the flat x @ W case
        T.matmul(Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("lead", [(4, 5), (2, 3, 5), (5, 13)])
@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_flat_x_at_w_matches_einsum_oracle(lead, transposed):
    # x @ W with a 3-D or 4-D x runs as one 2-D gemm, forward and backward;
    # a transposed (non-contiguous) x exercises the reshape copy. 65 rows
    # split the kernel gradient into 64 rows plus a 1-row tail.
    rng = np.random.default_rng(13)
    n, m = 6, 7
    x = rng.standard_normal(lead + (n,)).astype(np.float32)
    w = rng.standard_normal((n, m)).astype(np.float32)
    g = rng.standard_normal(lead + (m,)).astype(np.float32)
    xt = Tensor(x.swapaxes(0, 1).copy() if transposed else x, requires_grad=True)
    a = T.transpose(xt, (1, 0) + tuple(range(2, len(lead) + 1))) if transposed else xt
    wt = Tensor(w, requires_grad=True)
    out = T.matmul(a, wt)
    out.backward(g)

    x64, w64, g64 = x.astype(np.float64), w.astype(np.float64), g.astype(np.float64)
    want_out = np.einsum("...n,nm->...m", x64, w64)
    want_gx = np.einsum("...m,nm->...n", g64, w64)
    want_gw = np.einsum("rn,rm->nm", x64.reshape(-1, n), g64.reshape(-1, m))
    assert out.shape == lead + (m,) and out.data.flags.c_contiguous
    assert out.dtype == np.float32 and wt.grad.dtype == np.float32
    gx = xt.grad.swapaxes(0, 1) if transposed else xt.grad
    np.testing.assert_allclose(out.data, want_out, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(wt.grad, want_gw, rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("a_shape, b_shape", [((5, 4), (4, 6)), ((3, 5, 4), (3, 4, 6)), ((1, 5, 4), (4, 6))],
                         ids=["2d", "batched", "flat"])
def test_matmul_multiplies_no_two_column_major_operands(a_shape, b_shape, monkeypatch):
    # numpy 2.4.6 on its OpenBLAS 0.3.31 returned wrong values for products
    # whose operands are both column-major (transposed views) while a
    # product of another shape ran on a second thread. The gradient of
    # transpose(matmul(a, b)) reaches matmul as a transposed view, so the
    # textbook g @ b^T and a^T @ g, with a C-contiguous a and b, would
    # multiply two such operands.
    def column_major(x):
        return x.ndim >= 2 and x.strides[-1] != x.itemsize and x.strides[-2] == x.itemsize

    both = []
    real = np.matmul

    def checked(x, y, *args, **kwargs):
        if column_major(np.asarray(x)) and column_major(np.asarray(y)):
            both.append((np.shape(x), np.shape(y)))
        return real(x, y, *args, **kwargs)

    rng = np.random.default_rng(21)
    a, b = rand64(rng, *a_shape), rand64(rng, *b_shape)
    assert a.data.flags.c_contiguous and b.data.flags.c_contiguous
    out_shape = np.broadcast_shapes(a_shape[:-2], b_shape[:-2]) + (b_shape[-1], a_shape[-2])
    g = rng.standard_normal(out_shape)
    axes = (*range(len(out_shape) - 2), len(out_shape) - 1, len(out_shape) - 2)
    monkeypatch.setattr(np, "matmul", checked)
    out = T.transpose(T.matmul(a, b), axes)
    out.backward(g)
    monkeypatch.undo()
    assert not both

    g_out = np.swapaxes(g, -1, -2)  # the gradient of matmul's output
    want_a = g_out @ np.swapaxes(b.data, -1, -2)
    want_b = np.swapaxes(a.data, -1, -2) @ g_out
    if want_b.shape != b_shape:  # the flat x @ W kernel: summed over the batch
        want_b = want_b.sum(axis=0)
    np.testing.assert_allclose(out.data, np.swapaxes(a.data @ b.data, -1, -2), rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.grad, want_a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, want_b, rtol=0, atol=1e-12)


def test_broadcast_add_reduces_gradient():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = T.tsum(T.add(a, b))
    out.backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_dag_shared_subexpression_accumulates():
    # y = z*z with z = 2x must give the same gradient as the expanded tree
    # y = (2x)*(2x); both equal 8x.
    x = Tensor([3.0], requires_grad=True)
    z = T.scale(x, 2.0)
    y = T.tsum(T.mul(z, z))
    y.backward()
    shared = x.grad.copy()

    x2 = Tensor([3.0], requires_grad=True)
    y2 = T.tsum(T.mul(T.scale(x2, 2.0), T.scale(x2, 2.0)))
    y2.backward()
    np.testing.assert_array_equal(shared, x2.grad)
    np.testing.assert_array_equal(shared, [8.0 * 3.0])


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    T.tsum(x).backward()
    T.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


# ---------------------------------------------------------------------------
# Graph release and gradient ownership
# ---------------------------------------------------------------------------

def test_backward_releases_graph_keeps_leaf_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    z = T.square(x)
    y = T.tsum(z)
    y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    for node in (z, y):
        assert node.grad is None and node._parents == ()
    np.testing.assert_array_equal(z.data, [1.0, 4.0])  # values stay readable


def test_second_backward_on_released_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.tsum(T.square(x))
    y.backward()
    with pytest.raises(ValueError, match="released by an earlier backward"):
        y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_from_second_root_through_released_node_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, 5.0], requires_grad=True)
    z = T.square(x)
    T.tsum(z).backward()
    # The new root reaches w directly and x only through the released z.
    second = T.tsum(T.add(T.mul(z, w), w))
    with pytest.raises(ValueError, match="released by an earlier backward"):
        second.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert w.grad is None  # raised before any gradient moved


def test_add_operands_get_separate_gradient_buffers():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    T.tsum(T.mul(T.add(a, b), Tensor(np.full((2, 3), 3.0)))).backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 3.0))


def test_backward_seed_is_copied_not_aliased():
    x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    y = T.add(x, x)
    seed = np.arange(6, dtype=np.float32).reshape(2, 3)
    y.backward(seed)
    np.testing.assert_array_equal(seed, np.arange(6, dtype=np.float32).reshape(2, 3))
    np.testing.assert_array_equal(x.grad, 2.0 * seed)


def test_zero_dim_gradient_is_an_array_updated_in_place():
    a = Tensor(np.float32(3), requires_grad=True)
    T.scale(a, 2.0).backward()
    assert type(a.grad) is np.ndarray and a.grad.shape == () and a.grad == 2.0
    owned = a.grad
    T.scale(a, 2.0).backward()
    assert a.grad is owned and owned == 4.0  # accumulated in place, not rebound
    # A gradient reduced by broadcasting down to 0-d is an array too.
    b = Tensor(np.float32(1), requires_grad=True)
    T.tsum(T.add(b, Tensor(np.ones(3, dtype=np.float32)))).backward()
    assert type(b.grad) is np.ndarray and b.grad.shape == () and b.grad == 3.0


# ---------------------------------------------------------------------------
# span_attention
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype, shape", [(np.float32, (64, 4, 85, 85)), (np.float64, (2, 3, 17, 17))])
def test_masked_scaled_softmax_backward_matches_textbook_bitwise(dtype, shape):
    # span_attention's softmax backward, on key-major weights as it keeps
    # them: keys on axis -2, with exact zeros where a key comes after its
    # query.
    rng = np.random.default_rng(8)
    t, s = shape[-1], 1.0 / math.sqrt(24)
    p = (4 * rng.standard_normal(shape)).astype(dtype)
    seed = rng.standard_normal(shape).astype(dtype)
    p[..., np.tril(np.ones((t, t), dtype=bool), -1)] = dense.MASK_VALUE
    T._normalize(p)
    kept = p.copy()
    g = seed.copy()
    T._normalize_backward(g, p, s)
    want = s * (p * (seed - (seed * p).sum(axis=-2, keepdims=True)))
    assert g.dtype == dtype
    np.testing.assert_array_equal(g.view(f"u{g.itemsize}"), want.view(f"u{want.itemsize}"))
    # The backward builds the logits' gradient in the buffer it is handed
    # and only reads the weights.
    np.testing.assert_array_equal(p, kept)


# Spans over a 1, 2, 4 schedule (T = 21): one for the whole sequence, then
# scale-causal and scale-independent ones.
SPANS = {
    "full": ((0, 21, 0, 21),),
    "scalecausal": ((0, 1, 0, 1), (1, 5, 0, 5), (5, 21, 0, 21)),
    "scaleindependent": ((0, 1, 0, 1), (1, 5, 1, 5), (5, 21, 5, 21)),
}


def span_inputs(rng, dtype, b=3, heads=2, hd=8, t=21):
    # q^T, k and v^T as masked_mha makes them: head views of token-major
    # (b, t, heads, hd) projections.
    def heads_of(axes):
        return np.transpose(rng.standard_normal((b, t, heads, hd)).astype(dtype), axes)

    return heads_of((0, 2, 3, 1)), heads_of((0, 2, 1, 3)), heads_of((0, 2, 3, 1))


def span_allow(spans, t):
    # The query-major set of pairs the spans let attend.
    allow = np.zeros((t, t), dtype=bool)
    for q_lo, q_hi, k_lo, k_hi in spans:
        allow[q_lo:q_hi, k_lo:k_hi] = True
    return allow


@pytest.mark.parametrize("regime", list(SPANS))
def test_span_attention_forward_is_the_dense_composition_bitwise(regime):
    q_t, k, v_t = span_inputs(np.random.default_rng(30), np.float32)
    s = 1.0 / math.sqrt(8)
    out = T.span_attention(q_t, k, v_t, SPANS[regime], s).data
    want, _ = dense.attention(q_t, k, v_t, span_allow(SPANS[regime], 21), s)
    assert out.dtype == np.float32 and out.shape == v_t.shape
    np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("regime", list(SPANS))
def test_span_attention_gradients_match_the_dense_composition(regime):
    rng = np.random.default_rng(31)
    arrays = span_inputs(rng, np.float64)
    seed = rng.standard_normal(arrays[2].shape)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    T.span_attention(*inputs, SPANS[regime], 0.4).backward(seed)
    _, backward = dense.attention(*arrays, span_allow(SPANS[regime], 21), 0.4)
    for got, want in zip((t.grad for t in inputs), backward(seed)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_span_attention_grad_check():
    rng = np.random.default_rng(32)
    q_t, k, v_t = span_inputs(rng, np.float64, b=1, hd=3)
    coeffs = rng.standard_normal(v_t.shape)
    for i in range(3):
        def f(t):
            inputs = [Tensor(a) for a in (q_t, k, v_t)]
            inputs[i] = t
            out = T.span_attention(*inputs, SPANS["scalecausal"], 0.7)
            return T.tsum(T.square(T.mul(out, Tensor(coeffs))))

        assert T.grad_check(f, Tensor((q_t, k, v_t)[i])) < 1e-5


def test_span_attention_keeps_only_the_span_probabilities():
    import tracemalloc

    q_t, k, v_t = span_inputs(np.random.default_rng(33), np.float32, b=4, heads=4, hd=16)
    inputs = [Tensor(a, requires_grad=True) for a in (q_t, k, v_t)]
    spans = SPANS["scalecausal"]
    allowed = sum((q_hi - q_lo) * (k_hi - k_lo) for q_lo, q_hi, k_lo, k_hi in spans)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = T.span_attention(*inputs, spans, 0.25)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    probs = 4 * 4 * allowed * 4  # batch x heads x allowed pairs x float32
    assert out.data.nbytes + probs <= kept < out.data.nbytes + probs + 8192, kept
    out.backward(np.ones(out.shape, dtype=np.float32))
    assert all(t.grad.shape == t.shape for t in inputs)


@pytest.mark.parametrize("spans", [
    ((0, 1, 0, 1), (2, 21, 0, 21)),                 # query 1 in no span
    ((0, 5, 0, 5), (1, 21, 0, 21)),                 # queries 1-4 in two spans
    ((0, 21, 0, 22),),                              # keys past the sequence
    ((0, 21, 3, 3),),                               # no keys
    (),
])
def test_span_attention_rejects_bad_spans(spans):
    q_t, k, v_t = span_inputs(np.random.default_rng(34), np.float32)
    with pytest.raises(T.ShapeError):
        T.span_attention(q_t, k, v_t, spans, 1.0)


def test_span_attention_rejects_nonconforming_operands():
    q_t, k, v_t = span_inputs(np.random.default_rng(35), np.float32)
    with pytest.raises(T.ShapeError):
        T.span_attention(q_t[..., :20], k, v_t, SPANS["full"], 1.0)
    with pytest.raises(T.ShapeError):
        T.span_attention(q_t, k, v_t[:1], SPANS["full"], 1.0)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_zero_variance_row():
    out = T.layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor([1.0] * 3), Tensor([0.0] * 3))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0])


def test_layer_norm_matches_direct_formula():
    x = np.array([-1.0, 1.0])
    eps = 1e-6
    expected = (x - x.mean()) / np.sqrt(x.var() + eps)  # direct formula
    out = T.layer_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(2), dtype=np.float64),
                       Tensor(np.zeros(2), dtype=np.float64), eps=eps)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_bias_passthrough():
    out = T.layer_norm(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]), Tensor([5.0, 5.0]))
    np.testing.assert_allclose(out.data, [5.0, 5.0])


def test_layer_norm_per_row_moments():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 16)), dtype=np.float64)
    out = T.layer_norm(x, Tensor(np.ones(16), dtype=np.float64), Tensor(np.zeros(16), dtype=np.float64))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_matches_textbook_expressions_bitwise(dtype):
    rng = np.random.default_rng(4)
    shape, eps = (64, 85, 64), 1e-6
    n = shape[-1]
    x = (2 * rng.standard_normal(shape) + 0.5).astype(dtype)
    x[0, 0] = 1.5  # a zero-variance row
    gain = rng.standard_normal(n).astype(dtype)
    bias = rng.standard_normal(n).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    want_out = xhat * gain + bias
    want_gain = (g * xhat).reshape(-1, n).sum(axis=0)
    want_bias = g.reshape(-1, n).sum(axis=0)
    gx = g * gain
    want_x = (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv

    xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, gain, bias))
    out = T.layer_norm(xt, gt, bt, eps=eps)
    out.backward(g)
    bits = f"u{np.dtype(dtype).itemsize}"
    for got, want in ((out.data, want_out), (xt.grad, want_x), (gt.grad, want_gain), (bt.grad, want_bias)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(bits), want.view(bits))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def conv2d_oracle(x, kernel, stride):
    # Brute-force nested-loop cross-correlation.
    b, c, h, w = x.shape
    o, _, k, _ = kernel.shape
    hp = (h - k) // stride + 1
    wp = (w - k) // stride + 1
    out = np.zeros((b, o, hp, wp))
    for bi in range(b):
        for oi in range(o):
            for p in range(hp):
                for q in range(wp):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(k):
                            for j in range(k):
                                acc += x[bi, ci, p * stride + i, q * stride + j] * kernel[oi, ci, i, j]
                    out[bi, oi, p, q] = acc
    return out


def conv2d_channel_last(x, kernel):
    # The NCHW oracle on a channel-last map: transpose in, transpose back out.
    return conv2d_oracle(x.transpose(0, 3, 1, 2), kernel, kernel.shape[-1]).transpose(0, 2, 3, 1)


# (batch, side, C, k, O): k=2 with C != O, and the k=4, C=3 patch embedding.
CONV_CASES = [(2, 6, 2, 2, 3), (2, 8, 3, 4, 5)]


def test_conv2d_all_ones_block():
    x = Tensor(np.ones((1, 2, 2, 1)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 4.0


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 5, 5, 3)))
    k = np.zeros((3, 3, 1, 1))
    for i in range(3):
        k[i, i, 0, 0] = 1.0
    out = T.conv2d(x, Tensor(k))
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_conv2d_patchify_shape():
    out = T.conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((8, 3, 4, 4))))
    assert out.shape == (1, 1, 1, 8)


def test_conv2d_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for b, side, c, k, o in CONV_CASES:
        x = rng.standard_normal((b, side, side, c))
        kernel = rng.standard_normal((o, c, k, k))
        out = T.conv2d(Tensor(x, dtype=np.float64), Tensor(kernel, dtype=np.float64))
        assert out.shape == (b, side // k, side // k, o)
        np.testing.assert_allclose(out.data, conv2d_channel_last(x, kernel), rtol=1e-12)


def test_conv2d_divisibility_error():
    with pytest.raises(T.ShapeError):
        T.conv2d(Tensor(np.zeros((1, 5, 5, 1))), Tensor(np.zeros((1, 1, 2, 2))))


# ---------------------------------------------------------------------------
# area_pool
# ---------------------------------------------------------------------------

def test_area_pool_constant_map():
    x = Tensor(np.full((1, 2, 8, 8), 3.25))
    for oh, ow in [(1, 1), (2, 2), (3, 3), (8, 8)]:
        out = T.area_pool(x, oh, ow)
        np.testing.assert_allclose(out.data, 3.25, rtol=1e-6)


def test_area_pool_block_mean():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    out = T.area_pool(x, 1, 1)
    assert out.data[0, 0, 0, 0] == 2.5


def test_area_pool_quadrants():
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, :2, :2] = 1.0
    x[0, 0, :2, 2:] = 2.0
    x[0, 0, 2:, :2] = 3.0
    x[0, 0, 2:, 2:] = 4.0
    out = T.area_pool(Tensor(x), 2, 2)
    np.testing.assert_array_equal(out.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def area_pool_oracle(x, oh, ow):
    # Direct fractional-overlap quadrature per output cell.
    b, c, h, w = x.shape
    out = np.zeros((b, c, oh, ow))
    for p in range(oh):
        for q in range(ow):
            r0, r1 = p * h / oh, (p + 1) * h / oh
            c0, c1 = q * w / ow, (q + 1) * w / ow
            total = 0.0
            for r in range(h):
                for cc in range(w):
                    wr = max(0.0, min(r1, r + 1) - max(r0, r))
                    wc = max(0.0, min(c1, cc + 1) - max(c0, cc))
                    total += wr * wc * x[:, :, r, cc]
            out[:, :, p, q] = total / ((h / oh) * (w / ow))
    return out


@pytest.mark.parametrize("size,out", [
    ((4, 4), (2, 2)),
    ((8, 8), (1, 1)),
    ((6, 6), (3, 3)),      # ratio 3
    ((8, 8), (4, 2)),      # integral, non-square output
    ((4, 4), (3, 3)),      # fractional
    ((16, 16), (12, 12)),  # non-dyadic
], ids=lambda v: "x".join(map(str, v)))
def test_area_pool_matches_oracle(size, out):
    x = np.random.default_rng(sum(size + out)).standard_normal((2, 3) + size)
    got = T.area_pool(Tensor(x, dtype=np.float64), *out)
    np.testing.assert_allclose(got.data, area_pool_oracle(x, *out), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(-8, 8), min_size=16, max_size=16),
)
def test_area_pool_preserves_global_mean_on_integral_blocks(oh_pow, ow_pow, values):
    # Integer-valued input and dyadic blocks keep every partial sum exact.
    x = np.array(values, dtype=np.float64).reshape(1, 1, 4, 4)
    out = T.area_pool(Tensor(x), 4 // 2 ** (oh_pow - 1) if oh_pow < 3 else 1,
                      4 // 2 ** (ow_pow - 1) if ow_pow < 3 else 1)
    assert out.data.mean() == x.mean()


def test_area_pool_zero_output_dims_rejected():
    with pytest.raises(T.ShapeError):
        T.area_pool(Tensor(np.zeros((1, 1, 4, 4))), 0, 2)


# ---------------------------------------------------------------------------
# grad_check over the op library
# ---------------------------------------------------------------------------

def test_grad_check_quadratic():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    err = T.grad_check(lambda t: T.tsum(T.square(t)), x)
    assert err < 1e-6


def test_grad_check_conv_layernorm_mean():
    # Random affine keeps the composition non-degenerate: with unit gain the
    # normalized rows have fixed sum/sum-of-squares and the gradient vanishes.
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((1, 4, 4, 2)))
    kernel = Tensor(rng.standard_normal((3, 2, 2, 2)), dtype=np.float64)
    gain = Tensor(rng.standard_normal(3), dtype=np.float64)
    bias = Tensor(rng.standard_normal(3), dtype=np.float64)

    def f(t):
        y = T.conv2d(t, kernel)                     # 1x2x2x3, channels last
        y = T.layer_norm(y, gain, bias)
        return T.tmean(y)

    assert T.grad_check(f, x, eps=1e-5) < 1e-4


@pytest.mark.parametrize("b,side,c,k,o", CONV_CASES)
@pytest.mark.parametrize("wrt", ["kernel", "input"])
def test_grad_check_conv2d(b, side, c, k, o, wrt):
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((b, side, side, c)), dtype=np.float64)
    kernel = Tensor(rng.standard_normal((o, c, k, k)), dtype=np.float64)
    if wrt == "kernel":
        f, t = lambda kt: T.tsum(T.square(T.conv2d(x, kt))), kernel
    else:
        f, t = lambda xt: T.tsum(T.square(T.conv2d(xt, kernel))), x
    assert T.grad_check(f, t, eps=1e-5) < 1e-6


@pytest.mark.parametrize(
    "name,f,shape",
    [
        ("add", lambda t: T.tsum(T.square(T.add(t, t))), (3, 3)),
        ("mul", lambda t: T.tsum(T.mul(t, T.scale(t, 0.5))), (3, 3)),
        ("matmul", lambda t: T.tsum(T.square(T.matmul(t, t))), (3, 3)),
        ("mean", lambda t: T.square(T.tmean(t)), (4, 2)),
        ("exp", lambda t: T.tsum(T.texp(T.scale(t, 0.3))), (5,)),
        ("gelu", lambda t: T.tsum(T.gelu(t)), (6,)),
        # One input as q^T, k and v^T, under scale-causal spans.
        ("span_attention", lambda t: T.tsum(T.square(T.span_attention(
            t, T.transpose(t, (1, 0)), t, ((0, 1, 0, 1), (1, 3, 0, 3)), 0.7))), (2, 3)),
        ("layer_norm", lambda t: T.tsum(T.square(T.layer_norm(
            t, Tensor(np.arange(1.0, 5.0)), Tensor(np.zeros(4))))), (3, 4)),
        ("area_pool", lambda t: T.tsum(T.square(T.area_pool(t, 3, 3))), (1, 1, 4, 4)),
        ("concat_slice", lambda t: T.tsum(T.square(T.slice_axis(
            T.concat([t, T.scale(t, 2.0)], axis=0), 0, 1, 4))), (2, 3)),
        ("transpose", lambda t: T.tsum(T.square(T.transpose(t, (1, 0)))), (2, 4)),
        ("area_pool_integral", lambda t: T.tsum(T.square(T.area_pool(t, 2, 1))), (1, 2, 4, 4)),
    ],
)
def test_grad_check_each_op(name, f, shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.standard_normal(shape))
    assert T.grad_check(f, x, eps=1e-5) < 1e-4, name


def test_grad_check_abs_away_from_zero():
    x = Tensor(np.array([1.5, -2.0, 0.75]))
    assert T.grad_check(lambda t: T.tsum(T.tabs(t)), x) < 1e-6


def test_clip_gradient_gate():
    x = Tensor(np.array([-5.0, 0.5, 5.0]), requires_grad=True)
    T.tsum(T.clip(x, -1.0, 1.0)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_gelu_matches_textbook_expressions_bitwise():
    rng = np.random.default_rng(5)
    x = (3.0 * rng.standard_normal((64, 85, 256))).astype(np.float32)
    flat = x.reshape(-1)
    tiny = np.finfo(np.float32).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 7 * tiny, -1000 * tiny, np.finfo(np.float32).tiny, 30.0, -30.0]
    flat[: len(special)] = special
    flat[-1000:] = rng.standard_normal(1000) * np.finfo(np.float32).tiny  # subnormal range
    block = T._BLOCK_BYTES // 4
    cases = [
        x,
        # Non-contiguous (transposed) input; its gradient arrives transposed too.
        (3.0 * rng.standard_normal((300, 700))).astype(np.float32).T,
        (3.0 * rng.standard_normal((5, 7))).astype(np.float32),  # under one block
        (3.0 * rng.standard_normal(1001)).astype(np.float32),  # 1-D
        # A row count whose element count is not a multiple of the block.
        (3.0 * rng.standard_normal((3 * block // 256 + 5, 256))).astype(np.float32),
    ]
    assert x.size % block and cases[-1].size % block and cases[2].size < block
    c, k = T._GELU_C, T._GELU_K
    for x in cases:
        g = rng.standard_normal(x.shape).astype(np.float32)
        u = np.tanh(c * (x + k * x * x * x))
        want_out = 0.5 * x * (1.0 + u)
        du = c * (1.0 + 3.0 * k * x * x) * (1.0 - u * u)
        want_grad = g * (0.5 * (1.0 + u) + 0.5 * x * du)

        t = Tensor(x, requires_grad=True)
        out = T.gelu(t)
        if x.flags.c_contiguous:
            out.backward(g)
        else:
            T.transpose(out, (1, 0)).backward(g.T)
        assert out.shape == x.shape and t.grad.shape == x.shape
        assert out.dtype == np.float32 and t.grad.dtype == np.float32
        # Bit patterns, so -0.0 against 0.0 counts as a difference.
        np.testing.assert_array_equal(out.data.view(np.uint32), want_out.view(np.uint32))
        np.testing.assert_array_equal(t.grad.view(np.uint32), want_grad.view(np.uint32))


# ---------------------------------------------------------------------------
# Graph recording
# ---------------------------------------------------------------------------

def test_ops_on_inputs_without_grad_record_no_graph():
    x = Tensor(np.ones((2, 3)))
    out = T.tsum(T.layer_norm(T.mul(x, x), Tensor(np.ones(3)), Tensor(np.zeros(3))))
    assert not out.requires_grad
    assert out._parents == () and out._backward_fn is None
    with pytest.raises(ValueError):
        out.backward()
    # Ops on an input that requires grad record the graph.
    w = Tensor(x.data, requires_grad=True)
    y = T.tsum(T.mul(w, w))
    assert y.requires_grad and y._parents


# ---------------------------------------------------------------------------
# RNG and init
# ---------------------------------------------------------------------------

def test_make_rng_deterministic_and_stream_separated():
    a = T.make_rng(7, stream=0).standard_normal(4)
    b = T.make_rng(7, stream=0).standard_normal(4)
    c = T.make_rng(7, stream=1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trunc_normal_bounds_and_scale():
    rng = T.make_rng(0)
    sample = T.trunc_normal(rng, (20000,), std=0.02)
    assert np.abs(sample).max() <= 0.04 + 1e-6
    assert 0.01 < sample.std() < 0.02


def test_trunc_normal_bounds_are_the_normal_cdf_at_two():
    assert T._TRUNC_LO == special.ndtr(-2.0)
    assert T._TRUNC_HI == special.ndtr(2.0)


def scipy_trunc_normal(seed, n, std, dtype):
    """Oracle: the same uniform draws through ``scipy.special.ndtri``."""
    u = T.make_rng(seed).uniform(T._TRUNC_LO, T._TRUNC_HI, size=n)
    return (special.ndtri(u) * std).astype(dtype)


@pytest.mark.parametrize("std", [0.02, 1.0])
def test_trunc_normal_float32_equals_scipy_ndtri(std):
    n = 1 << 20
    np.testing.assert_array_equal(T.trunc_normal(T.make_rng(5), (n,), std=std),
                                  scipy_trunc_normal(5, n, std, np.float32))


def test_trunc_normal_float64_matches_scipy_ndtri_and_cpython():
    n = 1 << 20
    got = T.trunc_normal(T.make_rng(6), (n,), std=1.0, dtype=np.float64)
    np.testing.assert_allclose(got, scipy_trunc_normal(6, n, 1.0, np.float64), rtol=2e-15, atol=0)
    # Bit for bit the AS241 of statistics.NormalDist, on a sample.
    u = T.make_rng(6).uniform(T._TRUNC_LO, T._TRUNC_HI, size=2000)
    np.testing.assert_array_equal(got[:2000], [statistics.NormalDist().inv_cdf(v) for v in u])


def test_drop_path_eval_identity():
    x = Tensor(np.ones((2, 3, 4)))
    assert T.drop_path(x, 0.5, None) is x
    assert T.drop_path(x, 0.0, T.make_rng(0)) is x
