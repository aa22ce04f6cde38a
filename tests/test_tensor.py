import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import tensor as T
from mstok.tensor import Tensor


def rand64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# Elementwise / linear ops
# ---------------------------------------------------------------------------

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
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_closed_form():
    out = T.softmax(Tensor([0.0, math.log(3.0)], dtype=np.float64))
    np.testing.assert_allclose(out.data, [0.25, 0.75], rtol=1e-12)


def test_softmax_single_unmasked_entry():
    mask = np.array([0.0, T.MASK_VALUE])
    out = T.softmax(Tensor([5.0, 7.0]), additive_mask=mask)
    np.testing.assert_array_equal(out.data, [1.0, 0.0])


def test_softmax_fully_masked_row_outputs_zeros():
    mask = np.full((2, 3), T.MASK_VALUE)
    mask[0] = 0.0
    out = T.softmax(Tensor(np.ones((2, 3))), additive_mask=mask)
    np.testing.assert_allclose(out.data[0], [1 / 3] * 3, rtol=1e-6)
    np.testing.assert_array_equal(out.data[1], [0.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.data())
def test_softmax_rows_sum_to_one_over_unmasked(logits, data):
    n = len(logits)
    masked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if all(masked):
        masked[0] = False
    mask = np.where(masked, T.MASK_VALUE, 0.0)
    out = T.softmax(Tensor(logits, dtype=np.float64), additive_mask=mask)
    assert out.data.sum() == pytest.approx(1.0, abs=1e-6)
    assert (out.data[np.array(masked)] == 0.0).all()


@pytest.mark.parametrize("masked", [False, True])
def test_scaled_softmax_matches_scale_then_softmax_bitwise(masked):
    # float32, as in the model: the fused op must reproduce the separate
    # scale op followed by softmax to the last bit, forward and backward.
    rng = np.random.default_rng(21)
    shape, s = (2, 3, 17, 17), 1.0 / math.sqrt(6)
    data = rng.standard_normal(shape).astype(np.float32) * 4
    seed_grad = rng.standard_normal(shape).astype(np.float32)
    mask = None
    if masked:
        mask = np.where(np.tril(np.ones((17, 17), dtype=bool)), 0.0, T.MASK_VALUE).astype(np.float32)
    fused_in = Tensor(data.copy(), requires_grad=True)
    fused = T.softmax(fused_in, additive_mask=mask, scale=s)
    fused.backward(seed_grad)
    ref_in = Tensor(data.copy(), requires_grad=True)
    ref = T.softmax(T.scale(ref_in, s), additive_mask=mask)
    ref.backward(seed_grad)
    assert fused.dtype == np.float32 and fused_in.grad.dtype == np.float32
    np.testing.assert_array_equal(fused.data, ref.data)
    np.testing.assert_array_equal(fused_in.grad, ref_in.grad)


def test_softmax_mask_must_broadcast_to_input():
    with pytest.raises(T.ShapeError):
        T.softmax(Tensor(np.zeros(3)), additive_mask=np.zeros((2, 3)))


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


def test_conv2d_all_ones_block():
    x = Tensor(np.ones((1, 1, 2, 2)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 4.0


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3, 5, 5)))
    k = np.zeros((3, 3, 1, 1))
    for i in range(3):
        k[i, i, 0, 0] = 1.0
    out = T.conv2d(x, Tensor(k))
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_conv2d_patchify_shape():
    out = T.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((8, 3, 4, 4))))
    assert out.shape == (1, 8, 1, 1)


def test_conv2d_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2, 6, 6))
    k = rng.standard_normal((3, 2, 2, 2))
    out = T.conv2d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64))
    np.testing.assert_allclose(out.data, conv2d_oracle(x, k, 2), rtol=1e-12)


def test_conv2d_divisibility_error():
    with pytest.raises(T.ShapeError):
        T.conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 2, 2))))


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


def test_area_pool_fractional_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 1, 4, 4))
    out = T.area_pool(Tensor(x, dtype=np.float64), 3, 3)
    np.testing.assert_allclose(out.data, area_pool_oracle(x, 3, 3), rtol=1e-12)


def test_area_pool_nondyadic_16_to_12():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 1, 16, 16))
    out = T.area_pool(Tensor(x, dtype=np.float64), 12, 12)
    np.testing.assert_allclose(out.data, area_pool_oracle(x, 12, 12), rtol=1e-10)


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


def test_grad_check_masked_softmax_square_sum():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 4)))
    mask = np.where(rng.random((4, 4)) < 0.3, T.MASK_VALUE, 0.0)
    mask[:, 0] = 0.0  # keep every row alive

    def f(t):
        return T.tsum(T.square(T.softmax(t, additive_mask=mask)))

    assert T.grad_check(f, x, eps=1e-4) < 1e-4


def test_grad_check_conv_layernorm_mean():
    # Random affine keeps the composition non-degenerate: with unit gain the
    # normalized rows have fixed sum/sum-of-squares and the gradient vanishes.
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((1, 2, 4, 4)))
    kernel = Tensor(rng.standard_normal((3, 2, 2, 2)), dtype=np.float64)
    gain = Tensor(rng.standard_normal(3), dtype=np.float64)
    bias = Tensor(rng.standard_normal(3), dtype=np.float64)

    def f(t):
        y = T.conv2d(t, kernel)                     # 1x3x2x2
        y = T.reshape(y, (3, 2, 2))
        y = T.transpose(y, (1, 2, 0))               # channels last
        y = T.layer_norm(y, gain, bias)
        return T.tmean(y)

    assert T.grad_check(f, x, eps=1e-5) < 1e-4


@pytest.mark.parametrize(
    "name,f,shape",
    [
        ("add", lambda t: T.tsum(T.square(T.add(t, t))), (3, 3)),
        ("mul", lambda t: T.tsum(T.mul(t, T.scale(t, 0.5))), (3, 3)),
        ("matmul", lambda t: T.tsum(T.square(T.matmul(t, t))), (3, 3)),
        ("mean", lambda t: T.square(T.tmean(t)), (4, 2)),
        ("exp", lambda t: T.tsum(T.texp(T.scale(t, 0.3))), (5,)),
        ("gelu", lambda t: T.tsum(T.gelu(t)), (6,)),
        ("softmax", lambda t: T.tsum(T.square(T.softmax(t))), (3, 4)),
        ("layer_norm", lambda t: T.tsum(T.square(T.layer_norm(
            t, Tensor(np.arange(1.0, 5.0)), Tensor(np.zeros(4))))), (3, 4)),
        ("area_pool", lambda t: T.tsum(T.square(T.area_pool(t, 3, 3))), (1, 1, 4, 4)),
        ("concat_slice", lambda t: T.tsum(T.square(T.slice_axis(
            T.concat([t, T.scale(t, 2.0)], axis=0), 0, 1, 4))), (2, 3)),
        ("transpose", lambda t: T.tsum(T.square(T.transpose(t, (1, 0)))), (2, 4)),
    ],
)
def test_grad_check_each_op(name, f, shape):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    x = Tensor(rng.standard_normal(shape))
    assert T.grad_check(f, x, eps=1e-5) < 1e-4, name


def test_grad_check_abs_away_from_zero():
    x = Tensor(np.array([1.5, -2.0, 0.75]))
    assert T.grad_check(lambda t: T.tsum(T.tabs(t)), x) < 1e-6


def test_clip_gradient_gate():
    x = Tensor(np.array([-5.0, 0.5, 5.0]), requires_grad=True)
    T.tsum(T.clip(x, -1.0, 1.0)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_records_no_graph():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with T.no_grad():
        out = T.tsum(T.softmax(T.mul(x, x), additive_mask=np.zeros(3), scale=0.5))
    assert not out.requires_grad
    assert out._parents == () and out._backward_fn is None
    with pytest.raises(ValueError):
        out.backward()
    # Graph mode is back once the block ends.
    y = T.tsum(T.mul(x, x))
    assert y.requires_grad and y._parents


def test_no_grad_nests_and_restores_on_error():
    x = Tensor(np.ones(2), requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert not T.add(x, x).requires_grad
        assert not T.add(x, x).requires_grad
    assert T.add(x, x).requires_grad
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("boom")
    assert T.add(x, x).requires_grad


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


def test_drop_path_eval_identity():
    x = Tensor(np.ones((2, 3, 4)))
    out = T.drop_path(x, 0.5, None, training=False)
    assert out is x
