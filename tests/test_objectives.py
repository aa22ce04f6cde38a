import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok.config import RunConfig
from mstok.losses import kl_loss, multiscale_loss
from mstok.model import LatentCode
from mstok.optim import AdamW, clip_grad_norm, cosine_lr
from mstok.pyramid import build_schedule, tokens_to_images
from mstok.tensor import NumericError, ShapeError, Tensor, add, make_rng, mul, square, sub, tabs, texp, tmean

W = RunConfig()


# ---------------------------------------------------------------------------
# The reconstruction term: single-scale cases of multiscale_loss
# ---------------------------------------------------------------------------

ONE_SCALE = build_schedule(4, [4])


def rec_loss(pred, target, config):
    """The reconstruction term of a one-scale pixel-token batch."""
    return multiscale_loss(pred, target, ONE_SCALE, config)[0]


def test_rec_loss_zero_for_identical():
    x = Tensor(make_rng(0).uniform(-1, 1, (3, 16, 4)).astype(np.float32))
    assert rec_loss(x, x.data, W).item() == 0.0


def test_rec_loss_constant_offset_closed_form():
    target = np.zeros((3, 16, 4))
    pred = Tensor(np.full((3, 16, 4), 0.1))
    # l1 term 0.1, mse term 0.4 * 0.01
    assert rec_loss(pred, target, W).item() == pytest.approx(0.104, abs=1e-6)


def test_rec_loss_zero_weights():
    w = RunConfig(l1_weight=0.0, mse_weight=0.0)
    pred = Tensor(make_rng(1).uniform(-1, 1, (3, 16, 4)).astype(np.float32))
    assert rec_loss(pred, np.zeros((3, 16, 4)), w).item() == 0.0


def test_rec_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        rec_loss(Tensor(np.zeros((3, 16, 4))), np.zeros((3, 16, 8)), W)


# ---------------------------------------------------------------------------
# kl_loss
# ---------------------------------------------------------------------------

def code_of(mu, logvar, dtype=np.float64):
    return LatentCode(mu=Tensor(mu, dtype=dtype), logvar=Tensor(logvar, dtype=dtype))


def test_kl_standard_normal_is_zero():
    shape = (2, 2, 2, 2)
    for dtype in (np.float32, np.float64):
        kl = kl_loss(code_of(np.zeros(shape), np.zeros(shape), dtype))
        assert kl.dtype == dtype
        assert kl.item() == 0.0


def test_kl_clamps_float32_rounding_below_zero():
    # The docstring's case: unclamped, the float32 KL of this code is -2**-25.
    code = code_of(np.zeros(1), np.full(1, -3e-7), np.float32)
    inner = sub(add(square(code.mu), texp(code.logvar)), add(code.logvar, 1.0))
    assert mul(tmean(inner), 0.5).item() == -2.0 ** -25
    kl = kl_loss(code)
    assert kl.dtype == np.float32
    assert kl.item() == 0.0


def test_kl_unit_mean_closed_form():
    shape = (4, 4)
    assert kl_loss(code_of(np.ones(shape), np.zeros(shape))).item() == pytest.approx(0.5, abs=1e-9)


def test_kl_log2_variance_closed_form():
    shape = (4, 4)
    expected = 0.5 * (2.0 - 1.0 - math.log(2.0))
    got = kl_loss(code_of(np.zeros(shape), np.full(shape, math.log(2.0)))).item()
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(0.1534, abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=8),
    st.lists(st.floats(-5, 3), min_size=1, max_size=8),
)
def test_kl_nonnegative(mus, logvars):
    n = min(len(mus), len(logvars))
    for dtype in (np.float32, np.float64):
        code = code_of(np.array(mus[:n]), np.array(logvars[:n]), dtype)
        assert kl_loss(code).item() >= 0.0


def test_kl_zero_only_at_standard_normal():
    assert kl_loss(code_of(np.array([0.1]), np.array([0.0]))).item() > 0.0
    assert kl_loss(code_of(np.array([0.0]), np.array([0.1]))).item() > 0.0


def test_kl_rejects_non_finite():
    with pytest.raises(NumericError):
        kl_loss(code_of(np.array([0.0]), np.array([np.nan])))


# ---------------------------------------------------------------------------
# multiscale_loss
# ---------------------------------------------------------------------------

def image_rec_loss(pred, target, config):
    """Reference: one scale's loss on images, l1_weight * mean|err| + mse_weight * mean(err^2)."""
    diff = sub(pred, target)
    return add(mul(tmean(tabs(diff)), config.l1_weight), mul(tmean(square(diff)), config.mse_weight))


def image_multiscale_loss(preds, targets, config):
    """Reference: the per-scale image losses, weighted by scale_weights over their sum."""
    weights = config.scale_weights or (1.0,) * len(preds)
    per_scale = [image_rec_loss(p, t, config) for p, t in zip(preds, targets)]
    total = functools.reduce(add, [mul(term, wt / sum(weights)) for term, wt in zip(per_scale, weights)])
    return total, [t.item() for t in per_scale]


def pixel_tokens(images, patch):
    """Per-scale images, low to high, as one batch x T x C·patch² array."""
    return np.concatenate([
        im.reshape(im.shape[0], im.shape[1], im.shape[2] // patch, patch, -1, patch)
        .transpose(0, 2, 4, 1, 3, 5).reshape(im.shape[0], -1, im.shape[1] * patch * patch)
        for im in images], axis=1)


@pytest.mark.parametrize("grids,weights", [((2, 3, 4, 6), (0.5, 1.0, 2.0, 4.0)), ((1, 2, 4), ())])
def test_multiscale_matches_per_scale_image_expression(grids, weights):
    # Total, per-scale breakdown and the prediction's gradient equal the
    # per-scale image-space expression to float32 tolerance; the first
    # schedule is non-dyadic with non-uniform scale weights.
    config = RunConfig(scale_weights=weights)
    sched, patch = build_schedule(grids[-1], grids), 2
    rng = make_rng(8)
    px = rng.uniform(-1, 1, (3, sched.total, 12)).astype(np.float32)
    targets = rng.uniform(-1, 1, px.shape).astype(np.float32)
    pred = Tensor(px, requires_grad=True)
    total, breakdown = multiscale_loss(pred, targets, sched, config)
    total.backward()

    images = [Tensor(im.copy(), requires_grad=True) for im in tokens_to_images(px, sched, patch)]
    ref_total, ref_per_scale = image_multiscale_loss(images, tokens_to_images(targets, sched, patch), config)
    ref_total.backward()
    assert total.item() == pytest.approx(ref_total.item(), rel=1e-6)
    np.testing.assert_allclose(breakdown["per_scale"], ref_per_scale, rtol=1e-6)
    np.testing.assert_allclose(pred.grad, pixel_tokens([im.grad for im in images], patch), rtol=1e-6)


def test_multiscale_single_level_reduces_to_composite():
    rng = make_rng(2)
    sched = build_schedule(2, [2])
    pred = rng.uniform(-1, 1, (1, 3, 8, 8))
    target = rng.uniform(-1, 1, (1, 3, 8, 8))
    code = code_of(rng.standard_normal((1, 2, 2, 4)), rng.standard_normal((1, 2, 2, 4)) * 0.1)
    total, breakdown = multiscale_loss(pixel_tokens([pred], 4), pixel_tokens([target], 4), sched, W, code)
    direct = image_rec_loss(Tensor(pred), Tensor(target), W).item() + W.tokenizer.kl_weight * kl_loss(code).item()
    # The sums run in another order than the image expression's means.
    assert total.item() == pytest.approx(direct, rel=1e-12)
    assert len(breakdown["per_scale"]) == 1


def test_multiscale_perfect_reconstruction_leaves_kl():
    rng = make_rng(3)
    px = pixel_tokens([rng.uniform(-1, 1, (1, 3, s, s)).astype(np.float32) for s in (4, 8)], 4)
    code = code_of(np.ones((1, 1, 1, 2)), np.zeros((1, 1, 1, 2)))
    total, breakdown = multiscale_loss(px, px, build_schedule(2, [1, 2]), W, code)
    assert breakdown["per_scale"] == [0.0, 0.0]
    assert total.item() == pytest.approx(W.tokenizer.kl_weight * 0.5, rel=1e-6)


def test_multiscale_two_levels_equal_weight_mean():
    rng = make_rng(4)
    preds = [rng.uniform(-1, 1, (1, 3, s, s)) for s in (4, 8)]
    targets = [rng.uniform(-1, 1, (1, 3, s, s)) for s in (4, 8)]
    a = image_rec_loss(Tensor(preds[0]), Tensor(targets[0]), W).item()
    b = image_rec_loss(Tensor(preds[1]), Tensor(targets[1]), W).item()
    total, _ = multiscale_loss(pixel_tokens(preds, 4), pixel_tokens(targets, 4), build_schedule(2, [1, 2]), W)
    assert total.item() == pytest.approx((a + b) / 2, rel=1e-12)


def test_multiscale_respects_scale_weight_vector():
    w = RunConfig(scale_weights=(1.0, 3.0))
    rng = make_rng(5)
    preds = [rng.uniform(-1, 1, (1, 3, s, s)) for s in (4, 8)]
    targets = [np.zeros((1, 3, s, s)) for s in (4, 8)]
    a = image_rec_loss(Tensor(preds[0]), Tensor(targets[0]), w).item()
    b = image_rec_loss(Tensor(preds[1]), Tensor(targets[1]), w).item()
    total, _ = multiscale_loss(pixel_tokens(preds, 4), pixel_tokens(targets, 4), build_schedule(2, [1, 2]), w)
    assert total.item() == pytest.approx((a + 3 * b) / 4, rel=1e-12)


def test_multiscale_level_count_mismatch():
    # A sequence with one scale's tokens, scored against a two-scale schedule.
    with pytest.raises(ShapeError):
        multiscale_loss(np.zeros((1, 4, 48)), np.zeros((1, 4, 48)), build_schedule(2, [1, 2]), W)


def test_loss_batch_permutation_invariant():
    rng = make_rng(6)
    pred = rng.uniform(-1, 1, (4, 16, 12))
    target = rng.uniform(-1, 1, (4, 16, 12))
    perm = [2, 0, 3, 1]
    a = rec_loss(Tensor(pred), target, W).item()
    b = rec_loss(Tensor(pred[perm]), target[perm], W).item()
    assert a == pytest.approx(b, rel=1e-6)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_adamw_zero_grad_zero_decay_no_change():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.0)
    p.grad = np.zeros(2)
    opt.step(lr=0.1, t=1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_first_step_bias_corrected():
    # Hand evaluation: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps).
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step(lr=0.1, t=1)
    assert p.data[0] == pytest.approx(-0.1, rel=1e-6)


def test_adamw_decoupled_decay_is_multiplicative_shrink():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.05)
    p.grad = np.array([0.0])
    opt.step(lr=0.1, t=1)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.05), rel=1e-7)


def test_adamw_nan_grad_reports_name():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"enc.0.attn.wq": p})
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError) as err:
        opt.step(lr=0.1, t=1)
    assert "enc.0.attn.wq" in str(err.value)


def test_adamw_descends_convex_quadratic():
    rng = make_rng(7)
    x = Tensor(rng.standard_normal(8), requires_grad=True)
    opt = AdamW({"x": x}, weight_decay=0.0)
    for t in range(1, 6):
        before = float((x.data ** 2).sum())
        x.grad = 2.0 * x.data
        opt.step(lr=1e-3, t=t)
        after = float((x.data ** 2).sum())
        assert after < before


def test_clip_grad_norm():
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    p.grad = np.array([3.0, 4.0], dtype=np.float32)
    norm = clip_grad_norm({"p": p}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("max_norm", [1e6, 0.5])
def test_clip_grad_norm_equals_float64_copy_expression(max_norm):
    rng = np.random.default_rng(2)
    grads = {f"p{i}": (10 * rng.standard_normal(shape)).astype(np.float32)
             for i, shape in enumerate([(64, 256), (256,), (3, 8, 8, 16)])}
    params = {k: Tensor(g, requires_grad=True) for k, g in grads.items()}
    for k, p in params.items():
        p.grad = grads[k].copy()
    want = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    norm = clip_grad_norm(params, max_norm)
    assert norm == want
    factor = max_norm / want if want > max_norm else 1.0
    for k, p in params.items():
        np.testing.assert_array_equal(p.grad, grads[k] * factor)


# ---------------------------------------------------------------------------
# cosine_lr
# ---------------------------------------------------------------------------

def test_cosine_lr_end_of_warmup():
    assert cosine_lr(30, 1000, 0.03, 1e-4, 1e-6) == pytest.approx(1e-4, abs=1e-12)


def test_cosine_lr_final_step():
    assert cosine_lr(1000, 1000, 0.03, 1e-4, 1e-6) == pytest.approx(1e-6, abs=1e-12)


def test_cosine_lr_midpoint():
    lr = cosine_lr(30 + 485, 1000, 0.03, 1e-4, 1e-6)
    assert lr == pytest.approx((1e-4 + 1e-6) / 2, abs=1e-12)


def test_cosine_lr_warmup_is_linear_from_zero():
    assert cosine_lr(0, 1000, 0.03, 1e-4, 1e-6) == 0.0
    assert cosine_lr(15, 1000, 0.03, 1e-4, 1e-6) == pytest.approx(5e-5, abs=1e-12)


def test_cosine_lr_no_warmup():
    assert cosine_lr(0, 100, 0.0, 1e-4, 1e-6) == pytest.approx(1e-4)
