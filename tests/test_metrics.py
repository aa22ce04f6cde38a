import numpy as np
import pytest

from mstok.metrics import psnr, ssim
from mstok.tensor import ConfigError, ShapeError, make_rng


def test_psnr_identical_images_capped():
    img = make_rng(0).uniform(-1, 1, (3, 16, 16))
    assert psnr(img, img) == 99.0


def test_psnr_uniform_offset_point1():
    # 0.1 offset in [0,1] domain is 0.2 in [-1,1]; MSE 0.01 -> 20 dB.
    a = np.zeros((3, 8, 8))
    b = np.full((3, 8, 8), 0.2)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)


def test_psnr_uniform_offset_half():
    a = np.full((3, 8, 8), -1.0)
    b = np.zeros((3, 8, 8))  # 0.5 apart in [0,1]
    assert psnr(a, b) == pytest.approx(10 * np.log10(1 / 0.25), abs=1e-9)
    assert psnr(a, b) == pytest.approx(6.0206, abs=1e-3)


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(np.zeros((3, 4, 4)), np.zeros((3, 8, 8)))


def ssim_oracle(x, y, window=8, c1=0.01 ** 2, c2=0.03 ** 2):
    # Direct nested-loop evaluation of the SSIM formula per window/channel.
    x = (np.asarray(x, dtype=np.float64) + 1) / 2
    y = (np.asarray(y, dtype=np.float64) + 1) / 2
    c, h, w = x.shape
    vals = []
    for ci in range(c):
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                wx = x[ci, i : i + window, j : j + window].ravel()
                wy = y[ci, i : i + window, j : j + window].ravel()
                mx, my = wx.mean(), wy.mean()
                vx, vy = wx.var(), wy.var()
                cov = ((wx - mx) * (wy - my)).mean()
                vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                            / ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


def test_ssim_identical_images():
    img = make_rng(1).uniform(-1, 1, (3, 12, 12))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_inverted_nonconstant_below_one():
    img = make_rng(2).uniform(-1, 1, (3, 12, 12))
    assert ssim(img, -img) < 1.0


def test_ssim_checkerboard_vs_inverse_matches_oracle():
    board = (np.indices((12, 12)).sum(axis=0) % 2).astype(np.float64) * 2 - 1
    a = np.broadcast_to(board, (3, 12, 12)).copy()
    b = -a
    assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-12)


def test_ssim_random_pair_matches_oracle():
    rng = make_rng(3)
    a = rng.uniform(-1, 1, (2, 10, 10))
    b = np.clip(a + rng.normal(0, 0.2, a.shape), -1, 1)
    assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-10)


def test_ssim_two_channel_non_square_matches_oracle():
    rng = make_rng(4)
    a = rng.uniform(-1, 1, (2, 9, 13))
    b = np.clip(a + rng.normal(0, 0.3, a.shape), -1, 1)
    assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-12)


def test_ssim_window_too_large():
    with pytest.raises(ConfigError):
        ssim(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))
    with pytest.raises(ConfigError):
        ssim(np.zeros((3, 16, 7)), np.zeros((3, 16, 7)))


def batch_pair():
    # Four different images; the first pair is identical, so psnr averages
    # its 99 dB cap with finite scores.
    rng = make_rng(5)
    a = rng.uniform(-1, 1, (4, 3, 12, 10))
    noise = np.array([0.0, 0.05, 0.1, 0.3]).reshape(4, 1, 1, 1)
    return a, np.clip(a + noise * rng.standard_normal(a.shape), -1, 1)


@pytest.mark.parametrize("metric", [psnr, ssim])
def test_batched_metric_is_mean_of_per_image_scores(metric):
    a, b = batch_pair()
    per_image = [metric(x, y) for x, y in zip(a, b)]
    assert per_image[0] == (99.0 if metric is psnr else pytest.approx(1.0, abs=1e-12))
    assert len(set(per_image)) == len(per_image)
    assert metric(a, b) == pytest.approx(float(np.mean(per_image)), abs=1e-12)


@pytest.mark.parametrize("metric", [psnr, ssim])
def test_metric_takes_any_leading_batch_axes(metric):
    a, b = batch_pair()
    grid = a.reshape((2, 2) + a.shape[1:]), b.reshape((2, 2) + b.shape[1:])
    assert metric(*grid) == pytest.approx(metric(a, b), abs=1e-12)


@pytest.mark.parametrize("metric", [psnr, ssim])
def test_metric_rejects_shapes(metric):
    with pytest.raises(ShapeError):
        metric(np.zeros((2, 3, 8, 8)), np.zeros((1, 3, 8, 8)))
    with pytest.raises(ShapeError):
        metric(np.zeros((8, 8)), np.zeros((8, 8)))
