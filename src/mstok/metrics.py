"""Reconstruction quality metrics on [-1, 1] images: PSNR and SSIM.

Both remap to [0, 1] first. PSNR caps at 99 dB so identical images stay
JSON-friendly. SSIM uses uniform square windows with the reference constants
c1 = 0.01^2 and c2 = 0.03^2.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ConfigError, ShapeError

PSNR_CAP = 99.0
SSIM_WINDOW = 8


def _to_unit(image) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    return (arr + 1.0) / 2.0


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB over [0, 1]-rescaled images."""
    x, y = _to_unit(a), _to_unit(b)
    if x.shape != y.shape:
        raise ShapeError(f"psnr: shapes {x.shape} and {y.shape} differ")
    mse = float(((x - y) ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP)


def ssim(a, b, window: int = SSIM_WINDOW, c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> float:
    """Mean structural similarity of two C x H x W images over all valid
    windows and channels."""
    x, y = _to_unit(a), _to_unit(b)
    if x.shape != y.shape:
        raise ShapeError(f"ssim: shapes {x.shape} and {y.shape} differ")
    if x.ndim != 3:
        raise ShapeError(f"ssim: expected C x H x W images, got shape {x.shape}")
    _, h, w = x.shape
    if window > min(h, w):
        raise ConfigError(f"ssim: window {window} exceeds image side {min(h, w)}")

    def windows(img):
        v = np.lib.stride_tricks.sliding_window_view(img, (window, window), axis=(1, 2))
        return v.reshape(v.shape[0], v.shape[1], v.shape[2], -1)

    wx, wy = windows(x), windows(y)
    mx = wx.mean(axis=-1)
    my = wy.mean(axis=-1)
    vx = (wx * wx).mean(axis=-1) - mx * mx
    vy = (wy * wy).mean(axis=-1) - my * my
    cov = (wx * wy).mean(axis=-1) - mx * my
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float((num / den).mean())
