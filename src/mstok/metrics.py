"""Reconstruction quality metrics on [-1, 1] images: PSNR and SSIM.

Both take arrays whose last three axes are C x H x W, so a single image is a
batch of one, and return the mean per-image score over the leading axes.
Both remap to [0, 1] first. PSNR caps at 99 dB so identical images stay
JSON-friendly. SSIM uses uniform SSIM_WINDOW-square windows with the
reference constants c1 = 0.01^2 and c2 = 0.03^2.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ConfigError, ShapeError

PSNR_CAP = 99.0
SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
_IMAGE_AXES = (-3, -2, -1)


def _unit_pair(a, b, name: str) -> tuple[np.ndarray, np.ndarray]:
    x = (np.asarray(a, dtype=np.float64) + 1.0) / 2.0
    y = (np.asarray(b, dtype=np.float64) + 1.0) / 2.0
    if x.shape != y.shape:
        raise ShapeError(f"{name}: shapes {x.shape} and {y.shape} differ")
    if x.ndim < 3:
        raise ShapeError(f"{name}: expected ... x C x H x W images, got shape {x.shape}")
    return x, y


def psnr(a, b) -> float:
    """Mean per-image peak signal-to-noise ratio in dB over [0, 1]-rescaled
    images. The MSE floor lies past the cap, so a zero MSE scores exactly
    PSNR_CAP."""
    x, y = _unit_pair(a, b, "psnr")
    mse = np.maximum(((x - y) ** 2).mean(axis=_IMAGE_AXES), 1e-10)
    return float(np.minimum(10.0 * np.log10(1.0 / mse), PSNR_CAP).mean())


def _box_mean(img: np.ndarray) -> np.ndarray:
    """Mean over every SSIM_WINDOW-square window: a 1-D mean over W, then one
    over H, each on a strided view, so no window is copied."""
    rows = sliding_window_view(img, SSIM_WINDOW, axis=-1).mean(axis=-1)
    return sliding_window_view(rows, SSIM_WINDOW, axis=-2).mean(axis=-1)


def ssim(a, b) -> float:
    """Mean per-image structural similarity, each image's score the mean over
    all valid windows and channels."""
    x, y = _unit_pair(a, b, "ssim")
    side = min(x.shape[-2:])
    if SSIM_WINDOW > side:
        raise ConfigError(f"ssim: window {SSIM_WINDOW} exceeds image side {side}")
    mx, my = _box_mean(x), _box_mean(y)
    vx = _box_mean(x * x) - mx * mx
    vy = _box_mean(y * y) - my * my
    cov = _box_mean(x * y) - mx * my
    num = (2 * mx * my + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return float((num / den).mean(axis=_IMAGE_AXES).mean())
