"""Dataset loading and the hermetic synthetic image generator.

A dataset is either a folder of same-size binary PPMs (ordered
lexicographically by filename) or an in-memory synthetic set addressed as
``synthetic:<count>``. All pixels are normalized to [-1, 1].
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .imageio import load_ppm, save_ppm
from .tensor import DataError, make_rng

# rng stream ids (spawn keys) reserved across the package
STREAM_INIT = 0
STREAM_NOISE = 1
STREAM_DATA = 2
STREAM_SYNTH = 3


@dataclass
class Dataset:
    images: np.ndarray            # N x 3 x H x W float32 in [-1, 1]
    names: list[str]

    def __len__(self) -> int:
        return self.images.shape[0]

    def split(self, eval_fraction: float) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic split: the last fraction (by name order) is eval."""
        n = len(self)
        n_eval = int(round(n * eval_fraction))
        if n_eval >= n:
            n_eval = n - 1
        idx = np.arange(n)
        return idx[: n - n_eval], idx[n - n_eval :]

    def epoch_order(self, seed: int, epoch: int, indices: np.ndarray) -> np.ndarray:
        """Shuffle reproducible from (seed, epoch) alone."""
        rng = make_rng(seed, stream=(STREAM_DATA, epoch))
        return indices[rng.permutation(len(indices))]


def _synthetic_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """One RGB image: layered sinusoidal gradients plus solid shapes."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = np.zeros((3, size, size))
    for c in range(3):
        field = np.zeros((size, size))
        for _ in range(rng.integers(2, 5)):
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(0.2, 1.0)
            field += amp * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
        img[c] = field
    img /= max(np.abs(img).max(), 1e-9)

    for _ in range(rng.integers(1, 4)):
        color = rng.uniform(-1, 1, size=3)
        if rng.random() < 0.5:
            w = rng.integers(size // 8, size // 2 + 1)
            h = rng.integers(size // 8, size // 2 + 1)
            r = rng.integers(0, size - h + 1)
            c0 = rng.integers(0, size - w + 1)
            img[:, r : r + h, c0 : c0 + w] = color[:, None, None]
        else:
            radius = rng.integers(size // 8, size // 3 + 1)
            cy, cx = rng.integers(0, size, size=2)
            mask = (np.mgrid[0:size, 0:size][0] - cy) ** 2 + (np.mgrid[0:size, 0:size][1] - cx) ** 2 <= radius ** 2
            img[:, mask] = color[:, None]

    # Quantize through uint8 so pixels sit exactly on PPM-representable values.
    u8 = np.clip(np.rint((img + 1.0) * 127.5), 0, 255).astype(np.uint8)
    return (u8.astype(np.float32) / 127.5 - 1.0)


def generate_synthetic(count: int, size: int, seed: int) -> Dataset:
    if count < 1:
        raise DataError(f"synthetic dataset needs a positive count, got {count}")
    images = np.empty((count, 3, size, size), dtype=np.float32)
    for i in range(count):
        rng = make_rng(seed, stream=(STREAM_SYNTH, i))
        images[i] = _synthetic_image(rng, size)
    names = [f"synthetic_{i:05d}" for i in range(count)]
    return Dataset(images=images, names=names)


def generate_synthetic_folder(directory: str, count: int, size: int, seed: int) -> list[str]:
    """Write synthetic images as PPM files; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    ds = generate_synthetic(count, size, seed)
    paths = []
    for name, image in zip(ds.names, ds.images):
        path = os.path.join(directory, f"{name}.ppm")
        save_ppm(image, path)
        paths.append(path)
    return paths


def load_folder(directory: str, image_size: int) -> Dataset:
    try:
        entries = sorted(os.listdir(directory))
    except OSError as err:
        raise DataError(f"cannot list dataset directory {directory!r}: {err}") from None
    paths = [os.path.join(directory, e) for e in entries if e.lower().endswith(".ppm")]
    if not paths:
        raise DataError(f"no .ppm files in {directory!r}")
    images = np.empty((len(paths), 3, image_size, image_size), dtype=np.float32)
    for i, path in enumerate(paths):
        img = load_ppm(path)
        if img.shape != (3, image_size, image_size):
            raise DataError(
                f"{path}: image is {img.shape[1]}x{img.shape[2]}, config expects {image_size}x{image_size}"
            )
        images[i] = img
    return Dataset(images=images, names=[os.path.basename(p) for p in paths])


def load_dataset(data_dir: str, image_size: int, seed: int) -> Dataset:
    """Resolve ``synthetic:<count>`` specs or a PPM folder path."""
    if data_dir.startswith("synthetic:"):
        spec = data_dir.split(":", 1)[1]
        try:
            count = int(spec)
        except ValueError:
            raise DataError(f"bad synthetic dataset spec {data_dir!r}; expected synthetic:<count>") from None
        return generate_synthetic(count, image_size, seed)
    return load_folder(data_dir, image_size)
