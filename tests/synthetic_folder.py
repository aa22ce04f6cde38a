"""Test helper: the package's synthetic images written as a PPM folder."""

import os

from mstok.data import generate_synthetic
from mstok.imageio import save_ppm


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
