"""Latent-space geometry: deterministic 2-D projection, kernel density
estimation on a grid, and uniformity statistics (density CV, Gini
coefficient, normalized entropy). Also the decode/downsample commutation
residual and the "HLAT" latent dump format.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import ConfigError, DataError, area_pool


class UndefinedMetricsError(DataError):
    """Uniformity metrics are undefined (e.g. all-zero densities)."""


@dataclass(frozen=True)
class LatentStats:
    density_cv: float
    gini: float
    norm_entropy: float
    n_points: int
    grid_size: int
    bandwidth: float
    projected_axes: int           # projection axes that carry variance, 0 to 2

    def to_dict(self) -> dict:
        return asdict(self)


def project2d(latents) -> tuple[np.ndarray, int]:
    """Deterministic 2-component principal projection of flattened latents.

    Centers the data, projects onto the top-2 covariance eigenvectors, and
    fixes each axis sign so its largest-magnitude coordinate is positive.
    Returns the n x 2 points and the number of axes that carry variance; a
    rank-deficient input fills each missing axis with zeros.
    """
    x = np.asarray(latents, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise DataError(f"project2d: need at least 3 flattened vectors, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataError("project2d: latent vectors hold non-finite values")
    centered = x - x.mean(axis=0)
    # Right singular vectors of the centered matrix are the covariance
    # eigenvectors; SVD avoids forming the d x d covariance.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(x.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    axes = int(np.count_nonzero(s[:2] > tol))
    out = np.zeros((x.shape[0], 2))
    for axis in range(axes):
        v = vt[axis]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        out[:, axis] = centered @ v
    return out, axes


def scott_bandwidth(points: np.ndarray) -> float:
    """Scott's rule for 2-D data: n^(-1/6) times the mean per-axis std."""
    pts = np.asarray(points, dtype=np.float64)
    spread = float(pts.std(axis=0).mean())
    if spread <= 0.0:
        return 1.0
    return float(pts.shape[0] ** (-1.0 / 6.0) * spread)


def kde_grid(points: np.ndarray, grid_size: int, bandwidth: float, pad_bandwidths: float = 3.0):
    """Cell-center coordinates of the evaluation grid over the padded box."""
    pts = np.asarray(points, dtype=np.float64)
    lo = pts.min(axis=0) - pad_bandwidths * bandwidth
    hi = pts.max(axis=0) + pad_bandwidths * bandwidth
    xs = np.linspace(lo[0], hi[0], grid_size)
    ys = np.linspace(lo[1], hi[1], grid_size)
    return xs, ys


def kde_density(points, grid_size: int = 64, bandwidth: float | None = None,
                pad_bandwidths: float = 3.0) -> np.ndarray:
    """Isotropic Gaussian KDE evaluated at grid centers, normalized to sum 1.

    Raises ``ConfigError`` for a grid size, bandwidth or pad that is invalid
    or that leaves every grid density underflowed to zero.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"kde_density: expected n x 2 points, got shape {pts.shape}")
    if grid_size < 1:
        raise ConfigError(f"kde_density: grid size must be at least 1, got {grid_size}")
    if not (np.isfinite(pad_bandwidths) and pad_bandwidths >= 0):
        raise ConfigError(f"kde_density: pad must be finite and nonnegative, got {pad_bandwidths}")
    if bandwidth is None:
        bandwidth = scott_bandwidth(pts)
    if not (np.isfinite(bandwidth) and bandwidth > 0 and bandwidth * bandwidth > 0):
        raise ConfigError(f"kde_density: bandwidth must be finite and positive with a nonzero square, got {bandwidth}")
    xs, ys = kde_grid(pts, grid_size, bandwidth, pad_bandwidths)
    inv = -0.5 / (bandwidth * bandwidth)
    density = np.zeros((grid_size, grid_size))
    # Chunk over grid rows to bound the n_points x grid memory footprint.
    for i in range(grid_size):
        dx2 = (xs[i] - pts[:, 0]) ** 2
        dy2 = (ys[None, :] - pts[:, 1, None]) ** 2
        density[i] = np.exp(inv * (dx2[:, None] + dy2)).sum(axis=0)
    total = density.sum()
    if total <= 0:
        # No grid center is within reach of any point: the caller's flags
        # cause this, not the points.
        raise ConfigError("kde_density: all densities underflowed to zero; use a larger bandwidth or grid")
    return density / total


def uniformity_metrics(densities, n_points: int = 0, grid_size: int | None = None,
                       bandwidth: float = float("nan"), projected_axes: int = 2) -> LatentStats:
    """Density CV, Gini coefficient, and normalized entropy of a density grid."""
    d = np.asarray(densities, dtype=np.float64).reshape(-1)
    if d.size == 0 or (d < 0).any():
        raise UndefinedMetricsError("uniformity metrics need a nonempty, nonnegative density grid")
    total = d.sum()
    if total <= 0:
        raise UndefinedMetricsError("uniformity metrics are undefined for all-zero densities")
    n = d.size

    mean = total / n
    cv = float(d.std() / mean)

    srt = np.sort(d)
    index = np.arange(1, n + 1)
    gini = float(((2 * index - n - 1) * srt).sum() / (n * total))

    p = d / total
    nz = p[p > 0]
    entropy = float(-(nz * np.log(nz)).sum())
    norm_entropy = 1.0 if n == 1 else float(entropy / np.log(n))

    side = grid_size if grid_size is not None else int(round(np.sqrt(n)))
    return LatentStats(density_cv=cv, gini=gini, norm_entropy=norm_entropy,
                       n_points=n_points, grid_size=side, bandwidth=float(bandwidth),
                       projected_axes=projected_axes)


def analyze_latents(vectors, grid_size: int = 64, bandwidth: float | None = None,
                    pad_bandwidths: float = 3.0) -> LatentStats:
    """Full pipeline: project to 2-D, estimate density, compute uniformity."""
    points, axes = project2d(vectors)
    if bandwidth is None:
        bandwidth = scott_bandwidth(points)
    densities = kde_density(points, grid_size=grid_size, bandwidth=bandwidth,
                            pad_bandwidths=pad_bandwidths)
    return uniformity_metrics(densities, n_points=points.shape[0], grid_size=grid_size,
                              bandwidth=bandwidth, projected_axes=axes)


def commutation_residuals(images: list[np.ndarray]) -> list[float]:
    """Per-level gap between decoding at a scale and downsampling the top
    decode: the batch mean of ||out_s - pool(out_top)|| / (||pool(out_top)|| + eps).

    ``images`` are batched (batch x 3 x side x side) decodes, low to high. The
    top level pools to its own side, an exact identity, so it reads 0.0.
    """
    top = images[-1]
    out = []
    for level in images:
        side = level.shape[-1]
        pooled = area_pool(top, side, side).data
        num = np.linalg.norm((level - pooled).reshape(level.shape[0], -1), axis=1)
        den = np.linalg.norm(pooled.reshape(level.shape[0], -1), axis=1)
        out.append(float((num / (den + 1e-8)).mean()))
    return out


# ---------------------------------------------------------------------------
# Latent dump format: magic "HLAT", count u32, dim u32, f32 LE vectors
# ---------------------------------------------------------------------------

LATENT_MAGIC = b"HLAT"


class LatentFormatError(DataError):
    """Latent dump bytes do not follow the HLAT layout."""


def write_latents(vectors, path: str) -> None:
    arr = np.ascontiguousarray(np.asarray(vectors, dtype="<f4"))
    if arr.ndim != 2:
        raise ValueError(f"write_latents: expected n x dim array, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(LATENT_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_latents(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != LATENT_MAGIC:
            raise LatentFormatError(f"{path}: bad magic {magic!r} at offset 0, expected {LATENT_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise LatentFormatError(f"{path}: truncated header at offset {4 + len(header)}")
        count, dim = struct.unpack("<II", header)
        if dim == 0:
            raise LatentFormatError(f"{path}: vector dim 0 in the header at offset 8")
        payload = fh.read(4 * count * dim)
        if len(payload) != 4 * count * dim:
            raise LatentFormatError(f"{path}: truncated payload at offset {12 + len(payload)}")
        if fh.read(1):
            raise LatentFormatError(f"{path}: trailing bytes after {count} vectors")
    return np.frombuffer(payload, dtype="<f4").reshape(count, dim).astype(np.float32)
