"""Latent-space geometry: deterministic 2-D projection, kernel density
estimation on a grid, and uniformity statistics (density CV, Gini
coefficient, normalized entropy). Also the decode/downsample commutation
residual and the "HLAT" latent dump format.

``analyze_latents`` builds the one latent report, which ``mstok
analyze-latent`` prints and the eval entry logs as ``uniformity``: a
JSON-ready dict whose keys, in order, are ``density_cv``, ``gini``,
``norm_entropy``, ``n_points``, ``grid_size``, ``bandwidth`` and
``projected_axes``.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import STREAM_LANCZOS
from .imageio import atomic_write
from .pyramid import ScaleSchedule, image_pyramid, segment_matrix, tokens_to_images
from .tensor import ConfigError, DataError, ShapeError, make_rng


# The KDE defaults of ``analyze_latents`` and ``mstok analyze-latent``: grid
# points per axis, and the bandwidths by which the grid's box extends past
# the points.
KDE_GRID_SIZE = 64
KDE_PAD_BANDWIDTHS = 3.0


class UndefinedMetricsError(DataError):
    """Uniformity metrics are undefined (e.g. all-zero densities)."""


def _top2_eigh(apply, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The two largest eigenvalues of a symmetric positive semidefinite m x m
    operator, descending, and their unit eigenvectors as m x 2 columns.

    The operator is given by its products alone: ``apply(q)`` returns it
    times the vector ``q`` of length m, so the matrix itself is never built.
    Lanczos with full reorthogonalisation (Golub & Van Loan, *Matrix
    Computations*, ch. 10) from a fixed random start, not a structured
    vector such as the ones vector, which structured input can leave
    orthogonal to its top eigenvectors. Each step
    orthogonalises against every earlier Krylov vector, twice, and finds the
    Ritz pairs by ``eigh`` of the k x k tridiagonal. It stops when the
    residuals ``beta * |s_last|`` of the top two Ritz pairs (the one pair
    after the first step) are within ``eps * theta_0``, or after m steps. A
    breakdown, ``beta`` near 0, passes that test, since no residual exceeds
    ``beta``: a rank-r operator has an invariant Krylov space after r + 1
    steps and stops within a step of it. One that stops after one step (m =
    1, or a zero operator) leaves one pair; the missing eigenvalue reads 0,
    its vector zeros.
    """
    # The Krylov vectors as rows, never m x m unless all m steps run.
    basis = np.empty((min(m, 32), m))
    alpha, beta = [], []
    q = make_rng(0, STREAM_LANCZOS).standard_normal(m)
    q /= np.linalg.norm(q)
    for k in range(1, m + 1):
        if k > len(basis):
            basis = np.concatenate([basis, np.empty((min(len(basis), m - len(basis)), m))])
        basis[k - 1] = q
        w = apply(q)
        alpha.append(q @ w)
        for _ in range(2):
            w -= basis[:k].T @ (basis[:k] @ w)
        beta.append(np.linalg.norm(w))
        # The k x k tridiagonal; eigh reads its lower triangle alone.
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        if (beta[-1] * np.abs(s[-1, -2:]) <= np.finfo(np.float64).eps * theta[-1]).all():
            break
        q = w / beta[-1]
    lam, top = np.zeros(2), np.zeros((m, 2))
    lam[:k] = theta[:-3:-1]
    top[:, :k] = basis[:k].T @ s[:, :-3:-1]
    return lam, top


def project2d(latents) -> tuple[np.ndarray, int]:
    """Deterministic 2-component principal projection of flattened latents.

    Centers the n x d data and projects it onto its top-2 principal axes,
    fixing each axis sign so its largest-magnitude coordinate is positive.
    The axes are the top two eigenvectors, the only ones computed (by
    ``_top2_eigh``'s Lanczos), of the d x d Gram operator ``c.T @ c``, whose
    eigenvalues are the squared singular values of ``c``, so no SVD is
    needed. Lanczos reads the operator only through the two products
    ``c.T @ (c @ q)``, so no d x d matrix is built and the pass holds ``c``
    and a few Krylov vectors of length d.

    Returns the n x 2 points and the number of axes that carry variance; a
    rank-deficient input fills each missing axis with zeros. An axis carries
    variance when its eigenvalue exceeds ``max(n, d) * eps * lambda_0``. This
    is the singular-value rank rule ``s_i > max(n, d) * eps * s_0`` (that of
    ``np.linalg.matrix_rank``) in eigenvalue form, with the tolerance left
    unsquared because each product through ``c`` and back rounds every
    eigenvalue by about ``eps * lambda_0``. In singular values the cut is
    ``sqrt(max(n, d) * eps) * s_0``, under ``1e-6 * s_0`` up to 4500 vectors
    or dims. The float32 rounding of an HLAT dump adds eigenvalues of about
    ``1e-15 * lambda_0`` or less, below the cut once n * d is a few hundred,
    so rank-1 float32 input reports one axis where the singular-value rule
    counts its rounding as a second.
    """
    # The one float64 copy, centred in place; the caller's array is untouched.
    centered = np.array(latents, dtype=np.float64)
    if centered.ndim != 2 or centered.shape[0] < 3 or centered.shape[1] < 1:
        raise DataError(f"project2d: need at least 3 flattened vectors of 1 or more dims, got shape {centered.shape}")
    # min and max carry any NaN or infinity, and need no n x d mask.
    if not np.isfinite([centered.min(), centered.max()]).all():
        raise DataError("project2d: latent vectors hold non-finite values")
    n, d = centered.shape
    centered -= centered.mean(axis=0)
    lam, top = _top2_eigh(lambda q: centered.T @ (centered @ q), d)
    tol = max(n, d) * np.finfo(np.float64).eps * lam[0]
    axes = int(np.count_nonzero(lam > tol))
    out = np.zeros((n, 2))
    for axis in range(axes):
        v = top[:, axis] / np.linalg.norm(top[:, axis])
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


def kde_grid(points: np.ndarray, grid_size: int, bandwidth: float, pad_bandwidths: float):
    """Coordinates of the evaluation grid: ``grid_size`` evenly spaced points
    per axis from the padded box's lower edge to its upper edge, both
    included (``np.linspace``), so the outer points lie on the box's edges,
    not at cell centers."""
    pts = np.asarray(points, dtype=np.float64)
    lo = pts.min(axis=0) - pad_bandwidths * bandwidth
    hi = pts.max(axis=0) + pad_bandwidths * bandwidth
    xs = np.linspace(lo[0], hi[0], grid_size)
    ys = np.linspace(lo[1], hi[1], grid_size)
    return xs, ys


def _check_kde_settings(grid_size: int, bandwidth: float | None, pad_bandwidths: float) -> None:
    """Raise ``ConfigError`` for a KDE grid size, pad or bandwidth that is
    invalid; a ``None`` bandwidth, Scott's to be resolved, is not checked."""
    if grid_size < 1:
        raise ConfigError(f"kde: grid size must be at least 1, got {grid_size}")
    if not (np.isfinite(pad_bandwidths) and pad_bandwidths >= 0):
        raise ConfigError(f"kde: pad must be finite and nonnegative, got {pad_bandwidths}")
    if bandwidth is not None and not (bandwidth > 0 and 0 < bandwidth * bandwidth < np.inf):  # NaN fails too
        raise ConfigError(f"kde: bandwidth must be positive with a finite, nonzero square, got {bandwidth}")


def kde_density(points, grid_size: int, bandwidth: float, pad_bandwidths: float) -> np.ndarray:
    """Isotropic Gaussian KDE evaluated at the ``kde_grid`` points, normalized
    to sum 1.

    The kernel is separable, ``exp(inv * (dx^2 + dy^2)) = exp(inv * dx^2) *
    exp(inv * dy^2)``, so with ``ex`` and ``ey`` the n x grid per-axis
    kernels, ``density[i, j] = sum_p ex[p, i] * ey[p, j]`` is the one gemm
    ``ex.T @ ey``.

    Raises ``ShapeError`` for points that are not n x 2, and ``ConfigError``
    for a grid size, bandwidth or pad that is invalid or that leaves every
    grid density underflowed to zero.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"kde_density: expected n x 2 points, got shape {pts.shape}")
    _check_kde_settings(grid_size, bandwidth, pad_bandwidths)
    xs, ys = kde_grid(pts, grid_size, bandwidth, pad_bandwidths)
    inv = -0.5 / (bandwidth * bandwidth)
    ex = np.exp(inv * (xs[None, :] - pts[:, 0, None]) ** 2)
    ey = np.exp(inv * (ys[None, :] - pts[:, 1, None]) ** 2)
    density = ex.T @ ey
    total = density.sum()
    if not total > 0:
        # No grid point is within reach of any point: the caller's flags
        # cause this, not the points.
        raise ConfigError("kde_density: all densities underflowed to zero; use a larger bandwidth or grid")
    return density / total


def uniformity_metrics(densities) -> dict:
    """Density CV, Gini coefficient and normalized entropy of a density
    grid: a dict of the floats ``density_cv``, ``gini`` and ``norm_entropy``,
    in that order."""
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
    return {"density_cv": cv, "gini": gini, "norm_entropy": norm_entropy}


def analyze_latents(vectors, grid_size: int = KDE_GRID_SIZE, bandwidth: float | None = None,
                    pad_bandwidths: float = KDE_PAD_BANDWIDTHS) -> dict:
    """The latent report: project to 2-D, estimate the density on a grid
    (Scott's bandwidth unless one is given), and score its uniformity.

    Returns the JSON-ready dict of ``uniformity_metrics`` (``density_cv``,
    ``gini``, ``norm_entropy``), then ``n_points`` (int), ``grid_size``
    (int), ``bandwidth`` (float) and ``projected_axes`` (int, the
    projection axes that carry variance, 0 to 2), in that order. Invalid
    KDE settings raise ``ConfigError`` before the projection runs.
    """
    _check_kde_settings(grid_size, bandwidth, pad_bandwidths)
    points, axes = project2d(vectors)
    if bandwidth is None:
        bandwidth = scott_bandwidth(points)
    densities = kde_density(points, grid_size, bandwidth, pad_bandwidths)
    return {**uniformity_metrics(densities), "n_points": points.shape[0], "grid_size": grid_size,
            "bandwidth": float(bandwidth), "projected_axes": axes}


def commutation_residuals(px, schedule: ScaleSchedule, patch: int) -> list[float]:
    """Per-level gap between decoding at a scale and downsampling the top
    decode: the batch mean of ||out_s - pool(out_top)|| / (||pool(out_top)|| + eps).

    ``px`` is a batch x T x 3p² pixel-token decode; the pooled reference is the
    ``image_pyramid`` of its top-scale image, and both norms are per-scale
    segment sums. The top level is its own pool and reads 0.0.
    """
    ref = image_pyramid(tokens_to_images(px, schedule, patch)[-1], schedule, patch)
    seg = segment_matrix(schedule, px.shape[2]).astype(px.dtype)
    num, den = (np.sqrt(np.square(a).reshape(len(px), -1) @ seg) for a in (px - ref, ref))
    return (num / (den + 1e-8)).mean(axis=0).tolist()


# ---------------------------------------------------------------------------
# Latent dump format: magic "HLAT", count u32, dim u32, f32 LE vectors
# ---------------------------------------------------------------------------

LATENT_MAGIC = b"HLAT"


class LatentFormatError(DataError):
    """Latent dump bytes do not follow the HLAT layout."""


def write_latents(vectors, path: str) -> None:
    """Write an HLAT dump atomically (``imageio.atomic_write``): a failed
    write leaves the previous file intact and no temporary file behind."""
    arr = np.ascontiguousarray(np.asarray(vectors, dtype="<f4"))
    if arr.ndim != 2:
        raise ShapeError(f"write_latents: expected n x dim array, got shape {arr.shape}")
    with atomic_write(path) as fh:
        fh.write(LATENT_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(memoryview(arr))  # the array's own buffer, not a copy of it


def read_latents(path: str) -> np.ndarray:
    """An HLAT dump's count x dim vectors, a read-only float32 array over its bytes."""
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
        # Read what the file holds, never the size the header claims, so a
        # corrupt header cannot ask for more memory than the file has.
        payload = fh.read()
    if len(payload) != 4 * count * dim:
        raise LatentFormatError(f"{path}: header at offset 4 claims {count} x {dim} vectors "
                                f"({4 * count * dim} payload bytes), the file holds {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(count, dim)
