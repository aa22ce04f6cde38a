from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import latent_stats as L
from mstok.config import TokenizerConfig
from mstok.model import init_model
from mstok.tensor import Tensor, make_rng


# ---------------------------------------------------------------------------
# project2d
# ---------------------------------------------------------------------------

def test_project2d_preserves_2d_structure():
    rng = make_rng(0)
    pts = rng.standard_normal((50, 2))
    pts -= pts.mean(axis=0)
    proj, axes = L.project2d(pts)
    assert axes == 2
    # Distances survive an orthogonal change of basis.
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d_out = np.linalg.norm(proj[:, None] - proj[None, :], axis=-1)
    np.testing.assert_allclose(d_in, d_out, atol=1e-9)


def test_project2d_identical_points_at_origin():
    pts = np.ones((5, 3))
    proj, axes = L.project2d(pts)
    assert axes == 0
    np.testing.assert_array_equal(proj, np.zeros((5, 2)))


def test_project2d_collinear_points_fill_second_axis_with_zeros():
    pts = np.outer(np.arange(6.0), [1.0, -2.0, 0.5])
    proj, axes = L.project2d(pts)
    assert axes == 1
    np.testing.assert_array_equal(proj[:, 1], np.zeros(6))
    assert np.abs(proj[:, 0]).max() > 0


def test_project2d_planar_3d_keeps_variance():
    # Points on a tilted plane in 3-D: top-2 eigenvalues carry all variance.
    rng = make_rng(1)
    coeff = rng.standard_normal((2, 3))
    pts = rng.standard_normal((100, 2)) @ coeff
    proj, axes = L.project2d(pts)
    assert axes == 2
    cov = np.cov(pts - pts.mean(axis=0), rowvar=False)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    proj_var = np.var(proj, axis=0, ddof=1).sum()
    assert proj_var == pytest.approx(eig[0] + eig[1], rel=1e-9)
    assert eig[2] == pytest.approx(0.0, abs=1e-12)


def test_project2d_deterministic():
    rng = make_rng(2)
    pts = rng.standard_normal((30, 6))
    np.testing.assert_array_equal(L.project2d(pts)[0], L.project2d(pts)[0])


# ---------------------------------------------------------------------------
# kde_density
# ---------------------------------------------------------------------------

def test_kde_single_point_peak_and_symmetry():
    density = L.kde_density(np.zeros((1, 2)), grid_size=9, bandwidth=1.0)
    center = density[4, 4]
    assert center == density.max()
    np.testing.assert_allclose(density, density[::-1, :], rtol=1e-12)
    np.testing.assert_allclose(density, density[:, ::-1], rtol=1e-12)


def test_kde_normalization():
    rng = make_rng(3)
    pts = rng.standard_normal((40, 2))
    density = L.kde_density(pts, grid_size=32)
    assert density.sum() == pytest.approx(1.0, abs=1e-9)


def test_kde_two_separated_points_equal_modes():
    pts = np.array([[-10.0, 0.0], [10.0, 0.0]])
    g = 33
    density = L.kde_density(pts, grid_size=g, bandwidth=0.5)
    mode_rows = density.max(axis=1)
    # Kernel-sum oracle at the two mode cells: both kernels contribute equally.
    xs, ys = L.kde_grid(pts, g, 0.5)
    vals = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            for p in pts:
                vals[i, j] += np.exp(-((xs[i] - p[0]) ** 2 + (ys[j] - p[1]) ** 2) / (2 * 0.25))
    vals /= vals.sum()
    np.testing.assert_allclose(density, vals, rtol=1e-9)
    left = density[: g // 2].max()
    right = density[g // 2 + 1 :].max()
    assert left == pytest.approx(right, rel=1e-9)
    assert mode_rows.max() == pytest.approx(max(left, right), rel=1e-12)


def test_kde_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        L.kde_density(np.zeros((3, 2)), bandwidth=0.0)


# ---------------------------------------------------------------------------
# uniformity_metrics
# ---------------------------------------------------------------------------

def test_uniform_density_perfect_scores():
    stats = L.uniformity_metrics(np.full(64, 1.0 / 64))
    assert stats.density_cv == pytest.approx(0.0, abs=1e-9)
    assert stats.gini == pytest.approx(0.0, abs=1e-9)
    assert stats.norm_entropy == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 5, 64])
def test_point_mass_closed_forms(n):
    d = np.zeros(n)
    d[n // 2] = 3.7
    stats = L.uniformity_metrics(d)
    assert stats.gini == pytest.approx((n - 1) / n, abs=1e-9)
    assert stats.norm_entropy == pytest.approx(0.0, abs=1e-9)


def test_hand_computed_two_cell_case():
    stats = L.uniformity_metrics(np.array([1.0, 3.0]))
    assert stats.density_cv == pytest.approx(0.5, abs=1e-9)
    assert stats.gini == pytest.approx(0.25, abs=1e-9)
    expected_entropy = (-0.25 * np.log(0.25) - 0.75 * np.log(0.75)) / np.log(2)
    assert stats.norm_entropy == pytest.approx(expected_entropy, abs=1e-9)
    assert stats.norm_entropy == pytest.approx(0.8113, abs=1e-4)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=2, max_size=32),
    st.floats(0.001, 1000.0),
)
def test_gini_scale_invariance(values, factor):
    d = np.array(values)
    a = L.uniformity_metrics(d).gini
    b = L.uniformity_metrics(d * factor).gini
    assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.floats(0.1, 5.0))
def test_entropy_strictly_below_one_off_uniform(idx, bump):
    d = np.ones(16)
    d[idx] += bump
    assert L.uniformity_metrics(d).norm_entropy < 1.0


def test_all_zero_densities_rejected():
    with pytest.raises(L.UndefinedMetricsError):
        L.uniformity_metrics(np.zeros(16))


def test_analyze_latents_deterministic():
    rng = make_rng(4)
    vecs = rng.standard_normal((64, 12))
    a = L.analyze_latents(vecs, grid_size=16)
    b = L.analyze_latents(vecs, grid_size=16)
    assert a == b
    assert a.n_points == 64 and a.grid_size == 16


# ---------------------------------------------------------------------------
# commutation_residuals
# ---------------------------------------------------------------------------

TINY = TokenizerConfig(image_size=8, patch=4, enc_layers=1, dec_layers=1, enc_width=8,
                       dec_width=8, heads=2, latent_dim=4, scales=(1, 2), seed=3)


def residuals_of(seed):
    model = init_model(TINY)
    x = Tensor(make_rng(seed).uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32))
    images, _ = model.reconstruct(x, deterministic=True)
    return L.commutation_residuals([im.data for im in images])


def test_commutation_residual_top_level_zero():
    assert residuals_of(5)[-1] == 0.0


def test_commutation_residual_untrained_finite():
    r = residuals_of(6)[0]
    assert np.isfinite(r) and r >= 0.0


# ---------------------------------------------------------------------------
# HLAT dump format
# ---------------------------------------------------------------------------

def test_latent_dump_roundtrip(tmp_path):
    rng = make_rng(7)
    vecs = rng.standard_normal((10, 6)).astype(np.float32)
    path = str(tmp_path / "latents.hlat")
    L.write_latents(vecs, path)
    got = L.read_latents(path)
    np.testing.assert_array_equal(got, vecs)
    # Canonical header layout.
    blob = Path(path).read_bytes()
    assert blob[:4] == b"HLAT"
    assert int.from_bytes(blob[4:8], "little") == 10
    assert int.from_bytes(blob[8:12], "little") == 6


def test_latent_dump_bad_magic(tmp_path):
    path = tmp_path / "bad.hlat"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(L.LatentFormatError):
        L.read_latents(str(path))
