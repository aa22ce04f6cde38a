import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import latent_stats as L
from mstok.config import TokenizerConfig
from mstok.model import init_model
from mstok.pyramid import build_schedule, image_pyramid, tokens_to_images
from mstok.tensor import DataError, ShapeError, Tensor, area_pool, make_rng


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


def svd_projection(x):
    """Oracle: top-2 right singular vectors of the centered float64 data,
    each signed so its largest-magnitude coordinate is positive."""
    centered = np.asarray(x, dtype=np.float64)
    centered = centered - centered.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = [v if v[np.argmax(np.abs(v))] > 0 else -v for v in vt[:2]]
    return centered @ np.stack(axes, axis=1)


def low_rank_plus_noise(shape, dtype):
    """Three strong directions, small isotropic noise and an offset."""
    rng = make_rng(8)
    n, d = shape
    x = (rng.standard_normal((n, 3)) * [5.0, 2.0, 1.0]) @ rng.standard_normal((3, d))
    x += 0.1 * rng.standard_normal((n, d)) + rng.standard_normal(d)
    return x.astype(dtype)


# tall; wide, as in the eval sweep; wide float32, as an HLAT dump holds it;
# the benchmark's dump shape; and a flat spectrum, which takes many Lanczos steps
@pytest.mark.parametrize("shape, dtype, flat", [((300, 40), np.float64, False), ((64, 1024), np.float64, False),
                                                ((64, 1024), np.float32, False), ((2048, 1024), np.float32, False),
                                                ((300, 200), np.float64, True)],
                         ids=["shape0", "shape1", "shape1-float32", "dump-float32", "flat-spectrum"])
def test_project2d_matches_svd_oracle(shape, dtype, flat):
    x = make_rng(8).standard_normal(shape).astype(dtype) if flat else low_rank_plus_noise(shape, dtype)
    before = x.copy()
    proj, axes = L.project2d(x)
    assert axes == 2
    np.testing.assert_allclose(proj, svd_projection(x), rtol=0, atol=1e-9)
    np.testing.assert_array_equal(x, before)  # the caller's array is never written


def test_project2d_holds_no_more_than_its_float64_copy():
    # Lanczos reads the Gram operator through products with the centred copy;
    # a d x d Gram matrix would add 8 MB at the benchmark's dump shape.
    x = low_rank_plus_noise((2048, 1024), np.float32)
    tracemalloc.start()
    try:
        L.project2d(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.size * 8 + 2 * 2**20, peak


@pytest.mark.parametrize("shape", [(400, 120), (120, 400)], ids=["d_le_n", "d_gt_n"])
def test_project2d_close_second_and_third_eigenvalues_match_svd_oracle(shape):
    # lambda_2 / lambda_3 = 1.005, about the 1.0055 of a 2048 x 1024 dump of
    # the 5-step default checkpoint: a near-tie the second axis must resolve.
    rng = make_rng(22)
    n, d = shape
    k = min(n, d) - 1
    left = rng.standard_normal((n, k))
    left -= left.mean(axis=0)  # orthogonal to ones, so centering keeps it
    left = np.linalg.qr(left)[0]
    right = np.linalg.qr(rng.standard_normal((d, k)))[0]
    sv = np.concatenate([[5.0, 2.0, 2.0 / np.sqrt(1.005)], np.geomspace(1.5, 0.01, k - 3)])
    x = (left * sv) @ right.T + rng.standard_normal(d)
    centered_sv = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    assert (centered_sv[1] / centered_sv[2]) ** 2 == pytest.approx(1.005, rel=1e-9)
    proj, axes = L.project2d(x)
    assert axes == 2
    np.testing.assert_allclose(proj, svd_projection(x), rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_project2d_counts_rank_one_and_rank_two_axes(n, d, seed, scale):
    rng = make_rng(seed)
    offset = rng.standard_normal(d)  # centering removes it
    rank1 = scale * np.outer(rng.standard_normal(n), rng.standard_normal(d)) + offset
    assert L.project2d(rank1)[1] == 1
    if d >= 2:
        rank2 = scale * rng.standard_normal((n, 2)) @ rng.standard_normal((2, d)) + offset
        assert L.project2d(rank2)[1] == 2


@pytest.mark.parametrize("rank", [1, 3])
def test_project2d_stops_at_the_breakdown_of_rank_deficient_input(rank, monkeypatch):
    # A rank-r Gram matrix and the start vector span an invariant Krylov
    # space of r + 1 dims; the iteration stops within a step of it (one eigh
    # per step), not after all 200 steps.
    eigh, sizes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: sizes.append(len(a)) or eigh(a, *args))
    rng = make_rng(23)
    proj, axes = L.project2d(rng.standard_normal((300, rank)) @ rng.standard_normal((rank, 200)))
    assert axes == min(rank, 2)
    assert len(sizes) <= rank + 2


def test_project2d_one_dimensional_latents():
    # A 1 x 1 Gram matrix holds a single eigenpair; the second axis is zeros.
    x = np.array([[3.0], [-1.0], [0.5], [2.0]])
    proj, axes = L.project2d(x)
    assert axes == 1
    np.testing.assert_allclose(proj[:, 0], x[:, 0] - x.mean(), atol=1e-12)
    np.testing.assert_array_equal(proj[:, 1], np.zeros(4))


def test_project2d_float32_rank_one_reports_one_axis():
    # float32 rounding of a rank-1 dump is not a second axis.
    rng = make_rng(9)
    x = (np.outer(rng.standard_normal(64), rng.standard_normal(1024)) + 3.0).astype(np.float32)
    proj, axes = L.project2d(x)
    assert axes == 1
    np.testing.assert_array_equal(proj[:, 1], np.zeros(64))


def test_project2d_leaves_float64_input_unchanged():
    # project2d centres its own copy; a float64 caller array must not be it.
    x = make_rng(4).normal(size=(20, 5)) + 3.0
    before = x.copy()
    L.project2d(x)
    np.testing.assert_array_equal(x, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project2d_rejects_non_finite_values(bad):
    x = make_rng(3).standard_normal((6, 4))
    x[4, 2] = bad
    with pytest.raises(DataError, match="non-finite"):
        L.project2d(x)


@pytest.mark.parametrize("shape", [(5,), (2, 4), (5, 0)])
def test_project2d_rejects_too_few_vectors_or_dims(shape):
    with pytest.raises(DataError, match="at least 3 flattened vectors"):
        L.project2d(np.zeros(shape))


def test_project2d_deterministic():
    rng = make_rng(2)
    pts = rng.standard_normal((30, 6))
    np.testing.assert_array_equal(L.project2d(pts)[0], L.project2d(pts)[0])


# ---------------------------------------------------------------------------
# kde_density
# ---------------------------------------------------------------------------

def test_kde_single_point_peak_and_symmetry():
    density = L.kde_density(np.zeros((1, 2)), 9, 1.0, L.KDE_PAD_BANDWIDTHS)
    center = density[4, 4]
    assert center == density.max()
    np.testing.assert_allclose(density, density[::-1, :], rtol=1e-12)
    np.testing.assert_allclose(density, density[:, ::-1], rtol=1e-12)


def test_kde_normalization():
    rng = make_rng(3)
    pts = rng.standard_normal((40, 2))
    density = L.kde_density(pts, 32, L.scott_bandwidth(pts), L.KDE_PAD_BANDWIDTHS)
    assert density.sum() == pytest.approx(1.0, abs=1e-9)


def test_kde_two_separated_points_equal_modes():
    pts = np.array([[-10.0, 0.0], [10.0, 0.0]])
    g = 33
    density = L.kde_density(pts, g, 0.5, L.KDE_PAD_BANDWIDTHS)
    mode_rows = density.max(axis=1)
    # Kernel-sum oracle at the two mode cells: both kernels contribute equally.
    xs, ys = L.kde_grid(pts, g, 0.5, L.KDE_PAD_BANDWIDTHS)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(1, 12), st.floats(0.5, 5.0), st.integers(0, 2**32 - 1))
def test_kde_separable_equals_direct_kernel_sum(n, grid, bandwidth, seed):
    # Points in [-3, 3] and bandwidth >= 0.5 keep every kernel value above
    # exp(-324), far from underflow, so the relative check holds everywhere.
    pts = make_rng(seed).uniform(-3.0, 3.0, (n, 2))
    xs, ys = L.kde_grid(pts, grid, bandwidth, L.KDE_PAD_BANDWIDTHS)
    direct = np.array([[np.exp(-((x - pts[:, 0]) ** 2 + (y - pts[:, 1]) ** 2) / (2 * bandwidth**2)).sum()
                        for y in ys] for x in xs])
    np.testing.assert_allclose(L.kde_density(pts, grid, bandwidth, L.KDE_PAD_BANDWIDTHS),
                               direct / direct.sum(), rtol=1e-9)


def test_kde_rejects_points_that_are_not_n_by_2():
    with pytest.raises(ShapeError):
        L.kde_density(np.zeros((4, 3)), L.KDE_GRID_SIZE, 1.0, L.KDE_PAD_BANDWIDTHS)


def test_kde_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        L.kde_density(np.zeros((3, 2)), L.KDE_GRID_SIZE, 0.0, L.KDE_PAD_BANDWIDTHS)


# ---------------------------------------------------------------------------
# uniformity_metrics
# ---------------------------------------------------------------------------

def test_uniform_density_perfect_scores():
    stats = L.uniformity_metrics(np.full(64, 1.0 / 64))
    assert stats["density_cv"] == pytest.approx(0.0, abs=1e-9)
    assert stats["gini"] == pytest.approx(0.0, abs=1e-9)
    assert stats["norm_entropy"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 5, 64])
def test_point_mass_closed_forms(n):
    d = np.zeros(n)
    d[n // 2] = 3.7
    stats = L.uniformity_metrics(d)
    assert stats["gini"] == pytest.approx((n - 1) / n, abs=1e-9)
    assert stats["norm_entropy"] == pytest.approx(0.0, abs=1e-9)


def test_hand_computed_two_cell_case():
    stats = L.uniformity_metrics(np.array([1.0, 3.0]))
    assert stats["density_cv"] == pytest.approx(0.5, abs=1e-9)
    assert stats["gini"] == pytest.approx(0.25, abs=1e-9)
    expected_entropy = (-0.25 * np.log(0.25) - 0.75 * np.log(0.75)) / np.log(2)
    assert stats["norm_entropy"] == pytest.approx(expected_entropy, abs=1e-9)
    assert stats["norm_entropy"] == pytest.approx(0.8113, abs=1e-4)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=2, max_size=32),
    st.floats(0.001, 1000.0),
)
def test_gini_scale_invariance(values, factor):
    d = np.array(values)
    a = L.uniformity_metrics(d)["gini"]
    b = L.uniformity_metrics(d * factor)["gini"]
    assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.floats(0.1, 5.0))
def test_entropy_strictly_below_one_off_uniform(idx, bump):
    d = np.ones(16)
    d[idx] += bump
    assert L.uniformity_metrics(d)["norm_entropy"] < 1.0


def test_all_zero_densities_rejected():
    with pytest.raises(L.UndefinedMetricsError):
        L.uniformity_metrics(np.zeros(16))


def test_analyze_latents_deterministic():
    rng = make_rng(4)
    vecs = rng.standard_normal((64, 12))
    a = L.analyze_latents(vecs, grid_size=16)
    b = L.analyze_latents(vecs, grid_size=16)
    assert a == b
    assert a["n_points"] == 64 and a["grid_size"] == 16


# ---------------------------------------------------------------------------
# commutation_residuals
# ---------------------------------------------------------------------------

TINY = TokenizerConfig(image_size=8, patch=4, enc_layers=1, dec_layers=1, enc_width=8,
                       dec_width=8, heads=2, latent_dim=4, scales=(1, 2), seed=3)


def residuals_of(seed):
    model = init_model(TINY)
    x = Tensor(make_rng(seed).uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32))
    px, _ = model.reconstruct(x, deterministic=True)
    return L.commutation_residuals(px.data, model.schedule, TINY.patch)


def test_commutation_residual_top_level_zero():
    assert residuals_of(5)[-1] == 0.0


def test_commutation_residual_untrained_finite():
    r = residuals_of(6)[0]
    assert np.isfinite(r) and r >= 0.0


NON_DYADIC = build_schedule(6, [2, 3, 4, 6])


def test_commutation_residual_equals_image_space_formula():
    px = make_rng(8).uniform(-1, 1, (3, NON_DYADIC.total, 12)).astype(np.float32)
    images = tokens_to_images(px, NON_DYADIC, 2)
    top = Tensor(images[-1])
    want = []
    for level in images:
        side = level.shape[-1]
        pooled = area_pool(top, side, side).data
        num = np.linalg.norm((level - pooled).reshape(3, -1), axis=1)
        den = np.linalg.norm(pooled.reshape(3, -1), axis=1)
        want.append(float((num / (den + 1e-8)).mean()))
    got = L.commutation_residuals(px, NON_DYADIC, 2)
    np.testing.assert_allclose(got, want, rtol=1e-5)
    assert got[-1] == 0.0


def test_commutation_residual_zero_for_pooled_top():
    # Coarse tokens that are the patchified pooled top decode commute exactly.
    top = make_rng(9).uniform(-1, 1, (2, 3, 12, 12)).astype(np.float32)
    px = image_pyramid(top, NON_DYADIC, 2)
    assert L.commutation_residuals(px, NON_DYADIC, 2) == [0.0] * NON_DYADIC.num_scales


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


def test_latent_dump_header_larger_than_file(tmp_path):
    # count = dim = 0xFFFFFFFF claims about 7e19 bytes; the 76-byte file is
    # rejected before any read is sized from the header.
    path = tmp_path / "huge.hlat"
    path.write_bytes(b"HLAT" + b"\xff" * 8 + b"\x00" * 64)
    with pytest.raises(L.LatentFormatError, match="claims 4294967295 x 4294967295"):
        L.read_latents(str(path))


@pytest.mark.parametrize("extra", [-4, 1])
def test_latent_dump_size_mismatch(tmp_path, extra):
    path = tmp_path / "odd.hlat"
    L.write_latents(np.ones((3, 2), dtype=np.float32), str(path))
    blob = Path(path).read_bytes()
    path.write_bytes(blob[:extra] if extra < 0 else blob + b"\x00" * extra)
    with pytest.raises(L.LatentFormatError):
        L.read_latents(str(path))


def hlat_by_copy(vectors) -> bytes:
    """HLAT bytes encoded from a whole-array copy of the payload."""
    arr = np.ascontiguousarray(np.asarray(vectors, dtype="<f4"))
    return b"HLAT" + struct.pack("<II", *arr.shape) + arr.tobytes()


@pytest.mark.parametrize("layout", ["<f4", "<f8", "fortran", ">f4", "strided"])
def test_write_latents_bytes_match_copying_encoder(tmp_path, layout):
    vecs = make_rng(8).standard_normal((7, 10))
    vecs = {"<f4": vecs.astype("<f4"), "<f8": vecs.astype("<f8"), ">f4": vecs.astype(">f4"),
            "fortran": np.asfortranarray(vecs.astype("<f4")), "strided": vecs.astype("<f4")[:, ::2]}[layout]
    path = tmp_path / "latents.hlat"
    L.write_latents(vecs, str(path))
    assert path.read_bytes() == hlat_by_copy(vecs)


def test_write_latents_copies_no_float32_payload(tmp_path):
    vecs = np.ones((2048, 1024), dtype="<f4")  # 8 MB
    tracemalloc.start()
    try:
        L.write_latents(vecs, str(tmp_path / "latents.hlat"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_write_latents_rejects_non_2d(tmp_path):
    with pytest.raises(ShapeError):
        L.write_latents(np.zeros(5), str(tmp_path / "flat.hlat"))
