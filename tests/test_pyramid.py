import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import pyramid as P
from mstok.tensor import ConfigError, ShapeError, Tensor, make_rng


def schedules():
    # Strictly ascending grids drawn from divisor-friendly values, last is base.
    return st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16]), min_size=1, max_size=5,
                    unique=True).map(lambda g: tuple(sorted(g)))


# ---------------------------------------------------------------------------
# build_schedule
# ---------------------------------------------------------------------------

def test_schedule_token_accounting_paper_configs():
    assert P.build_schedule(16, [1, 2, 4, 8, 16]).total == 341
    assert P.build_schedule(16, [16]).total == 256
    # Three extra scales (1, 2, 4) add 21 tokens beyond the base grid.
    assert P.build_schedule(16, [1, 2, 4, 16]).total - 256 == 21
    assert P.build_schedule(16, [1, 2, 4, 8, 12, 16]).total == 485


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_schedule_total_is_sum_of_squares(grids):
    sched = P.build_schedule(grids[-1], grids)
    assert sched.total == sum(g * g for g in grids)
    assert sched.counts == tuple(g * g for g in grids)


def test_schedule_rejects_non_ascending():
    with pytest.raises(P.ScheduleError):
        P.build_schedule(4, [2, 2, 4])
    with pytest.raises(P.ScheduleError):
        P.build_schedule(4, [4, 2])


def test_schedule_rejects_base_mismatch():
    with pytest.raises(P.ScheduleError):
        P.build_schedule(16, [1, 2, 8])


def test_schedule_rejects_empty():
    with pytest.raises(P.ScheduleError):
        P.build_schedule(4, [])


# ---------------------------------------------------------------------------
# downsample_interp
# ---------------------------------------------------------------------------

def test_interp_constant_map_constant_levels():
    sched = P.build_schedule(4, [1, 2, 4])
    z = Tensor(np.full((4, 4, 3), 1.5))
    pyr = P.downsample_interp(z, sched)
    for m in pyr:
        np.testing.assert_allclose(m.data, 1.5, rtol=1e-6)


def test_interp_level1_is_block_mean():
    sched = P.build_schedule(2, [1, 2])
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    z = Tensor(np.array([[[a], [b]], [[c], [d]]]))
    pyr = P.downsample_interp(z, sched)
    assert pyr[0].data[0, 0, 0] == (a + b + c + d) / 4


def test_interp_degenerate_schedule_identity():
    sched = P.build_schedule(16, [16])
    z = Tensor(make_rng(0).standard_normal((16, 16, 4)).astype(np.float32))
    pyr = P.downsample_interp(z, sched)
    assert len(pyr) == 1
    np.testing.assert_array_equal(pyr[0].data, z.data)


def test_interp_shape_mismatch():
    sched = P.build_schedule(4, [1, 4])
    with pytest.raises(ShapeError):
        P.downsample_interp(Tensor(np.zeros((8, 8, 3))), sched)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_interp_levels_preserve_global_mean(seed):
    # Integral dyadic blocks: each level's mean equals the base map's mean.
    sched = P.build_schedule(8, [1, 2, 4, 8])
    z = make_rng(seed).integers(-4, 5, size=(8, 8, 2)).astype(np.float64)
    pyr = P.downsample_interp(Tensor(z), sched)
    base_mean = z.mean()
    for m in pyr:
        assert m.data.mean() == pytest.approx(base_mean, abs=1e-12)


# ---------------------------------------------------------------------------
# downsample_conv
# ---------------------------------------------------------------------------

def make_avg_chains(sched, width):
    lengths = P.conv_chain_lengths(sched)
    return {g: [Tensor(P.averaging_kernel(width), requires_grad=True) for _ in range(n)]
            for g, n in lengths.items()}


def test_conv_chain_lengths():
    sched = P.build_schedule(16, [1, 2, 4, 8, 16])
    assert P.conv_chain_lengths(sched) == {1: 4, 2: 3, 4: 2, 8: 1}


def test_conv_with_averaging_kernels_equals_interp():
    sched = P.build_schedule(8, [1, 2, 4, 8])
    z = Tensor(make_rng(2).standard_normal((1, 8, 8, 3)).astype(np.float64))
    conv_pyr = P.downsample_conv(make_avg_chains(sched, 3), z, sched)
    interp_pyr = P.downsample_interp(z, sched)
    for a, b in zip(conv_pyr, interp_pyr):
        np.testing.assert_allclose(a.data, b.data, rtol=1e-10, atol=1e-12)


def test_conv_zero_kernels_zero_levels():
    sched = P.build_schedule(4, [2, 4])
    chains = {2: [Tensor(np.zeros((3, 3, 2, 2)))]}
    z = Tensor(make_rng(3).standard_normal((1, 4, 4, 3)).astype(np.float32))
    pyr = P.downsample_conv(chains, z, sched)
    np.testing.assert_array_equal(pyr[0].data, 0.0)
    np.testing.assert_array_equal(pyr[1].data, z.data)


def test_conv_single_scale_no_kernels():
    sched = P.build_schedule(8, [8])
    z = Tensor(make_rng(4).standard_normal((8, 8, 2)).astype(np.float32))
    pyr = P.downsample_conv({}, z, sched)
    assert len(pyr) == 1
    np.testing.assert_array_equal(pyr[0].data, z.data)


def test_conv_rejects_non_dyadic_schedule():
    sched = P.build_schedule(16, [1, 2, 4, 8, 12, 16])
    with pytest.raises(ConfigError) as err:
        P.conv_chain_lengths(sched)
    assert "interp" in str(err.value)


# ---------------------------------------------------------------------------
# positional_encoding
# ---------------------------------------------------------------------------

def test_pe_top_scale_with_zero_scale_embedding():
    spatial = Tensor(make_rng(5).standard_normal((4, 4, 6)).astype(np.float32))
    pe = P.PEParams(spatial=spatial, per_scale=Tensor(np.zeros((2, 6))))
    sched = P.build_schedule(4, [2, 4])
    levels = P.positional_encoding(pe, sched)
    np.testing.assert_array_equal(levels[1].data, spatial.data)


def test_pe_zero_spatial_is_broadcast_embedding():
    per_scale = Tensor(make_rng(6).standard_normal((2, 6)).astype(np.float32))
    pe = P.PEParams(spatial=Tensor(np.zeros((4, 4, 6))), per_scale=per_scale)
    sched = P.build_schedule(4, [2, 4])
    levels = P.positional_encoding(pe, sched)
    for s, level in enumerate(levels):
        np.testing.assert_array_equal(level.data, np.broadcast_to(per_scale.data[s], level.shape))


def test_pe_constant_plus_embedding():
    c, v = 0.75, -0.25
    pe = P.PEParams(spatial=Tensor(np.full((4, 4, 3), c)), per_scale=Tensor(np.full((2, 3), v)))
    sched = P.build_schedule(4, [1, 4])
    for level in P.positional_encoding(pe, sched):
        np.testing.assert_allclose(level.data, c + v, rtol=1e-6)


# ---------------------------------------------------------------------------
# image_pyramid
# ---------------------------------------------------------------------------

def test_image_pyramid_top_level_unchanged():
    sched = P.build_schedule(8, [2, 8])
    x = Tensor(make_rng(7).standard_normal((3, 32, 32)).astype(np.float32))
    levels = P.image_pyramid(x, sched, patch=4)
    assert levels[0].shape == (3, 8, 8)
    np.testing.assert_array_equal(levels[-1].data, x.data)


def test_image_pyramid_constant():
    sched = P.build_schedule(4, [1, 2, 4])
    x = Tensor(np.full((1, 3, 16, 16), -0.5))
    for level in P.image_pyramid(x, sched, patch=4):
        np.testing.assert_allclose(level.data, -0.5, rtol=1e-6)


def test_image_pyramid_checkerboard_global_mean():
    sched = P.build_schedule(8, [1, 8])
    board = np.indices((8, 8)).sum(axis=0) % 2
    x = Tensor(np.broadcast_to(board, (3, 8, 8)).astype(np.float64).copy())
    levels = P.image_pyramid(x, sched, patch=1)
    np.testing.assert_allclose(levels[0].data, 0.5)


def test_image_pyramid_size_mismatch():
    sched = P.build_schedule(8, [8])
    with pytest.raises(ShapeError):
        P.image_pyramid(Tensor(np.zeros((3, 16, 16))), sched, patch=4)
