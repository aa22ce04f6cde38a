import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import pyramid as P
from mstok.tensor import ConfigError, ShapeError, Tensor, area_pool, make_rng


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
    with pytest.raises(ConfigError):
        P.build_schedule(4, [2, 2, 4])
    with pytest.raises(ConfigError):
        P.build_schedule(4, [4, 2])


def test_schedule_rejects_base_mismatch():
    with pytest.raises(ConfigError):
        P.build_schedule(16, [1, 2, 8])


def test_schedule_rejects_empty():
    with pytest.raises(ConfigError):
        P.build_schedule(4, [])


def blocks(seq, sched):
    """Split a ``... x T x d`` token sequence into its ``... x g x g x d`` scale blocks."""
    lead, d = seq.shape[:-2], seq.shape[-1]
    return [seq.data[..., start:start + n, :].reshape(lead + (g, g, d))
            for g, start, n in zip(sched.grids, sched.offsets(), sched.counts)]


def pooled_levels(z, sched):
    """Reference pyramid: each level of a batch x g x g x d map area-pooled on its own."""
    nchw = Tensor(np.moveaxis(z, -1, 1))
    return [np.moveaxis(area_pool(nchw, g, g).data, 1, -1) for g in sched.grids]


# ---------------------------------------------------------------------------
# downsample_interp
# ---------------------------------------------------------------------------

def test_interp_constant_map_constant_levels():
    sched = P.build_schedule(4, [1, 2, 4])
    z = Tensor(np.full((1, 4, 4, 3), 1.5))
    seq = P.downsample_interp(z, sched)
    assert seq.shape == (1, sched.total, 3)
    np.testing.assert_allclose(seq.data, 1.5, rtol=1e-6)


def test_interp_level1_is_block_mean():
    sched = P.build_schedule(2, [1, 2])
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    z = Tensor(np.array([[[[a], [b]], [[c], [d]]]]))
    seq = P.downsample_interp(z, sched)
    assert seq.data[0, 0, 0] == (a + b + c + d) / 4


def test_interp_degenerate_schedule_identity():
    sched = P.build_schedule(16, [16])
    z = Tensor(make_rng(0).standard_normal((1, 16, 16, 4)).astype(np.float32))
    seq = P.downsample_interp(z, sched)
    np.testing.assert_array_equal(seq.data, z.data.reshape(1, 256, 4))


def test_interp_shape_mismatch():
    sched = P.build_schedule(4, [1, 4])
    with pytest.raises(ShapeError):
        P.downsample_interp(Tensor(np.zeros((1, 8, 8, 3))), sched)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_interp_levels_preserve_global_mean(seed):
    # Integral dyadic blocks: each level's mean equals the base map's mean.
    sched = P.build_schedule(8, [1, 2, 4, 8])
    z = make_rng(seed).integers(-4, 5, size=(1, 8, 8, 2)).astype(np.float64)
    seq = P.downsample_interp(Tensor(z), sched)
    base_mean = z.mean()
    for level in blocks(seq, sched):
        assert level.mean() == pytest.approx(base_mean, abs=1e-12)


def test_interp_sequence_is_per_level_area_pool_non_dyadic():
    sched = P.build_schedule(6, [2, 3, 4, 6])
    z = make_rng(8).standard_normal((2, 6, 6, 5))
    levels = blocks(P.downsample_interp(Tensor(z), sched), sched)
    for level, ref in zip(levels, pooled_levels(z, sched)):
        np.testing.assert_allclose(level, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(levels[-1], z)


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
    conv_seq = P.downsample_conv(make_avg_chains(sched, 3), z, sched)
    interp_seq = P.downsample_interp(z, sched)
    np.testing.assert_allclose(conv_seq.data, interp_seq.data, rtol=1e-10, atol=1e-12)


def test_conv_zero_kernels_zero_levels():
    sched = P.build_schedule(4, [2, 4])
    chains = {2: [Tensor(np.zeros((3, 3, 2, 2)))]}
    z = Tensor(make_rng(3).standard_normal((1, 4, 4, 3)).astype(np.float32))
    levels = blocks(P.downsample_conv(chains, z, sched), sched)
    np.testing.assert_array_equal(levels[0], 0.0)
    np.testing.assert_array_equal(levels[1], z.data)


def test_conv_single_scale_no_kernels():
    sched = P.build_schedule(8, [8])
    z = Tensor(make_rng(4).standard_normal((1, 8, 8, 2)).astype(np.float32))
    seq = P.downsample_conv({}, z, sched)
    np.testing.assert_array_equal(seq.data, z.data.reshape(1, 64, 2))


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
    pe = P.PEParams(spatial=spatial, scale=Tensor(np.zeros((2, 6))))
    sched = P.build_schedule(4, [2, 4])
    levels = blocks(P.positional_encoding(pe, sched), sched)
    np.testing.assert_array_equal(levels[1], spatial.data)


def test_pe_zero_spatial_is_broadcast_embedding():
    scale = Tensor(make_rng(6).standard_normal((2, 6)).astype(np.float32))
    pe = P.PEParams(spatial=Tensor(np.zeros((4, 4, 6))), scale=scale)
    sched = P.build_schedule(4, [2, 4])
    levels = blocks(P.positional_encoding(pe, sched), sched)
    for s, level in enumerate(levels):
        np.testing.assert_array_equal(level, np.broadcast_to(scale.data[s], level.shape))


def test_pe_constant_plus_embedding():
    c, v = 0.75, -0.25
    pe = P.PEParams(spatial=Tensor(np.full((4, 4, 3), c)), scale=Tensor(np.full((2, 3), v)))
    sched = P.build_schedule(4, [1, 4])
    np.testing.assert_allclose(P.positional_encoding(pe, sched).data, c + v, rtol=1e-6)


def test_pe_is_pooled_spatial_plus_scale_embedding_non_dyadic():
    rng = make_rng(9)
    sched = P.build_schedule(6, [2, 3, 4, 6])
    pe = P.PEParams(spatial=Tensor(rng.standard_normal((6, 6, 5))), scale=Tensor(rng.standard_normal((4, 5))))
    levels = blocks(P.positional_encoding(pe, sched), sched)
    refs = pooled_levels(pe.spatial.data[None], sched)
    for level, ref, emb in zip(levels, refs, pe.scale.data):
        np.testing.assert_allclose(level, ref[0] + emb, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# image_pyramid
# ---------------------------------------------------------------------------

def image_levels(x, sched, patch):
    return P.tokens_to_images(P.image_pyramid(x, sched, patch), sched, patch)


def test_image_pyramid_top_level_unchanged():
    sched = P.build_schedule(8, [2, 8])
    x = Tensor(make_rng(7).standard_normal((1, 3, 32, 32)).astype(np.float32))
    levels = image_levels(x, sched, patch=4)
    assert levels[0].shape == (1, 3, 8, 8)
    np.testing.assert_array_equal(levels[-1], x.data)


def test_image_pyramid_constant():
    sched = P.build_schedule(4, [1, 2, 4])
    x = Tensor(np.full((1, 3, 16, 16), -0.5))
    for level in image_levels(x, sched, patch=4):
        np.testing.assert_allclose(level, -0.5, rtol=1e-6)


def test_image_pyramid_checkerboard_global_mean():
    sched = P.build_schedule(8, [1, 8])
    board = np.indices((8, 8)).sum(axis=0) % 2
    x = Tensor(np.broadcast_to(board, (1, 3, 8, 8)).astype(np.float64).copy())
    levels = image_levels(x, sched, patch=1)
    np.testing.assert_allclose(levels[0], 0.5)


def test_image_pyramid_size_mismatch():
    sched = P.build_schedule(8, [8])
    with pytest.raises(ShapeError):
        P.image_pyramid(Tensor(np.zeros((1, 3, 16, 16))), sched, patch=4)


@pytest.mark.parametrize("grids", [(2, 3, 4, 6), (1, 2, 4, 8)])
def test_image_pyramid_tokens_are_per_level_area_pool(grids):
    # The pixel-token layout, pinned: each level of the token array turns back
    # into the image batch area-pooled on its own; the base level is the image.
    sched = P.build_schedule(grids[-1], grids)
    patch = 2
    side = grids[-1] * patch
    x = make_rng(21).standard_normal((2, 3, side, side))
    px = P.image_pyramid(x, sched, patch)
    assert px.shape == (2, sched.total, 3 * patch * patch)
    levels = P.tokens_to_images(px, sched, patch)
    for g, level in zip(grids, levels):
        ref = area_pool(Tensor(x), g * patch, g * patch).data
        np.testing.assert_allclose(level, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(levels[-1], x)


def test_image_pyramid_builds_no_autograd_node(monkeypatch):
    from mstok import tensor

    real, nodes = tensor._result, []

    def recording(*args):
        out = real(*args)
        nodes.append(out._backward_fn is not None)
        return out

    monkeypatch.setattr(tensor, "_result", recording)
    sched = P.build_schedule(4, [1, 2, 4])
    x = Tensor(make_rng(22).standard_normal((1, 3, 8, 8)), requires_grad=True)
    assert isinstance(P.image_pyramid(x, sched, patch=2), np.ndarray)
    assert not any(nodes)


def test_tokens_to_images_matches_slice_reshape_transpose_assembly():
    # Reference: each scale block sliced, reshaped and transposed as graph ops.
    from mstok.config import TokenizerConfig
    from mstok.model import init_model
    from mstok.tensor import reshape, slice_axis, transpose

    cfg = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=1, enc_width=8,
                          dec_width=8, heads=2, latent_dim=4, scales=(1, 2, 4), seed=2)
    model = init_model(cfg)
    sched, p = model.schedule, cfg.patch
    px = model.decode_pyramid(Tensor(make_rng(23).standard_normal((2, 4, 4, 4)).astype(np.float32)))
    for g, start, n, image in zip(sched.grids, sched.offsets(), sched.counts,
                                  P.tokens_to_images(px.data, sched, p)):
        tok = reshape(slice_axis(px, 1, start, start + n), (2, g, g, 3, p, p))
        ref = reshape(transpose(tok, (0, 3, 1, 4, 2, 5)), (2, 3, g * p, g * p))
        np.testing.assert_array_equal(image, ref.data)


def test_tokens_to_images_shape_mismatch():
    sched = P.build_schedule(4, [2, 4])
    with pytest.raises(ShapeError):
        P.tokens_to_images(np.zeros((1, 19, 12)), sched, patch=2)
    with pytest.raises(ShapeError):
        P.tokens_to_images(np.zeros((1, 20, 10)), sched, patch=2)


def test_segment_matrix_sums_each_scale_block():
    sched = P.build_schedule(3, [1, 3])
    seq = make_rng(24).standard_normal((2, sched.total, 4))
    sums = seq.reshape(2, -1) @ P.segment_matrix(sched, 4)
    for s, (start, n) in enumerate(zip(sched.offsets(), sched.counts)):
        np.testing.assert_allclose(sums[:, s], seq[:, start:start + n].sum(axis=(1, 2)), rtol=1e-12)
