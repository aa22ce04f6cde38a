import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from mstok import model as model_module
from mstok.attention import masked_mha
from mstok.cli import main
from mstok.config import RunConfig, TokenizerConfig
from mstok.losses import multiscale_loss
from mstok.model import CheckpointError, LatentCode, init_model, load_checkpoint, save_checkpoint
from mstok.pyramid import averaging_kernel, downsample_conv, downsample_interp, image_pyramid, tokens_to_images
from mstok.tensor import ShapeError, Tensor, make_rng, named_tensors, replica

TINY = TokenizerConfig(image_size=8, patch=4, enc_layers=1, dec_layers=1, enc_width=8,
                       dec_width=8, heads=2, latent_dim=4, scales=(1, 2), seed=0)


def rand_image(rng, cfg, batch=1):
    shape = (batch, 3, cfg.image_size, cfg.image_size)
    return Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32))


def images_of(model, px):
    """The per-scale images, low to high, of a decode's pixel tokens."""
    return tokens_to_images(px.data, model.schedule, model.config.patch)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_grid_side_32px_patch4():
    cfg = TokenizerConfig()
    model = init_model(cfg)
    code = model.encode(rand_image(make_rng(0), cfg, batch=2))
    assert code.mu.shape == (2, 8, 8, cfg.latent_dim)
    assert code.logvar.shape == code.mu.shape


def test_encode_paper_scale_token_count():
    cfg = TokenizerConfig(image_size=256, patch=16, enc_layers=1, dec_layers=1, enc_width=8,
                          dec_width=8, heads=2, latent_dim=4, scales=(1, 2, 4, 8, 16))
    model = init_model(cfg)
    assert cfg.schedule().base_grid ** 2 == 256
    code = model.encode(rand_image(make_rng(1), cfg))
    assert code.mu.shape == (1, 16, 16, 4)


def test_encode_deterministic():
    model = init_model(TINY)
    x = rand_image(make_rng(2), TINY)
    a = model.encode(x)
    b = model.encode(x)
    np.testing.assert_array_equal(a.mu.data, b.mu.data)
    np.testing.assert_array_equal(a.logvar.data, b.logvar.data)


def test_encode_shape_mismatch():
    model = init_model(TINY)
    with pytest.raises(ShapeError):
        model.encode(Tensor(np.zeros((1, 3, 16, 16))))


# Each call takes its input with the leading batch shape ``b`` prepended
# (TINY: 8 px images, base grid 2, latent_dim 4, width 8, 5 decoder tokens).
BATCH_FIRST_CALLS = {
    "encode": lambda m, b: m.encode(Tensor(np.zeros(b + (3, 8, 8)))),
    "decode_pyramid": lambda m, b: m.decode_pyramid(Tensor(np.zeros(b + (2, 2, 4)))),
    "reconstruct": lambda m, b: m.reconstruct(Tensor(np.zeros(b + (3, 8, 8)))),
    "downsample_interp": lambda m, b: downsample_interp(Tensor(np.zeros(b + (2, 2, 8))), m.schedule),
    "downsample_conv": lambda m, b: downsample_conv({1: [Tensor(averaging_kernel(8))]},
                                                    Tensor(np.zeros(b + (2, 2, 8))), m.schedule),
    "image_pyramid": lambda m, b: image_pyramid(Tensor(np.zeros(b + (3, 8, 8))), m.schedule, 4),
    "masked_mha": lambda m, b: masked_mha(Tensor(np.zeros(b + (5, 8))), m.dec[0].attn, 2, m.mask),
}


@pytest.mark.parametrize("name", list(BATCH_FIRST_CALLS))
def test_unbatched_input_raises_shape_error(name):
    model = init_model(TINY)
    BATCH_FIRST_CALLS[name](model, (1,))  # the batched form is accepted
    with pytest.raises(ShapeError):
        BATCH_FIRST_CALLS[name](model, ())


# ---------------------------------------------------------------------------
# sample_latent
# ---------------------------------------------------------------------------

def test_sample_deterministic_is_mu():
    model = init_model(TINY)
    code = model.encode(rand_image(make_rng(3), TINY))
    z = model.sample_latent(code, deterministic=True)
    assert z is code.mu


def test_sample_clamped_logvar_collapses_to_mu():
    model = init_model(TINY)
    mu = Tensor(make_rng(4).standard_normal((1, 2, 2, 4)).astype(np.float32))
    code = LatentCode(mu=mu, logvar=Tensor(np.full(mu.shape, -30.0, dtype=np.float32)))
    z = model.sample_latent(code, rng=make_rng(5), deterministic=False)
    np.testing.assert_allclose(z.data, mu.data, atol=1e-5)


def test_sample_mean_matches_mu_monte_carlo():
    model = init_model(TINY)
    mu_val, logvar_val = 0.7, 0.4
    n = 10000
    mu = Tensor(np.full((n, 1, 1, 1), mu_val, dtype=np.float64))
    code = LatentCode(mu=mu, logvar=Tensor(np.full(mu.shape, logvar_val, dtype=np.float64)))
    z = model.sample_latent(code, rng=make_rng(6), deterministic=False)
    sigma = np.exp(logvar_val / 2)
    assert abs(z.data.mean() - mu_val) < 3 * sigma / np.sqrt(n)


# ---------------------------------------------------------------------------
# decode_pyramid / reconstruct
# ---------------------------------------------------------------------------

def test_decoder_token_count_paper_grids():
    cfg = TokenizerConfig(image_size=256, patch=16, enc_layers=1, dec_layers=1, enc_width=8,
                          dec_width=8, heads=2, latent_dim=4, scales=(1, 2, 4, 8, 16))
    model = init_model(cfg)
    assert model.schedule.total == 341
    assert model.mask.allow.shape == (341, 341)
    z = Tensor(make_rng(7).standard_normal((1, 16, 16, 4)).astype(np.float32))
    images = images_of(model, model.decode_pyramid(z))
    assert [im.shape[-1] for im in images] == [16, 32, 64, 128, 256]


def test_reconstruct_top_scale_shape():
    model = init_model(TINY)
    x = rand_image(make_rng(8), TINY, batch=2)
    px, code = model.reconstruct(x)
    assert images_of(model, px)[-1].shape == x.shape
    assert isinstance(code, LatentCode)


def test_reconstruct_no_grad_bit_identical():
    cfg = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=2, enc_width=16,
                          dec_width=16, heads=2, latent_dim=4, scales=(1, 2, 4), seed=3)
    model = init_model(cfg)
    x = rand_image(make_rng(16), cfg, batch=2)
    graph_out, graph_code = model.reconstruct(x)
    free_out, free_code = replica(model, requires_grad=False).reconstruct(x)
    assert graph_out.requires_grad and not free_out.requires_grad
    for a, b in zip(images_of(model, graph_out), images_of(model, free_out)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(graph_code.mu.data, free_code.mu.data)
    np.testing.assert_array_equal(graph_code.logvar.data, free_code.logvar.data)


def test_no_grad_halves_reconstruct_peak_memory():
    import tracemalloc

    model = init_model(TokenizerConfig())
    graph_free = replica(model, requires_grad=False)
    x = rand_image(make_rng(17), model.config, batch=8)

    def peak(m) -> int:
        tracemalloc.start()
        try:
            out = m.reconstruct(x)  # on ``model``, ``out`` keeps the graph alive
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    graph_peak, free_peak = peak(model), peak(graph_free)
    assert free_peak < graph_peak / 2, (free_peak, graph_peak)


def test_backward_frees_training_graph():
    import tracemalloc

    model = init_model(TokenizerConfig())
    x = rand_image(make_rng(18), model.config, batch=8)
    rng = make_rng(19)

    def forward():
        px, code = model.reconstruct(x, deterministic=False, rng=rng, training=True)
        targets = image_pyramid(x, model.schedule, model.config.patch)
        return multiscale_loss(px, targets, model.schedule, RunConfig(), code)[0]

    tracemalloc.start()
    try:
        loss = forward()
        after_forward = tracemalloc.get_traced_memory()[0]
        loss.backward()  # ``loss`` stays referenced, as in the training loop
        after_backward = tracemalloc.get_traced_memory()[0]
        loss = forward()  # the second step's forward runs while the first loss lives
        loss.backward()
        two_step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert after_backward < after_forward / 10, (after_backward, after_forward)
    assert two_step_peak < 1.5 * after_forward, (two_step_peak, after_forward)


def test_zero_pixel_head_outputs_bias():
    model = init_model(TINY)
    model.pixel_head.weight.data[:] = 0.0
    model.pixel_head.bias.data[:] = 0.3
    px, _ = model.reconstruct(rand_image(make_rng(9), TINY))
    for im in images_of(model, px):
        np.testing.assert_allclose(im, 0.3, atol=1e-7)


def test_decoder_causality_scale_causal():
    # Perturbing a higher-scale token map leaves lower-scale pixels bit-equal.
    cfg = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=2, enc_width=16,
                          dec_width=16, heads=4, latent_dim=4, scales=(1, 2, 4),
                          regime="scalecausal", seed=1)
    model = init_model(cfg)
    rng = make_rng(10)
    sched = model.schedule
    tokens = Tensor(rng.standard_normal((1, sched.total, 16)).astype(np.float32))
    base = images_of(model, model.decode_levels(tokens))

    for s_perturbed in range(1, 3):
        bumped = Tensor(tokens.data.copy())
        start, n = sched.offsets()[s_perturbed], sched.counts[s_perturbed]
        bumped.data[:, start:start + n] += rng.standard_normal((1, n, 16)).astype(np.float32)
        out = images_of(model, model.decode_levels(bumped))
        for s_low in range(s_perturbed):
            np.testing.assert_array_equal(out[s_low], base[s_low])


def test_decoder_isolation_scale_independent():
    cfg = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=2, enc_width=16,
                          dec_width=16, heads=4, latent_dim=4, scales=(1, 2, 4),
                          regime="scaleindependent", seed=1)
    model = init_model(cfg)
    rng = make_rng(11)
    sched = model.schedule
    tokens = Tensor(rng.standard_normal((1, sched.total, 16)).astype(np.float32))
    base = images_of(model, model.decode_levels(tokens))
    bumped = Tensor(tokens.data.copy())
    bumped.data[:, sched.offsets()[1]:sched.offsets()[2]] += 1.0
    out = images_of(model, model.decode_levels(bumped))
    np.testing.assert_array_equal(out[0], base[0])
    np.testing.assert_array_equal(out[2], base[2])
    assert not np.array_equal(out[1], base[1])


# ---------------------------------------------------------------------------
# latent_for_generation
# ---------------------------------------------------------------------------

def test_latent_for_generation_single_scale_shape():
    x = rand_image(make_rng(12), TINY)
    multi = init_model(TINY)
    single = init_model(TokenizerConfig(**{**TINY.__dict__, "scales": (2,)}))
    z_multi = multi.latent_for_generation(x)
    z_single = single.latent_for_generation(x)
    assert z_multi.shape == z_single.shape == (1, 2, 2, 4)


def test_latent_for_generation_ignores_decoder_settings():
    x = rand_image(make_rng(13), TINY)
    variants = [
        TINY,
        TokenizerConfig(**{**TINY.__dict__, "regime": "full"}),
        TokenizerConfig(**{**TINY.__dict__, "downsample_mode": "conv"}),
    ]
    outputs = [init_model(v).latent_for_generation(x).data for v in variants]
    np.testing.assert_array_equal(outputs[0], outputs[1])
    np.testing.assert_array_equal(outputs[0], outputs[2])


# ---------------------------------------------------------------------------
# init / parameters / checkpoints
# ---------------------------------------------------------------------------

def test_parameter_shapes_pure_function_of_config():
    a = init_model(TokenizerConfig(**{**TINY.__dict__, "seed": 1}))
    b = init_model(TokenizerConfig(**{**TINY.__dict__, "seed": 2}))
    pa, pb = named_tensors(a), named_tensors(b)
    assert list(pa) == list(pb)
    for name in pa:
        assert pa[name].shape == pb[name].shape


def test_init_model_deterministic():
    a = named_tensors(init_model(TINY))
    b = named_tensors(init_model(TINY))
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)


@pytest.mark.parametrize("cfg, digest", [
    (TokenizerConfig(), "e639c19e2550793aa35dc4bb9887b5f2d5e0a577540e3e4caffd3e55ea2f41bd"),
    (TokenizerConfig(image_size=64, scales=(1, 2, 4, 8, 16)),
     "1b4905badb27e95f1e3fc7eb1afc34714c0167ad68bf8831a9b4e4b4d2642351"),
    (TokenizerConfig(seed=7, downsample_mode="conv"),
     "5991db993c544099ccb45169a5903d136001887ead20cfa9da34a7a8fce45d4f"),
], ids=["default", "64px_5_scales", "seed7_conv"])
def test_init_model_parameters_are_pinned(cfg, digest):
    # The digests of the scipy.special.ndtri init: the AS241 inverse CDF
    # must draw the same float32 bits.
    h = hashlib.sha256()
    for name, param in named_tensors(init_model(cfg)).items():
        h.update(name.encode())
        h.update(param.data.tobytes())
    assert h.hexdigest() == digest


def test_conv_mode_has_averaging_chains():
    cfg = TokenizerConfig(image_size=32, patch=4, scales=(1, 2, 4, 8), downsample_mode="conv")
    model = init_model(cfg)
    assert sorted(model.down) == [1, 2, 4]
    assert [len(model.down[g]) for g in (1, 2, 4)] == [3, 2, 1]
    x = rand_image(make_rng(14), cfg)
    interp = init_model(TokenizerConfig(**{**cfg.__dict__, "downsample_mode": "interp"}))
    out_conv, _ = model.reconstruct(x)
    out_interp, _ = interp.reconstruct(x)
    for a, b in zip(images_of(model, out_conv), images_of(interp, out_interp)):
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = init_model(TINY)
    x = rand_image(make_rng(15), TINY)
    before, _ = model.reconstruct(x)
    path = str(tmp_path / "model.htok")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == TINY
    after, _ = loaded.reconstruct(x)
    for a, b in zip(images_of(model, before), images_of(loaded, after)):
        np.testing.assert_array_equal(a, b)
    pa, pb = named_tensors(model), named_tensors(loaded)
    for name in pa:
        np.testing.assert_array_equal(pa[name].data, pb[name].data)


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    # The loader overwrites every parameter from its record, so it builds
    # the tree without the init's draws; the result is still bit-equal.
    cfg = TokenizerConfig(**{**TINY.__dict__, "downsample_mode": "conv"})
    model = init_model(cfg)
    path = str(tmp_path / "model.htok")
    save_checkpoint(model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an init weight")

    monkeypatch.setattr(model_module, "trunc_normal", no_draws)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    pa, pb = named_tensors(model), named_tensors(loaded)
    assert list(pa) == list(pb)
    for name in pa:
        assert pb[name].requires_grad and pb[name].data.dtype == np.float32
        np.testing.assert_array_equal(pa[name].data, pb[name].data)


def _record_names(path):
    """The parameter record names of an HTOK v1 file, in file order."""
    blob = Path(path).read_bytes()
    (config_len,) = struct.unpack_from("<I", blob, 8)
    offset = 12 + config_len
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    names = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        names.append(blob[offset + 2 : offset + 2 + name_len].decode("utf-8"))
        offset += 2 + name_len
        (rank,) = struct.unpack_from("<I", blob, offset)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 4)
        offset += 4 + 4 * rank + 4 * int(np.prod(dims))
    assert offset == len(blob)
    return names


def test_checkpoint_record_names_pinned(tmp_path):
    # The on-disk HTOK v1 layout: any change here breaks every saved checkpoint.
    cfg = TokenizerConfig(**{**TINY.__dict__, "image_size": 16, "scales": (1, 2, 4), "downsample_mode": "conv"})
    path = str(tmp_path / "model.htok")
    save_checkpoint(init_model(cfg), path)
    assert _record_names(path) == [
        "patch_embed.kernel", "patch_embed.bias", "enc_pos",
        "enc.0.ln1.gain", "enc.0.ln1.bias", "enc.0.attn.wq", "enc.0.attn.wk", "enc.0.attn.wv",
        "enc.0.attn.wo", "enc.0.ln2.gain", "enc.0.ln2.bias", "enc.0.mlp.fc1", "enc.0.mlp.fc2",
        "enc_norm.gain", "enc_norm.bias",
        "latent_head.weight", "latent_head.bias", "latent_proj.weight", "latent_proj.bias",
        "down.1.0", "down.1.1", "down.2.0",
        "pe.spatial", "pe.scale",
        "dec.0.ln1.gain", "dec.0.ln1.bias", "dec.0.attn.wq", "dec.0.attn.wk", "dec.0.attn.wv",
        "dec.0.attn.wo", "dec.0.ln2.gain", "dec.0.ln2.bias", "dec.0.mlp.fc1", "dec.0.mlp.fc2",
        "dec_norm.gain", "dec_norm.bias",
        "pixel_head.weight", "pixel_head.bias",
    ]


def test_checkpoint_failed_write_keeps_previous(tmp_path):
    model = init_model(TINY)
    path = str(tmp_path / "model.htok")
    save_checkpoint(model, path)
    blob = Path(path).read_bytes()
    # A parameter that cannot be encoded makes the write fail after the
    # header and the earlier records have gone out.
    model.dec_norm.gain.data = np.array(["not a float"] * TINY.dec_width)
    with pytest.raises(ValueError):
        save_checkpoint(model, path)
    assert Path(path).read_bytes() == blob
    assert load_checkpoint(path).config == TINY
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.htok"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.htok"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_truncated(tmp_path):
    model = init_model(TINY)
    path = str(tmp_path / "model.htok")
    save_checkpoint(model, path)
    blob = Path(path).read_bytes()
    trunc = str(tmp_path / "trunc.htok")
    with open(trunc, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(trunc)


def test_checkpoint_huge_rank_is_a_checkpoint_error(tmp_path):
    # A first record claiming rank 0xFFFFFFFF asks for 16 GiB of dims; the
    # reader must see that the file does not hold them before reading.
    path = str(tmp_path / "model.htok")
    save_checkpoint(init_model(TINY), path)
    blob = bytearray(Path(path).read_bytes())
    (config_len,) = struct.unpack_from("<I", blob, 8)
    name_at = 12 + config_len + 4
    (name_len,) = struct.unpack_from("<H", blob, name_at)
    struct.pack_into("<I", blob, name_at + 2 + name_len, 0xFFFFFFFF)
    corrupt = tmp_path / "rank.htok"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="dims"):
        load_checkpoint(str(corrupt))
    assert main(["reconstruct", str(corrupt), str(tmp_path), str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("good, bad", [
    (b"seed=0", b"seed=x"),        # value that does not parse
    (b"seed=0", b"sexd=0"),        # unknown key
    (b"heads=2", b"heads=3"),      # fails validation
])
def test_checkpoint_bad_embedded_config(tmp_path, good, bad):
    model = init_model(TINY)
    path = str(tmp_path / "model.htok")
    save_checkpoint(model, path)
    blob = Path(path).read_bytes()
    assert blob.count(good) == 1
    corrupt = tmp_path / "corrupt.htok"
    corrupt.write_bytes(blob.replace(good, bad))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(corrupt))


@pytest.mark.parametrize("bad", [
    b"enc.0.ln1.gain",       # the gain record repeats; the bias record is missing
    b"enc.0.ln1.bia\xff",    # a name that is not valid UTF-8
])
def test_checkpoint_bad_record_name(tmp_path, capsys, bad):
    model = init_model(TINY)
    path = str(tmp_path / "model.htok")
    save_checkpoint(model, path)
    blob = Path(path).read_bytes()
    assert blob.count(b"enc.0.ln1.bias") == 1
    corrupt = str(tmp_path / "corrupt.htok")
    with open(corrupt, "wb") as fh:
        fh.write(blob.replace(b"enc.0.ln1.bias", bad))
    with pytest.raises(CheckpointError):
        load_checkpoint(corrupt)
    assert main(["reconstruct", corrupt, str(tmp_path), str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("data error:")
