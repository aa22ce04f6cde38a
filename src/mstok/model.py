"""The end-to-end tokenizer model.

Pipeline: patch-embed -> full-attention encoder -> Gaussian latent head ->
latent-to-width projection -> token pyramid, one low-to-high sequence, plus
positional encoding -> masked decoder -> shared pixel head, one batch x T x 3p²
pixel-token sequence (``pyramid.tokens_to_images`` makes its per-scale RGB
images). The patch embedding is ``conv2d`` on the image moved to
channel-last, and every token map after it is channel-last.
The latent lives at the base grid, before any downsampling, so generation-time
codes have single-scale shape. Inputs are batch-first: images are batch x 3 x
H x W and latents batch x g x g x d_z; an unbatched input raises ``ShapeError``.

A parameter's HTOK checkpoint record name is its dotted field path in
``TokenizerModel`` (``enc.0.attn.wq``, ``down.2.0``, ``pe.scale``; the keys
of ``tensor.named_tensors``), and the field order is the record order:
adding, renaming or moving a field is the whole edit to the checkpoint
layout.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionMask,
    AttentionParams,
    BlockParams,
    LayerNormParams,
    MlpParams,
    build_mask,
    transformer_block,
)
from .config import TokenizerConfig, config_from_kv, parse_kv_lines, tokenizer_config_to_kv
from .data import STREAM_INIT
from .pyramid import (
    PEParams,
    ScaleSchedule,
    averaging_kernel,
    conv_chain_lengths,
    downsample_conv,
    downsample_interp,
    positional_encoding,
)
from .tensor import (
    ConfigError,
    DataError,
    ShapeError,
    Tensor,
    add,
    as_tensor,
    clip,
    conv2d,
    layer_norm,
    make_rng,
    matmul,
    mul,
    named_tensors,
    reshape,
    scale,
    slice_axis,
    texp,
    transpose,
    trunc_normal,
)

CHECKPOINT_MAGIC = b"HTOK"
CHECKPOINT_VERSION = 1
LOGVAR_MIN, LOGVAR_MAX = -30.0, 20.0
MLP_RATIO = 4
LN_EPS = 1e-6
INIT_STD = 0.02


@dataclass
class LatentCode:
    """Per-token Gaussian parameters at the base grid (batch x g x g x d_z)."""

    mu: Tensor
    logvar: Tensor


@dataclass
class Conv:
    kernel: Tensor
    bias: Tensor


@dataclass
class Affine:
    weight: Tensor
    bias: Tensor


@dataclass
class TokenizerModel:
    config: TokenizerConfig
    schedule: ScaleSchedule
    mask: AttentionMask
    patch_embed: Conv
    enc_pos: Tensor
    enc: list[BlockParams]
    enc_norm: LayerNormParams
    latent_head: Affine
    latent_proj: Affine
    down: dict[int, list[Tensor]]
    pe: PEParams
    dec: list[BlockParams]
    dec_norm: LayerNormParams
    pixel_head: Affine

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------

    def encode(self, x) -> LatentCode:
        """Image batch in [-1, 1] -> Gaussian latent at the base grid."""
        x = _batched_image(x, self.config)
        cfg = self.config
        g = cfg.image_size // cfg.patch
        h = conv2d(transpose(x, (0, 2, 3, 1)), self.patch_embed.kernel)
        h = add(h, self.patch_embed.bias)
        h = add(h, self.enc_pos)
        h = reshape(h, (h.shape[0], g * g, cfg.enc_width))
        for blk in self.enc:
            h = transformer_block(h, blk, cfg.heads, mask=None, eps=LN_EPS)
        h = layer_norm(h, self.enc_norm.gain, self.enc_norm.bias, LN_EPS)
        lat = add(matmul(h, self.latent_head.weight), self.latent_head.bias)
        dz = cfg.latent_dim
        mu = slice_axis(lat, 2, 0, dz)
        logvar = clip(slice_axis(lat, 2, dz, 2 * dz), LOGVAR_MIN, LOGVAR_MAX)
        b = mu.shape[0]
        return LatentCode(
            mu=reshape(mu, (b, g, g, dz)),
            logvar=reshape(logvar, (b, g, g, dz)),
        )

    def sample_latent(self, code: LatentCode, rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        """Reparameterized draw from the latent Gaussian (mean at eval): the
        standard-normal noise, of ``mu``'s shape, is the next draw of
        ``rng``."""
        if deterministic:
            return code.mu
        if rng is None:
            raise ConfigError("sample_latent: rng required for stochastic sampling")
        eps = rng.standard_normal(code.mu.shape).astype(code.mu.dtype)
        std = texp(scale(code.logvar, 0.5))
        return add(code.mu, mul(std, Tensor(eps)))

    def build_pyramid(self, z_width: Tensor) -> Tensor:
        """Base token map -> batch x T x width low-to-high token sequence."""
        if self.config.downsample_mode == "conv":
            return downsample_conv(self.down, z_width, self.schedule)
        return downsample_interp(z_width, self.schedule)

    def decode_levels(self, tokens: Tensor, rng: np.random.Generator | None = None,
                      training: bool = False) -> Tensor:
        """Decode a batch x T x width token sequence, positional encoding not
        yet added, into the batch x T x 3p² pixel-token sequence (low to high;
        ``pyramid.tokens_to_images`` turns it into per-scale images)."""
        cfg = self.config
        h = add(tokens, positional_encoding(self.pe, self.schedule))
        for blk in self.dec:
            h = transformer_block(h, blk, cfg.heads, self.mask, eps=LN_EPS,
                                  drop_rate=cfg.drop_path, rng=rng, training=training)
        h = layer_norm(h, self.dec_norm.gain, self.dec_norm.bias, LN_EPS)
        return add(matmul(h, self.pixel_head.weight), self.pixel_head.bias)

    def decode_pyramid(self, z_latent, rng: np.random.Generator | None = None,
                       training: bool = False) -> Tensor:
        """Latent (batch x g x g x d_z) -> batch x T x 3p² pixel tokens, low to high."""
        z_latent = as_tensor(z_latent)
        g = self.schedule.base_grid
        if z_latent.ndim != 4 or z_latent.shape[1:] != (g, g, self.config.latent_dim):
            raise ShapeError(
                f"decode_pyramid: expected a batch x {g} x {g} x {self.config.latent_dim} latent, got {z_latent.shape}"
            )
        z = add(matmul(z_latent, self.latent_proj.weight), self.latent_proj.bias)
        return self.decode_levels(self.build_pyramid(z), rng=rng, training=training)

    def reconstruct(self, x, deterministic: bool = True, rng: np.random.Generator | None = None,
                    training: bool = False) -> tuple[Tensor, LatentCode]:
        """encode -> sample -> decode; the pixel tokens' last scale block is
        the full-resolution reconstruction. ``rng`` gives the latent noise
        first, then the drop_path masks."""
        code = self.encode(x)
        z = self.sample_latent(code, rng=rng, deterministic=deterministic)
        return self.decode_pyramid(z, rng=rng, training=training), code

    def latent_for_generation(self, x) -> Tensor:
        """Deterministic latent taken before any multi-scale downsampling."""
        return self.encode(x).mu


def _batched_image(x, cfg: TokenizerConfig) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[1:] != (3, cfg.image_size, cfg.image_size):
        raise ShapeError(
            f"expected an image batch of shape batch x 3x{cfg.image_size}x{cfg.image_size}, got {x.shape}"
        )
    return x


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_model(config: TokenizerConfig, dtype=np.float32) -> TokenizerModel:
    """Build a freshly initialized model; draw order is fixed, so equal seeds
    give bit-identical parameters."""
    config.validate()
    rng = make_rng(config.seed, stream=STREAM_INIT)
    return _build_model(config, lambda shape: trunc_normal(rng, shape, std=INIT_STD, dtype=dtype), dtype)


def _build_model(config: TokenizerConfig, draw, dtype) -> TokenizerModel:
    """The model tree for a validated config, each random weight made by
    ``draw(shape)``, called in record order; the layer norms, biases and
    averaging kernels are set as at init."""
    schedule = config.schedule()
    g = schedule.base_grid
    ew, dw, dz, p = config.enc_width, config.dec_width, config.latent_dim, config.patch

    def weight(*shape):
        return Tensor(draw(shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    def norm(width):
        return LayerNormParams(gain=ones(width), bias=zeros(width))

    def affine(n_in, n_out):
        return Affine(weight=weight(n_in, n_out), bias=zeros(n_out))

    def block(width):
        return BlockParams(
            ln1=norm(width),
            attn=AttentionParams(wq=weight(width, width), wk=weight(width, width),
                                 wv=weight(width, width), wo=weight(width, width)),
            ln2=norm(width),
            mlp=MlpParams(fc1=weight(width, MLP_RATIO * width), fc2=weight(MLP_RATIO * width, width)),
        )

    down: dict[int, list[Tensor]] = {}
    if config.downsample_mode == "conv":
        # Averaging init: conv downsampling starts exactly equal to the
        # parameter-free interpolation path, then trains away from it.
        for grid, length in sorted(conv_chain_lengths(schedule).items()):
            down[grid] = [Tensor(averaging_kernel(dw, dtype), requires_grad=True) for _ in range(length)]

    # Keyword arguments evaluate left to right: listed in field order, they
    # draw in record order, the order fixed since HTOK v1.
    return TokenizerModel(
        config=config,
        schedule=schedule,
        mask=build_mask(schedule, config.attention_regime()),
        patch_embed=Conv(kernel=weight(ew, 3, p, p), bias=zeros(ew)),
        enc_pos=weight(g, g, ew),
        enc=[block(ew) for _ in range(config.enc_layers)],
        enc_norm=norm(ew),
        latent_head=affine(ew, 2 * dz),
        latent_proj=affine(dz, dw),
        down=down,
        pe=PEParams(spatial=weight(g, g, dw), scale=weight(schedule.num_scales, dw)),
        dec=[block(dw) for _ in range(config.dec_layers)],
        dec_norm=norm(dw),
        pixel_head=affine(dw, 3 * p * p),
    )


# ---------------------------------------------------------------------------
# Checkpoint format: magic "HTOK", version, config text, parameter records
# ---------------------------------------------------------------------------

def save_checkpoint(model: TokenizerModel, path: str) -> None:
    """Write the checkpoint atomically: the bytes go to ``<path>.tmp``, are
    fsynced, then replace ``path`` in one rename. A crash or a failed write
    leaves the previous checkpoint intact and no temporary file behind."""
    config_text = tokenizer_config_to_kv(model.config).encode("utf-8")
    params = named_tensors(model)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(config_text)))
            fh.write(config_text)
            fh.write(struct.pack("<I", len(params)))
            for name, tensor in params.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", tensor.ndim))
                for dim in tensor.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


class CheckpointError(DataError):
    """Checkpoint bytes do not follow the HTOK layout."""


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read ``n`` bytes, checking first that the file holds them, so a
    corrupt length or rank never asks for more memory than the file has."""
    offset = fh.tell()
    if n > os.fstat(fh.fileno()).st_size - offset:
        raise CheckpointError(f"truncated checkpoint while reading {what} at offset {offset}")
    return fh.read(n)


def load_checkpoint(path: str) -> TokenizerModel:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not an HTOK checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (config_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        config_bytes = _read_exact(fh, config_len, "config")
        try:
            kv = parse_kv_lines(config_bytes.decode("utf-8"))
            config = config_from_kv(TokenizerConfig, kv).validate()
        except (UnicodeDecodeError, ConfigError) as err:
            raise CheckpointError(f"{path}: bad embedded config: {err}") from None
        # Every parameter is overwritten by its record, so none is drawn.
        model = _build_model(config, lambda shape: np.zeros(shape, dtype=np.float32), np.float32)
        params = named_tensors(model)
        (n_records,) = struct.unpack("<I", _read_exact(fh, 4, "record count"))
        if n_records != len(params):
            raise CheckpointError(f"{path}: {n_records} records for {len(params)} parameters")
        # Each record takes its parameter out of ``params``, so a repeated
        # record cannot stand in for a missing one; a name that is not UTF-8
        # decodes with escapes and matches no parameter.
        for _ in range(n_records):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8", errors="backslashreplace")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            target = params.pop(name, None)
            if target is None:
                raise CheckpointError(f"{path}: unknown or repeated parameter {name!r}")
            if dims != target.shape:
                raise CheckpointError(f"{path}: parameter {name!r} has shape {dims}, expected {target.shape}")
            count = int(np.prod(dims)) if dims else 1
            payload = _read_exact(fh, 4 * count, f"payload of {name}")
            target.data = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last record")
    return model
