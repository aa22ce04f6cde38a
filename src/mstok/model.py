"""The end-to-end tokenizer model.

Pipeline: patch-embed -> full-attention encoder -> Gaussian latent head ->
latent-to-width projection -> token pyramid -> masked decoder -> shared pixel
head, one RGB reconstruction per scale. The latent lives at the base grid,
before any downsampling, so generation-time codes have single-scale shape.
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
    ScheduleError,
    averaging_kernel,
    conv_chain_lengths,
    downsample_conv,
    downsample_interp,
    positional_encoding,
)
from .tensor import (
    ConfigError,
    ShapeError,
    Tensor,
    add,
    as_tensor,
    clip,
    concat,
    conv2d,
    layer_norm,
    make_rng,
    matmul,
    mul,
    reshape,
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
class TokenizerModel:
    config: TokenizerConfig
    schedule: ScaleSchedule
    mask: AttentionMask
    patch_kernel: Tensor
    patch_bias: Tensor
    enc_pos: Tensor
    enc_blocks: list[BlockParams]
    enc_norm: LayerNormParams
    latent_w: Tensor
    latent_b: Tensor
    proj_w: Tensor
    proj_b: Tensor
    down_chains: dict[int, list[Tensor]]
    pe: PEParams
    dec_blocks: list[BlockParams]
    dec_norm: LayerNormParams
    pixel_w: Tensor
    pixel_b: Tensor

    # ------------------------------------------------------------------
    # Parameter bookkeeping
    # ------------------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Deterministically ordered name -> parameter map."""
        params: dict[str, Tensor] = {
            "patch_embed.kernel": self.patch_kernel,
            "patch_embed.bias": self.patch_bias,
            "enc_pos": self.enc_pos,
        }

        def block_entries(prefix: str, blocks: list[BlockParams]):
            for i, blk in enumerate(blocks):
                params[f"{prefix}.{i}.ln1.gain"] = blk.ln1.gain
                params[f"{prefix}.{i}.ln1.bias"] = blk.ln1.bias
                params[f"{prefix}.{i}.attn.wq"] = blk.attn.wq
                params[f"{prefix}.{i}.attn.wk"] = blk.attn.wk
                params[f"{prefix}.{i}.attn.wv"] = blk.attn.wv
                params[f"{prefix}.{i}.attn.wo"] = blk.attn.wo
                params[f"{prefix}.{i}.ln2.gain"] = blk.ln2.gain
                params[f"{prefix}.{i}.ln2.bias"] = blk.ln2.bias
                params[f"{prefix}.{i}.mlp.fc1"] = blk.mlp.fc1
                params[f"{prefix}.{i}.mlp.fc2"] = blk.mlp.fc2

        block_entries("enc", self.enc_blocks)
        params["enc_norm.gain"] = self.enc_norm.gain
        params["enc_norm.bias"] = self.enc_norm.bias
        params["latent_head.weight"] = self.latent_w
        params["latent_head.bias"] = self.latent_b
        params["latent_proj.weight"] = self.proj_w
        params["latent_proj.bias"] = self.proj_b
        for g in sorted(self.down_chains):
            for j, kernel in enumerate(self.down_chains[g]):
                params[f"down.{g}.{j}"] = kernel
        params["pe.spatial"] = self.pe.spatial
        params["pe.scale"] = self.pe.per_scale
        block_entries("dec", self.dec_blocks)
        params["dec_norm.gain"] = self.dec_norm.gain
        params["dec_norm.bias"] = self.dec_norm.bias
        params["pixel_head.weight"] = self.pixel_w
        params["pixel_head.bias"] = self.pixel_b
        return params

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.named_parameters().values())

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------

    def encode(self, x) -> LatentCode:
        """Image in [-1, 1] -> Gaussian latent at the base grid."""
        x, _ = _batched_image(x, self.config)
        cfg = self.config
        g = cfg.image_size // cfg.patch
        h = conv2d(x, self.patch_kernel, stride=cfg.patch)
        h = add(h, reshape(self.patch_bias, (1, cfg.enc_width, 1, 1)))
        h = transpose(h, (0, 2, 3, 1))
        h = add(h, self.enc_pos)
        h = reshape(h, (h.shape[0], g * g, cfg.enc_width))
        for blk in self.enc_blocks:
            h = transformer_block(h, blk, cfg.heads, mask=None, eps=LN_EPS)
        h = layer_norm(h, self.enc_norm.gain, self.enc_norm.bias, LN_EPS)
        lat = add(matmul(h, self.latent_w), self.latent_b)
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
        """Reparameterized draw from the latent Gaussian (mean at eval)."""
        if deterministic:
            return code.mu
        if rng is None:
            raise ConfigError("sample_latent: rng required for stochastic sampling")
        eps = rng.standard_normal(code.mu.shape).astype(code.mu.dtype)
        std = texp(code.logvar * 0.5)
        return add(code.mu, mul(std, Tensor(eps)))

    def build_pyramid(self, z_width: Tensor) -> list[Tensor]:
        if self.config.downsample_mode == "conv":
            return downsample_conv(self.down_chains, z_width, self.schedule)
        return downsample_interp(z_width, self.schedule)

    def decode_levels(self, maps: list[Tensor], rng: np.random.Generator | None = None,
                      training: bool = False) -> list[Tensor]:
        """Decode per-scale token maps into per-scale RGB images (low to high)."""
        cfg = self.config
        pe_levels = positional_encoding(self.pe, self.schedule)
        parts = []
        for m, pe_s, (g, n) in zip(maps, pe_levels, zip(self.schedule.grids, self.schedule.counts)):
            level = add(m, pe_s)
            parts.append(reshape(level, (level.shape[0], n, cfg.dec_width)))
        h = concat(parts, axis=1)
        for blk in self.dec_blocks:
            h = transformer_block(h, blk, cfg.heads, self.mask, eps=LN_EPS,
                                  drop_rate=cfg.drop_path, rng=rng, training=training)
        h = layer_norm(h, self.dec_norm.gain, self.dec_norm.bias, LN_EPS)
        px = add(matmul(h, self.pixel_w), self.pixel_b)

        images = []
        p = cfg.patch
        for (g, n), start in zip(zip(self.schedule.grids, self.schedule.counts), self.schedule.offsets()):
            tok = slice_axis(px, 1, start, start + n)
            tok = reshape(tok, (tok.shape[0], g, g, 3, p, p))
            tok = transpose(tok, (0, 3, 1, 4, 2, 5))
            images.append(reshape(tok, (tok.shape[0], 3, g * p, g * p)))
        return images

    def decode_pyramid(self, z_latent, rng: np.random.Generator | None = None,
                       training: bool = False) -> list[Tensor]:
        """Latent (batch x g x g x d_z) -> per-scale RGB images, low to high."""
        z_latent = as_tensor(z_latent)
        squeeze = z_latent.ndim == 3
        if squeeze:
            z_latent = reshape(z_latent, (1,) + z_latent.shape)
        g = self.schedule.base_grid
        if z_latent.shape[1:] != (g, g, self.config.latent_dim):
            raise ShapeError(
                f"decode_pyramid: latent shape {z_latent.shape[1:]} != ({g}, {g}, {self.config.latent_dim})"
            )
        z = add(matmul(z_latent, self.proj_w), self.proj_b)
        images = self.decode_levels(self.build_pyramid(z), rng=rng, training=training)
        if squeeze:
            images = [reshape(im, im.shape[1:]) for im in images]
        return images

    def reconstruct(self, x, deterministic: bool = True, rng: np.random.Generator | None = None,
                    training: bool = False) -> tuple[list[Tensor], LatentCode]:
        """encode -> sample -> decode; the last output is the full-resolution one."""
        _, squeeze = _batched_image(x, self.config)
        code = self.encode(x)
        z = self.sample_latent(code, rng=rng, deterministic=deterministic)
        images = self.decode_pyramid(z, rng=rng, training=training)
        if squeeze:
            images = [reshape(im, im.shape[1:]) for im in images]
        return images, code

    def latent_for_generation(self, x) -> Tensor:
        """Deterministic latent taken before any multi-scale downsampling."""
        return self.encode(x).mu


def _batched_image(x, cfg: TokenizerConfig) -> tuple[Tensor, bool]:
    x = as_tensor(x)
    squeeze = x.ndim == 3
    if squeeze:
        x = reshape(x, (1,) + x.shape)
    if x.ndim != 4 or x.shape[1] != 3 or x.shape[2] != cfg.image_size or x.shape[3] != cfg.image_size:
        raise ShapeError(
            f"expected image of shape (batch x) 3x{cfg.image_size}x{cfg.image_size}, got {x.shape}"
        )
    return x, squeeze


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_model(config: TokenizerConfig, dtype=np.float32) -> TokenizerModel:
    """Build a freshly initialized model; draw order is fixed, so equal seeds
    give bit-identical parameters."""
    config.validate()
    rng = make_rng(config.seed, stream=STREAM_INIT)
    schedule = config.schedule()
    g = schedule.base_grid
    ew, dw, dz, p = config.enc_width, config.dec_width, config.latent_dim, config.patch

    def weight(*shape):
        return Tensor(trunc_normal(rng, shape, std=INIT_STD, dtype=dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    def block(width):
        return BlockParams(
            ln1=LayerNormParams(gain=ones(width), bias=zeros(width)),
            attn=AttentionParams(wq=weight(width, width), wk=weight(width, width),
                                 wv=weight(width, width), wo=weight(width, width)),
            ln2=LayerNormParams(gain=ones(width), bias=zeros(width)),
            mlp=MlpParams(fc1=weight(width, MLP_RATIO * width), fc2=weight(MLP_RATIO * width, width)),
        )

    patch_kernel = weight(ew, 3, p, p)
    patch_bias = zeros(ew)
    enc_pos = weight(g, g, ew)
    enc_blocks = [block(ew) for _ in range(config.enc_layers)]
    enc_norm = LayerNormParams(gain=ones(ew), bias=zeros(ew))
    latent_w = weight(ew, 2 * dz)
    latent_b = zeros(2 * dz)
    proj_w = weight(dz, dw)
    proj_b = zeros(dw)

    down_chains: dict[int, list[Tensor]] = {}
    if config.downsample_mode == "conv":
        # Averaging init: conv downsampling starts exactly equal to the
        # parameter-free interpolation path, then trains away from it.
        for grid, length in sorted(conv_chain_lengths(schedule).items()):
            down_chains[grid] = [Tensor(averaging_kernel(dw, dtype), requires_grad=True)
                                 for _ in range(length)]

    pe = PEParams(spatial=weight(g, g, dw), per_scale=weight(schedule.num_scales, dw))
    dec_blocks = [block(dw) for _ in range(config.dec_layers)]
    dec_norm = LayerNormParams(gain=ones(dw), bias=zeros(dw))
    pixel_w = weight(dw, 3 * p * p)
    pixel_b = zeros(3 * p * p)

    return TokenizerModel(
        config=config,
        schedule=schedule,
        mask=build_mask(schedule, config.attention_regime()),
        patch_kernel=patch_kernel,
        patch_bias=patch_bias,
        enc_pos=enc_pos,
        enc_blocks=enc_blocks,
        enc_norm=enc_norm,
        latent_w=latent_w,
        latent_b=latent_b,
        proj_w=proj_w,
        proj_b=proj_b,
        down_chains=down_chains,
        pe=pe,
        dec_blocks=dec_blocks,
        dec_norm=dec_norm,
        pixel_w=pixel_w,
        pixel_b=pixel_b,
    )


# ---------------------------------------------------------------------------
# Checkpoint format: magic "HTOK", version, config text, parameter records
# ---------------------------------------------------------------------------

def save_checkpoint(model: TokenizerModel, path: str) -> None:
    """Write the checkpoint atomically: the bytes go to ``<path>.tmp``, are
    fsynced, then replace ``path`` in one rename. A crash or a failed write
    leaves the previous checkpoint intact and no temporary file behind."""
    config_text = tokenizer_config_to_kv(model.config).encode("utf-8")
    params = model.named_parameters()
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


class CheckpointError(ValueError):
    """Checkpoint bytes do not follow the HTOK layout."""


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what} at offset {fh.tell()}")
    return data


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
        except (UnicodeDecodeError, ConfigError, ScheduleError) as err:
            raise CheckpointError(f"{path}: bad embedded config: {err}") from None
        model = init_model(config)
        params = model.named_parameters()
        (n_records,) = struct.unpack("<I", _read_exact(fh, 4, "record count"))
        if n_records != len(params):
            raise CheckpointError(f"{path}: {n_records} records for {len(params)} parameters")
        for _ in range(n_records):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            if name not in params:
                raise CheckpointError(f"{path}: unknown parameter {name!r}")
            target = params[name]
            if dims != target.shape:
                raise CheckpointError(f"{path}: parameter {name!r} has shape {dims}, expected {target.shape}")
            count = int(np.prod(dims)) if dims else 1
            payload = _read_exact(fh, 4 * count, f"payload of {name}")
            target.data = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last record")
    return model
