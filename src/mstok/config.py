"""Dataclass configs and the line-oriented ``key=value`` config format.

Config files hold one ``key=value`` pair per line; ``#`` starts a comment.
Each value is parsed by the type annotation of its dataclass field: ``int``,
``float``, ``str``, or a comma-separated tuple (``scales=1,2,4,8``). A value
that does not parse, and an unknown key, raise ``ConfigError`` naming the key,
so typos fail loudly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

from .attention import AttentionRegime
from .metrics import SSIM_WINDOW
from .pyramid import ScaleSchedule, build_schedule, conv_chain_lengths
from .tensor import ConfigError


def _require_at_least(cfg, low: float, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value >= low):  # NaN and inf fail too
            raise ConfigError(f"{name} must be finite and at least {low}, got {value}")


@dataclass(frozen=True)
class TokenizerConfig:
    image_size: int = 32
    patch: int = 4
    enc_layers: int = 2
    dec_layers: int = 4
    enc_width: int = 64
    dec_width: int = 64
    heads: int = 4
    latent_dim: int = 16
    scales: tuple[int, ...] = (1, 2, 4, 8)
    downsample_mode: str = "interp"
    regime: str = "scalecausal"
    kl_weight: float = 1e-6
    drop_path: float = 0.0
    seed: int = 0

    def validate(self) -> "TokenizerConfig":
        if self.image_size <= 0 or self.patch <= 0 or self.image_size % self.patch:
            raise ConfigError(f"image_size {self.image_size} must be a positive multiple of patch {self.patch}")
        _require_at_least(self, 1, "heads", "enc_width", "dec_width", "latent_dim")
        _require_at_least(self, 0, "enc_layers", "dec_layers", "kl_weight", "seed")
        if self.enc_width % self.heads or self.dec_width % self.heads:
            raise ConfigError(f"widths {self.enc_width}/{self.dec_width} must be divisible by heads {self.heads}")
        if self.downsample_mode not in ("interp", "conv"):
            raise ConfigError(f"downsample_mode must be 'interp' or 'conv', got {self.downsample_mode!r}")
        AttentionRegime.parse(self.regime)
        schedule = self.schedule()
        if self.downsample_mode == "conv":
            conv_chain_lengths(schedule)  # raises for non-dyadic grids
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigError(f"drop_path must be in [0, 1), got {self.drop_path}")
        return self

    def schedule(self) -> ScaleSchedule:
        return build_schedule(self.image_size // self.patch, self.scales)

    def attention_regime(self) -> AttentionRegime:
        return AttentionRegime.parse(self.regime)


@dataclass(frozen=True)
class RunConfig:
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    data_dir: str = "synthetic:512"
    steps: int = 2000
    epochs: int = 0                  # when > 0, overrides steps with epochs x batches per epoch
    batch_size: int = 64             # images per training step; only train reads it
    lr_start: float = 1e-4
    lr_end: float = 1e-6
    warmup_ratio: float = 0.03
    log_interval: int = 100
    checkpoint: str = "tokenizer.htok"
    checkpoint_interval: int = 0     # 0: final checkpoint only
    eval_fraction: float = 0.125
    l1_weight: float = 1.0
    mse_weight: float = 0.4
    scale_weights: tuple[float, ...] = ()
    grad_clip: float = 1.0

    def validate(self) -> "RunConfig":
        self.tokenizer.validate()
        _require_at_least(self.tokenizer, SSIM_WINDOW, "image_size")  # eval scores SSIM
        _require_at_least(self, 1, "batch_size")
        _require_at_least(self, 0, "steps", "epochs", "log_interval", "checkpoint_interval",
                          "lr_start", "lr_end", "l1_weight", "mse_weight")
        if not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ConfigError(f"eval_fraction must be in [0, 1), got {self.eval_fraction}")
        w, n = self.scale_weights, len(self.tokenizer.scales)
        # The losses divide by the sum.
        if w and not (len(w) == n and all(math.isfinite(x) and x >= 0 for x in w) and sum(w) > 0):
            raise ConfigError(f"scale_weights {w} must be {n} finite nonnegative weights, one per scale, "
                              "with a positive sum")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ConfigError(f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}")
        if not os.path.basename(self.checkpoint):
            raise ConfigError(f"checkpoint must name a file, got {self.checkpoint!r}")
        return self


def parse_kv_lines(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines, dropping blanks and ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _parse_value(key: str, text: str, kind):
    """Parse one value as ``int``, ``float``, ``str`` or a comma-separated
    ``tuple[int, ...]``/``tuple[float, ...]`` (blank items are skipped)."""
    if kind is str:
        return text
    try:
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            return tuple(item(p) for p in text.split(",") if p.strip())
        return kind(text)
    except ValueError as err:
        raise ConfigError(f"config key {key!r}: {err}") from None


def config_from_kv(cls, kv: dict[str, str], base=None):
    """Build the config dataclass ``cls`` from string values, each parsed by
    its field annotation. Keys of a nested config field (``RunConfig.tokenizer``)
    are routed into it. Unknown keys raise ``ConfigError``; nothing is validated."""
    cfg = cls() if base is None else base
    types = _field_types(cls)
    updates = {}
    routed: set[str] = set()
    for name, kind in types.items():
        if is_dataclass(kind):
            sub = {k: v for k, v in kv.items() if k in _field_types(kind)}
            routed |= sub.keys()
            if sub:
                updates[name] = config_from_kv(kind, sub, getattr(cfg, name))
    for key, text in kv.items():
        if key in routed:
            continue
        if key not in types or is_dataclass(types[key]):
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, text, types[key])
    return replace(cfg, **updates)


def tokenizer_config_to_kv(cfg: TokenizerConfig) -> str:
    """The inverse of ``config_from_kv``: one ``key=value`` line per field,
    a tuple joined with commas."""
    lines = []
    for f in fields(TokenizerConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(item) for item in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def read_config_kv(path: str | None, overrides: list[str] | None = None) -> dict[str, str]:
    """Merge an optional ``key=value`` file with ``key=value`` overrides."""
    kv: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                kv.update(parse_kv_lines(fh.read()))
        except UnicodeDecodeError as err:
            raise ConfigError(f"config file {path!r} is not UTF-8: {err}") from None
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = value.strip()
    return kv


def load_run_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides."""
    return config_from_kv(RunConfig, read_config_kv(path, overrides)).validate()
