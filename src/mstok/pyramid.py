"""Multi-scale token pyramid: schedules, downsampling, positional encodings.

Token maps are channel-last (batch x grid x grid x width) and images are
batch x channels x H x W: every function here takes batched input only and
raises ``ShapeError`` on an unbatched one; the conv pyramid runs ``conv2d``
on channel-last maps as they are. Pyramids are built from the full-resolution
base map as a list with one level per grid entry, ascending; the decoder
concatenates them low-to-high into one token sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ConfigError, ShapeError, Tensor, area_pool, as_tensor, conv2d, reshape, slice_axis, transpose


@dataclass(frozen=True)
class ScaleSchedule:
    """Ascending token-grid side lengths, the last equal to the base grid."""

    grids: tuple[int, ...]
    counts: tuple[int, ...] = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        counts = tuple(g * g for g in self.grids)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", sum(counts))

    @property
    def base_grid(self) -> int:
        return self.grids[-1]

    @property
    def num_scales(self) -> int:
        return len(self.grids)

    def offsets(self) -> tuple[int, ...]:
        """Start offset of each scale block in the low-to-high token sequence."""
        return tuple(np.cumsum((0,) + self.counts[:-1]).tolist())

    def dyadic(self) -> bool:
        base = self.base_grid
        return all(base % g == 0 and (base // g).bit_count() == 1 for g in self.grids)


def build_schedule(base_grid: int, grids: list[int] | tuple[int, ...]) -> ScaleSchedule:
    grids = tuple(int(g) for g in grids)
    if not grids:
        raise ConfigError("schedule needs at least one grid")
    if any(g < 1 for g in grids):
        raise ConfigError(f"grids must be positive, got {grids}")
    if any(a >= b for a, b in zip(grids, grids[1:])):
        raise ConfigError(f"grids must be strictly ascending, got {grids}")
    if grids[-1] != base_grid:
        raise ConfigError(f"last grid {grids[-1]} must equal the base grid {base_grid}")
    return ScaleSchedule(grids)


@dataclass
class PEParams:
    """Learnable positional state: a full-resolution spatial map plus one
    embedding per scale."""

    spatial: Tensor               # g_S x g_S x d
    scale: Tensor                 # S x d


def _base_map(z, schedule: ScaleSchedule, op: str) -> Tensor:
    """Check that ``z`` is a batch x base grid x base grid x width map."""
    z = as_tensor(z)
    g = schedule.base_grid
    if z.ndim != 4 or z.shape[1:3] != (g, g):
        raise ShapeError(f"{op}: expected a batch x {g} x {g} x width base map, got shape {z.shape}")
    return z


def _pool_map(z: Tensor, out_side: int) -> Tensor:
    """Area-pool a channel-last map to out_side x out_side."""
    nchw = transpose(z, (0, 3, 1, 2))
    pooled = area_pool(nchw, out_side, out_side)
    return transpose(pooled, (0, 2, 3, 1))


def downsample_interp(z_base, schedule: ScaleSchedule) -> list[Tensor]:
    """Parameter-free pyramid: each level is the area-pooled base map."""
    z = _base_map(z_base, schedule, "downsample_interp")
    return [z if g == schedule.base_grid else _pool_map(z, g) for g in schedule.grids]


def conv_chain_lengths(schedule: ScaleSchedule) -> dict[int, int]:
    """Number of stride-2 kernels needed per non-top level."""
    if not schedule.dyadic():
        raise ConfigError(
            f"conv downsampling needs power-of-two grid ratios, got {schedule.grids}; "
            "use downsample_mode=interp for non-dyadic schedules"
        )
    base = schedule.base_grid
    return {g: (base // g).bit_length() - 1 for g in schedule.grids if g != base}


def averaging_kernel(width: int, dtype=np.float32) -> np.ndarray:
    """2x2 stride-2 kernel stack equal to exact block averaging."""
    k = np.zeros((width, width, 2, 2), dtype=dtype)
    for c in range(width):
        k[c, c] = 0.25
    return k


def downsample_conv(chains: dict[int, list[Tensor]], z_base, schedule: ScaleSchedule) -> list[Tensor]:
    """Learnable pyramid: each non-top level applies its own chain of stride-2
    convolutions to the base map."""
    lengths = conv_chain_lengths(schedule)
    z = _base_map(z_base, schedule, "downsample_conv")
    maps = []
    for g in schedule.grids:
        if g == schedule.base_grid:
            maps.append(z)
            continue
        kernels = chains.get(g)
        if kernels is None or len(kernels) != lengths[g]:
            raise ConfigError(
                f"downsample_conv: level {g} needs {lengths[g]} stride-2 kernels, "
                f"got {0 if kernels is None else len(kernels)}"
            )
        level = z
        for kernel in kernels:
            level = conv2d(level, kernel)
        maps.append(level)
    return maps


def positional_encoding(pe: PEParams, schedule: ScaleSchedule) -> list[Tensor]:
    """Per-scale encodings: area-pooled spatial map plus the scale embedding."""
    side = pe.spatial.shape[0]
    if side != schedule.base_grid:
        raise ShapeError(f"positional_encoding: spatial side {side} != base grid {schedule.base_grid}")
    if pe.scale.shape[0] != schedule.num_scales:
        raise ShapeError(
            f"positional_encoding: {pe.scale.shape[0]} scale embeddings for {schedule.num_scales} scales"
        )
    d = pe.spatial.shape[2]
    levels = downsample_interp(reshape(pe.spatial, (1,) + pe.spatial.shape), schedule)
    return [reshape(level, (g, g, d)) + reshape(slice_axis(pe.scale, 0, s, s + 1), (1, 1, d))
            for s, (g, level) in enumerate(zip(schedule.grids, levels))]


def image_pyramid(x, schedule: ScaleSchedule, patch: int) -> list[Tensor]:
    """Ground-truth targets: the image batch area-pooled to each (g_s * patch) square."""
    x = as_tensor(x)
    side = schedule.base_grid * patch
    if x.ndim != 4 or x.shape[2:] != (side, side):
        raise ShapeError(f"image_pyramid: expected a batch x C x {side} x {side} image, got shape {x.shape}")
    return [x if g * patch == side else area_pool(x, g * patch, g * patch) for g in schedule.grids]
