"""Multi-scale token pyramid: schedules, downsampling, positional encodings.

Token maps are channel-last (batch x grid x grid x width) and images are
batch x channels x H x W: every function here takes batched input only and
raises ``ShapeError`` on an unbatched one; the conv pyramid runs ``conv2d``
on channel-last maps as they are. The token pyramid is one batch x T x width
sequence of the base map's levels, coarse to fine, each a row-major block at
``ScaleSchedule.offsets``; the image pyramid is a list, one level per grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensor import ConfigError, ShapeError, Tensor, _pool_weights, add, area_pool, as_tensor, concat, conv2d, matmul, reshape


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

    def scale_of(self) -> np.ndarray:
        """Scale index of each token in the low-to-high token sequence."""
        return np.repeat(np.arange(self.num_scales), self.counts)

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


@functools.lru_cache(maxsize=None)
def _pool_matrix(grids: tuple[int, ...], dtype) -> np.ndarray:
    """The low-to-high token sequence as one ``T x g²`` matrix on the row-major
    flattened base grid ``g``: each level's block is ``kron(w, w)`` of its
    ``_pool_weights`` ``w``, the identity at the base grid. Never larger than
    the ``T x T`` attention mask. Built in float64 and cast once; cached and
    read-only, since every caller shares it.
    """
    weights = [_pool_weights(grids[-1], g, np.float64) for g in grids]
    m = np.concatenate([np.kron(w, w) for w in weights]).astype(dtype)
    m.flags.writeable = False
    return m


def downsample_interp(z_base, schedule: ScaleSchedule) -> Tensor:
    """Parameter-free pyramid: the token sequence of area-pooled base maps."""
    z = _base_map(z_base, schedule, "downsample_interp")
    flat = reshape(z, (z.shape[0], schedule.base_grid ** 2, z.shape[3]))
    return matmul(Tensor(_pool_matrix(schedule.grids, z.dtype)), flat)


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


def downsample_conv(chains: dict[int, list[Tensor]], z_base, schedule: ScaleSchedule) -> Tensor:
    """Learnable pyramid: the token sequence whose non-top levels each apply
    their own chain of stride-2 convolutions to the base map."""
    lengths = conv_chain_lengths(schedule)
    z = _base_map(z_base, schedule, "downsample_conv")
    b, _, _, d = z.shape
    maps = []
    for g in schedule.grids:
        kernels = chains.get(g) if g != schedule.base_grid else []
        if kernels is None or len(kernels) != lengths.get(g, 0):
            raise ConfigError(
                f"downsample_conv: level {g} needs {lengths[g]} stride-2 kernels, "
                f"got {0 if kernels is None else len(kernels)}"
            )
        level = z
        for kernel in kernels:
            level = conv2d(level, kernel)
        maps.append(reshape(level, (b, g * g, d)))
    return concat(maps, axis=1)


def positional_encoding(pe: PEParams, schedule: ScaleSchedule) -> Tensor:
    """T x width encoding: the area-pooled spatial map plus the scale embedding."""
    side = pe.spatial.shape[0]
    if side != schedule.base_grid:
        raise ShapeError(f"positional_encoding: spatial side {side} != base grid {schedule.base_grid}")
    if pe.scale.shape[0] != schedule.num_scales:
        raise ShapeError(
            f"positional_encoding: {pe.scale.shape[0]} scale embeddings for {schedule.num_scales} scales"
        )
    pooled = downsample_interp(reshape(pe.spatial, (1,) + pe.spatial.shape), schedule)
    one_hot = np.eye(schedule.num_scales, dtype=pe.scale.dtype)[schedule.scale_of()]
    return add(reshape(pooled, pooled.shape[1:]), matmul(Tensor(one_hot), pe.scale))


def image_pyramid(x, schedule: ScaleSchedule, patch: int) -> list[Tensor]:
    """Ground-truth targets: the image batch area-pooled to each (g_s * patch) square."""
    x = as_tensor(x)
    side = schedule.base_grid * patch
    if x.ndim != 4 or x.shape[2:] != (side, side):
        raise ShapeError(f"image_pyramid: expected a batch x C x {side} x {side} image, got shape {x.shape}")
    return [x if g * patch == side else area_pool(x, g * patch, g * patch) for g in schedule.grids]
