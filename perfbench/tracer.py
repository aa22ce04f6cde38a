"""Outside-in tracing of the ``mstok`` package for the per-layer run.

``Tracer.install`` replaces the public functions and methods of the traced
modules, in every ``mstok`` module namespace that holds them, with wrappers
that record a span: name, start, end, enclosing span, and an optional count
computed from the arguments' shapes. Every tensor op also wraps the backward
closure of the tensor it returns, so an op's time covers its forward and its
backward. ``uninstall`` puts every original back. The end-to-end run never
installs the wrappers.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

from stats import span_times

MODULES = ("tensor", "attention", "pyramid", "model", "losses", "optim", "train",
           "metrics", "latent_stats", "imageio", "data")
# Pure argument coercion, called by every op; a span around it would only
# move time out of the ops that call it.
UNTRACED = {"tensor.as_tensor"}

TENSOR_GROUPS = {
    "matmul": ("matmul",),
    "softmax": ("softmax",),
    "layer_norm": ("layer_norm",),
    "gelu": ("gelu",),
    "conv2d": ("conv2d",),
    "area_pool": ("area_pool",),
    "elementwise": ("add", "sub", "mul", "scale", "tsum", "tmean", "texp", "tabs",
                    "square", "clip", "drop_path"),
    "shape_ops": ("reshape", "transpose", "concat", "slice_axis"),
}
TENSOR_OPS = tuple(f"tensor.{fn}" for fns in TENSOR_GROUPS.values() for fn in fns)


def _shape(x):
    return np.shape(getattr(x, "data", x))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _matmul_flops(args, kwargs):
    a, b = _shape(args[0]), _shape(args[1])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return 2.0 * math.prod(batch) * a[-2] * a[-1] * b[-1]


def _score_elems(args, kwargs):
    if _arg(args, kwargs, 3, "mask") is None:
        return None  # encoder attention; the count covers the masked decoder
    shape = _shape(args[0])
    b, t = (1, shape[0]) if len(shape) == 2 else shape[:2]
    return float(b * _arg(args, kwargs, 2, "heads") * t * t)


def _ppm_read_bytes(args, kwargs):
    return float(os.path.getsize(args[0]))


def _ppm_write_bytes(args, kwargs):
    _, h, w = _shape(args[0])
    return float(len(b"P6\n%d %d\n255\n" % (w, h)) + 3 * h * w)


def _block_name(args, kwargs):
    mask = _arg(args, kwargs, 3, "mask")
    return "attention.enc_block" if mask is None else "attention.dec_block"


COUNTERS = {
    "tensor.matmul": _matmul_flops,
    "attention.masked_mha": _score_elems,
    "imageio.load_ppm": _ppm_read_bytes,
    "imageio.save_ppm": _ppm_write_bytes,
}
NAMERS = {"attention.transformer_block": _block_name}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list = []
        self._tensor_type = importlib.import_module("mstok.tensor").Tensor

    def _wrap(self, label: str, fn, counter=None, namer=None, op=False):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.monotonic
        tensor_type = self._tensor_type

        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else label
            value = counter(args, kwargs) if counter else None
            index = len(spans)
            parent = stack[-1] if stack else -1
            depth = active.get(name, 0)
            active[name] = depth + 1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                spans[index] = (name, start, end, parent, depth == 0, value)
            if op and isinstance(out, tensor_type):
                backward = out._backward_fn
                if backward is not None and not getattr(backward, "_perfbench", False):
                    out._backward_fn = self._wrap(name + ".backward", backward)
            return out

        traced._perfbench = True
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"mstok.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                label = f"{short}.{attr}"
                if inspect.isfunction(obj) and label not in UNTRACED:
                    wrapper = self._wrap(label, obj, COUNTERS.get(label), NAMERS.get(label),
                                         op=label in TENSOR_OPS)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        # Modules bind imported functions by name, so patch every namespace.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "mstok" or name.startswith("mstok.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def _install_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            label = f"{short}.{cls.__name__}.{attr}"
            if not attr.startswith("_") and inspect.isfunction(obj):
                wrapped = self._wrap(label, obj)
            elif isinstance(obj, property) and label == "attention.AttentionMask.additive":
                wrapped = property(self._wrap(label, obj.fget))
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ms(agg, names, key):
    return 1000.0 * sum(agg.get(n, {}).get(key, 0.0) for n in names)


def _self_ms(*names):
    return lambda agg: _ms(agg, [m for n in names for m in (n, n + ".backward")], "self")


def _total_ms(*names):
    return lambda agg: _ms(agg, names, "total")


def _count(names, key, scale=1.0):
    return lambda agg: sum(agg.get(n, {}).get(key, 0.0) for n in names) * scale


# name -> (unit, function of the aggregated spans); each value is summed over
# the window and then divided by the number of units of work in it.
LAYER_METRICS = {
    **{f"tensor.{group}.ms": ("ms", _self_ms(*(f"tensor.{fn}" for fn in fns)))
       for group, fns in TENSOR_GROUPS.items()},
    "tensor.matmul.calls": ("count", _count(["tensor.matmul"], "calls")),
    "tensor.matmul.gflop": ("GFLOP", _count(["tensor.matmul"], "value", 1e-9)),
    "tensor.ops.calls": ("count", _count(TENSOR_OPS, "calls")),
    "attention.dec_block.ms": ("ms", _total_ms("attention.dec_block")),
    "attention.enc_block.ms": ("ms", _total_ms("attention.enc_block")),
    "attention.additive_mask.ms": ("ms", _total_ms("attention.AttentionMask.additive")),
    "attention.score_melem": ("Melem", _count(["attention.masked_mha"], "value", 1e-6)),
    "model.encode.ms": ("ms", _total_ms("model.TokenizerModel.encode")),
    "model.decode.ms": ("ms", _total_ms("model.TokenizerModel.decode_pyramid")),
    "pyramid.build.ms": ("ms", _total_ms("model.TokenizerModel.build_pyramid")),
    "pyramid.pos_enc.ms": ("ms", _total_ms("pyramid.positional_encoding")),
    "pyramid.image_pyramid.ms": ("ms", _total_ms("pyramid.image_pyramid")),
    "losses.multiscale.ms": ("ms", _total_ms("losses.multiscale_loss")),
    "optim.clip.ms": ("ms", _total_ms("optim.clip_grad_norm")),
    "optim.adamw.ms": ("ms", _total_ms("optim.AdamW.step")),
    "train.evaluate.ms": ("ms", _total_ms("train.evaluate")),
    "metrics.psnr.ms": ("ms", _total_ms("metrics.psnr")),
    "metrics.ssim.ms": ("ms", _total_ms("metrics.ssim")),
    "model.save_checkpoint.ms": ("ms", _total_ms("model.save_checkpoint")),
    "model.load_checkpoint.ms": ("ms", _total_ms("model.load_checkpoint")),
    "latent_stats.project2d.ms": ("ms", _total_ms("latent_stats.project2d")),
    "latent_stats.kde.ms": ("ms", _total_ms("latent_stats.kde_density")),
    "latent_stats.uniformity.ms": ("ms", _total_ms("latent_stats.uniformity_metrics")),
    "latent_stats.hlat_io.ms": ("ms", _total_ms("latent_stats.read_latents", "latent_stats.write_latents")),
    "imageio.load_ppm.ms": ("ms", _total_ms("imageio.load_ppm")),
    "imageio.save_ppm.ms": ("ms", _total_ms("imageio.save_ppm")),
    "imageio.bytes": ("B", _count(["imageio.load_ppm", "imageio.save_ppm"], "value")),
    "data.load_dataset.ms": ("ms", _total_ms("data.load_dataset")),
}
# The forward/backward/optimizer split of a training step, computed from
# inclusive spans; "other" is the rest of the step's wall time.
STEP_SPLIT = {
    "train.forward.ms": _total_ms("model.TokenizerModel.reconstruct", "pyramid.image_pyramid",
                                  "losses.multiscale_loss"),
    "train.backward.ms": _total_ms("tensor.Tensor.backward"),
    "train.optim.ms": _total_ms("optim.clip_grad_norm", "optim.AdamW.step"),
}
# On ``train`` these run once per training call, outside the step loop, so
# they are reported per call over the whole call rather than per step.
TRAIN_PER_CALL = {
    "train.evaluate.ms", "metrics.psnr.ms", "metrics.ssim.ms", "model.save_checkpoint.ms",
    "model.load_checkpoint.ms", "data.load_dataset.ms", "latent_stats.project2d.ms",
    "latent_stats.kde.ms", "latent_stats.uniformity.ms", "latent_stats.hlat_io.ms",
    "imageio.load_ppm.ms", "imageio.save_ppm.ms", "imageio.bytes",
}


def layer_metrics(spans, window, units: float, step_ms=None) -> dict:
    """Per-layer values per unit of work inside ``window``.

    ``step_ms`` (training only) is the summed wall time of the timed steps;
    the whole traced call then gives the per-call metrics.
    """
    agg = span_times(spans, *window)
    values = {name: fn(agg) / units for name, (unit, fn) in LAYER_METRICS.items()}
    split = {name: fn(agg) / units for name, fn in STEP_SPLIT.items()}
    if step_ms is None:
        split = dict.fromkeys(split, 0.0)
        split["train.other.ms"] = 0.0
    else:
        whole = span_times(spans)
        for name in TRAIN_PER_CALL:
            values[name] = LAYER_METRICS[name][1](whole)
        split["train.other.ms"] = step_ms / units - sum(split.values())
    values.update(split)
    return values


def layer_units() -> dict:
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update(dict.fromkeys([*STEP_SPLIT, "train.other.ms"], "ms"))
    units.update({"model.forward_peak_mb": "MB", "trace.overhead_pct": "%"})
    return units
