"""Command-line interface.

Subcommands: train, reconstruct, analyze-latent, dump-mask, gradcheck,
export-latents. train, export-latents and dump-mask take ``--config FILE``
plus repeatable ``--set key=value`` overrides. export-latents rejects a
tokenizer key that differs from its checkpoint's; dump-mask reads only
``scales`` and ``regime``. Both still reject unknown keys. dump-mask prints
one row of 0/1 per query, from its span in ``attention.build_mask``: 1 for
each key the query may read.
reconstruct and export-latents run a replica of the checkpoint's model whose
parameters do not require grad (``tensor.replica``): they build no
autograd graph, so each intermediate array is freed as soon as the next op
has read it, and their outputs are bit-identical to graph mode.
reconstruct and export-latents split their images by
``parallel.shard_bounds`` (see ``mstok.parallel``) and run the shards
through ``parallel.run_shards``, on worker threads with numpy's BLAS held at
one thread. Each reconstruct shard encodes and decodes its images in one
batch and saves them (one PPM per scale, from ``pyramid.tokens_to_images``)
in input order, so the first failure in input order is the one raised, and
the output bytes depend on neither the worker count nor the shard size.
Input files whose names differ only in the extension's case would write the
same outputs and are rejected.
For export-latents, the calling thread allocates the dump's one count x dim
float32 array, and each worker writes its shard's rows into that array's
slice, so the rows follow the dataset alone, not the worker count or the
shard size. The shards return nothing: one array of rows per shard,
concatenated on the calling thread, would be freed into the workers' malloc
arenas, which the analysis that reads the dump next allocates beside rather
than reuses. On a 2-vCPU Xeon, an export-then-analyze round of 2048
images peaked at 140 MB resident with such shards and at 124.5 MB with a
one-thread export; with that array and ``latent_stats.project2d`` on numpy
alone (its centred copy, a few Krylov vectors, no Gram matrix, no second
BLAS) it peaks at 89 MB.
Exit codes follow the class of the error, each reported as one stderr line:
0 success; 1 ``UsageError`` or ``ConfigError`` (a bad option or config
value); 2 ``DataError`` or ``OSError`` (input that is missing, malformed or
inconsistent, including a checkpoint whose embedded config is corrupt);
3 ``NumericError`` (non-finite values; numpy's own floating-point warnings
are silenced, since the finiteness checks report the fault).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attention import build_mask
from .config import ConfigError, RunConfig, config_from_kv, load_run_config, read_config_kv
from .data import load_dataset
from .gradcheck import model_end_to_end_check, op_library_checks
from .imageio import save_ppm
from .latent_stats import analyze_latents, read_latents, write_latents
from .model import load_checkpoint
from .parallel import run_shards, shard_bounds
from .pyramid import build_schedule, tokens_to_images
from .tensor import DataError, NumericError, Tensor, replica
from .train import train

OPS_THRESHOLD = 1e-4
E2E_THRESHOLD = 1e-3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mstok", description="Multi-scale image tokenizer toolkit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")

    p = sub.add_parser("train", help="train a tokenizer and write checkpoint + JSONL log")
    common(p)

    p = sub.add_parser("reconstruct", help="decode every scale of each input image to PPM files")
    p.add_argument("checkpoint_path")
    p.add_argument("input_dir")
    p.add_argument("output_dir")

    p = sub.add_parser("export-latents", help="dump encoder latents for a dataset to an HLAT file")
    common(p)
    p.add_argument("checkpoint_path")
    p.add_argument("output_path")

    p = sub.add_parser("analyze-latent", help="uniformity statistics of an HLAT latent dump")
    p.add_argument("latent_path")
    p.add_argument("--grid", type=int, default=64, help="KDE grid side (default 64)")
    p.add_argument("--bandwidth", type=float, default=None, help="KDE bandwidth (default: Scott's rule)")
    p.add_argument("--pad", type=float, default=3.0, help="bounding-box padding in bandwidths")
    p.add_argument("--out", help="also write the JSON report to a file")

    p = sub.add_parser("dump-mask", help="print the attention mask as rows of 0/1")
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference validation of all gradients")
    return parser


def _cmd_train(args) -> int:
    config = load_run_config(args.config, args.overrides)
    summary = train(config, echo=True)
    print(json.dumps({"event": "done", **summary}))
    return 0


def _reconstruct_shard(model, images: np.ndarray, stems: list[str], output_dir: str) -> None:
    px, _ = model.reconstruct(Tensor(images), deterministic=True)
    scales = tokens_to_images(px.data, model.schedule, model.config.patch)
    for i, stem in enumerate(stems):
        for g, out in zip(model.config.scales, scales):
            save_ppm(out[i], os.path.join(output_dir, f"{stem}_s{g * model.config.patch}.ppm"))


def _encode_rows(model, images: np.ndarray, out: np.ndarray) -> None:
    out[:] = model.latent_for_generation(Tensor(images)).data.reshape(len(images), -1)


def _cmd_reconstruct(args) -> int:
    model = replica(load_checkpoint(args.checkpoint_path), requires_grad=False)
    cfg = model.config
    dataset = load_dataset(args.input_dir, cfg.image_size, cfg.seed)
    stems: dict[str, str] = {}
    for name in dataset.names:
        stem = os.path.splitext(name)[0]
        if stem in stems:
            raise DataError(f"{args.input_dir}: {stems[stem]!r} and {name!r} would both be saved "
                            f"as {stem}_s<side>.ppm")
        stems[stem] = name
    os.makedirs(args.output_dir, exist_ok=True)
    stem_list = list(stems)
    # The first failure in input order is raised: shards are contiguous runs
    # of the inputs, and each saves its images in order.
    run_shards(_reconstruct_shard, [(model, dataset.images[lo:hi], stem_list[lo:hi], args.output_dir)
                                    for lo, hi in shard_bounds(len(dataset), model.schedule.total)])
    print(json.dumps({"event": "reconstruct", "images": len(dataset), "scales": list(cfg.scales)}))
    return 0


def _cmd_export_latents(args) -> int:
    model = replica(load_checkpoint(args.checkpoint_path), requires_grad=False)
    cfg = model.config
    kv = read_config_kv(args.config, args.overrides)
    run = config_from_kv(RunConfig, kv, base=RunConfig(tokenizer=cfg)).validate()
    for key in kv:
        if getattr(run.tokenizer, key, None) != getattr(cfg, key, None):
            raise ConfigError(f"config key {key!r}: {kv[key]} differs from the checkpoint's {getattr(cfg, key)!r}")
    dataset = load_dataset(run.data_dir, cfg.image_size, cfg.seed)
    g = model.schedule.base_grid
    arr = np.empty((len(dataset), g * g * cfg.latent_dim), np.float32)
    # The first failure in shard order is raised.
    run_shards(_encode_rows, [(model, dataset.images[lo:hi], arr[lo:hi])
                              for lo, hi in shard_bounds(len(dataset), g * g)])
    write_latents(arr, args.output_path)
    print(json.dumps({"event": "export-latents", "count": int(arr.shape[0]), "dim": int(arr.shape[1])}))
    return 0


def _cmd_analyze_latent(args) -> int:
    vectors = read_latents(args.latent_path)
    stats = analyze_latents(vectors, grid_size=args.grid, bandwidth=args.bandwidth,
                            pad_bandwidths=args.pad)
    report = json.dumps(stats.to_dict(), indent=2)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 0


def _cmd_dump_mask(args) -> int:
    # The schedule comes from the scales list alone so the mask can be
    # inspected without a full image/patch configuration.
    cfg = config_from_kv(RunConfig, read_config_kv(args.config, args.overrides)).tokenizer
    if not cfg.scales:
        raise ConfigError("config key 'scales': needs at least one grid")
    schedule = build_schedule(cfg.scales[-1], cfg.scales)
    for q_lo, q_hi, k_lo, k_hi in build_mask(schedule, cfg.attention_regime()):
        row = " ".join(["0"] * k_lo + ["1"] * (k_hi - k_lo) + ["0"] * (schedule.total - k_hi))
        print("\n".join([row] * (q_hi - q_lo)))
    return 0


def _cmd_gradcheck(args) -> int:
    ops = op_library_checks()
    worst_op = 0.0
    for name, err in ops.items():
        print(f"op {name}: max_rel_err={err:.3e}")
        worst_op = max(worst_op, err)
    e2e = model_end_to_end_check()
    print(f"model end-to-end: max_rel_err={e2e:.3e}")
    ok = worst_op < OPS_THRESHOLD and e2e < E2E_THRESHOLD
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (ops < {OPS_THRESHOLD:g}, end-to-end < {E2E_THRESHOLD:g})")
    return 0 if ok else 3


_COMMANDS = {
    "train": _cmd_train,
    "reconstruct": _cmd_reconstruct,
    "export-latents": _cmd_export_latents,
    "analyze-latent": _cmd_analyze_latent,
    "dump-mask": _cmd_dump_mask,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing subcommand")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
