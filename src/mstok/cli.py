"""Command-line interface.

Subcommands: train, reconstruct, analyze-latent, dump-mask, gradcheck,
export-latents. Every subcommand except analyze-latent and gradcheck takes
``--config FILE`` plus repeatable ``--set key=value`` overrides. dump-mask
reads only ``scales`` and ``regime`` from them, but still rejects unknown keys.
reconstruct and export-latents run the model under ``tensor.no_grad``: they
build no autograd graph, so each intermediate array is freed as soon as the
next op has read it, and their outputs are bit-identical to graph mode.
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
from .pyramid import build_schedule
from .tensor import DataError, NumericError, Tensor, no_grad
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
    common(p)
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


def _cmd_reconstruct(args) -> int:
    model = load_checkpoint(args.checkpoint_path)
    cfg = model.config
    dataset = load_dataset(args.input_dir, cfg.image_size, cfg.seed)
    os.makedirs(args.output_dir, exist_ok=True)
    for name, image in zip(dataset.names, dataset.images):
        with no_grad():
            outputs, _ = model.reconstruct(Tensor(image[None]), deterministic=True)
        stem = os.path.splitext(name)[0]
        for g, out in zip(cfg.scales, outputs):
            side = g * cfg.patch
            save_ppm(out.data[0], os.path.join(args.output_dir, f"{stem}_s{side}.ppm"))
    print(json.dumps({"event": "reconstruct", "images": len(dataset), "scales": list(cfg.scales)}))
    return 0


def _cmd_export_latents(args) -> int:
    model = load_checkpoint(args.checkpoint_path)
    cfg = model.config
    run = load_run_config(args.config, args.overrides)
    dataset = load_dataset(run.data_dir, cfg.image_size, cfg.seed)
    vectors = []
    for start in range(0, len(dataset), run.batch_size):
        x = Tensor(dataset.images[start : start + run.batch_size])
        with no_grad():
            mu = model.latent_for_generation(x)
        vectors.append(mu.data.reshape(mu.shape[0], -1))
    arr = np.concatenate(vectors, axis=0)
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
    mask = build_mask(schedule, cfg.attention_regime())
    for row in mask.allow:
        print(" ".join("1" if v else "0" for v in row))
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
