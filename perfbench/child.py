"""One workload of the benchmark, run in a fresh process by ``run.py``.

The child calls the program's public entry point ``mstok.cli.main(argv)``
in-process, in a closed loop with one client: each call starts after the
previous one returned. Every line the program prints is captured with the
time it was completed, and every call's exit code and outputs are checked.
The child writes what it measured as JSON to the ``--record`` path.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/child.py --workload train --seed 1 --seconds 10 \
        --mode full --trace 0 --work DIR --record FILE --t-spawn T
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import time

import numpy as np

from stats import finite_total, median, train_timing
from tracer import Tracer, layer_metrics

# Steps 1..TRAIN_WARMUP are excluded from step timing: the first steps of a
# process still fault in buffers and are ~1.5x slower than the steady state.
TRAIN_WARMUP = 3
# Nominal step time that turns --seconds into a fixed step count, so that a
# seed and a run length always give the same checkpoint.
TRAIN_NOMINAL_STEP_S = 0.6
REC_IMAGES, REC_SIZE, REC_SCALES = 32, 64, "1,2,4,8,16"
LAT_IMAGES, LAT_SIZE = 2048, 32
# The step-0 checkpoints depend on the model config alone; a small synthetic
# set keeps the eval sweep that ends ``mstok train`` short.
CKPT_DATA = "synthetic:16"


class LineClock(io.TextIOBase):
    """Text sink that records ``(time, line)`` when each line is completed."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._pending = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._pending += text
        if "\n" in self._pending:
            *complete, self._pending = self._pending.split("\n")
            now = time.monotonic()
            self.lines.extend((now, line) for line in complete)
        return len(text)


def run_call(main, argv: list[str]) -> dict:
    """Call ``main(argv)`` with stdout and stderr captured.

    A call that raises or returns nonzero is a failed op; it never stops the
    benchmark.
    """
    out, err = LineClock(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    start = time.monotonic()
    try:
        code = main(argv)
    except Exception as exc:  # the op failed; record it and go on
        code = None
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        end = time.monotonic()
        sys.stdout, sys.stderr = saved
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return {"kind": argv[0], "t0": start, "t1": end, "ok": error is None,
            "error": error, "lines": out.lines}


class Session:
    """Ops of one child: calls into the program plus the checks on them."""

    def __init__(self, main, work: str, seed: int):
        self.main = main
        self.work = work
        self.seed = seed
        self.ops: list[dict] = []
        self.argv: dict[str, list[str]] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def call(self, argv: list[str], check=None) -> dict:
        """One op. ``check(op)`` returns a problem string or None."""
        self.argv.setdefault(argv[0], argv)
        op = run_call(self.main, argv)
        if op["ok"] and check is not None:
            try:
                fail(op, check(op))
            except (OSError, ValueError) as err:
                fail(op, f"output unreadable: {err}")
        self.ops.append(op)
        return op

    def add_op(self, kind: str, problem: str | None) -> None:
        self.ops.append({"kind": kind, "ok": problem is None, "error": problem})


def fail(op: dict, problem: str | None) -> None:
    if problem and op["ok"]:
        op["ok"] = False
        op["error"] = problem


# ---------------------------------------------------------------------------
# Inputs, made from the workload seed
# ---------------------------------------------------------------------------

def make_images(count: int, size: int, seed: int) -> np.ndarray:
    """``count`` RGB uint8 images: summed sinusoids plus one solid rectangle."""
    rng = np.random.default_rng([seed, count, size])
    freq = rng.uniform(0.5, 3.0, size=(count, 3, 3, 2, 1, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, 3, 3, 1, 1))
    corners = rng.integers(0, size // 2, size=(count, 2))
    sides = rng.integers(size // 8, size // 2 + 1, size=(count, 2))
    colors = rng.uniform(0.0, 1.0, size=(count, 3, 1, 1))
    yy, xx = np.mgrid[0:size, 0:size] / size
    out = np.empty((count, size, size, 3), dtype=np.uint8)
    for start in range(0, count, 128):
        part = slice(start, start + 128)
        waves = freq[part, :, :, 0] * xx + freq[part, :, :, 1] * yy
        field = np.sin(2.0 * np.pi * waves + phase[part]).sum(axis=2)
        lo = field.min(axis=(1, 2, 3), keepdims=True)
        field = (field - lo) / np.maximum(field.max(axis=(1, 2, 3), keepdims=True) - lo, 1e-9)
        for i, img in enumerate(field, start):
            (r, c), (h, w) = corners[i], sides[i]
            img[:, r : r + h, c : c + w] = colors[i]
        out[part] = np.rint(field * 255.0).astype(np.uint8).transpose(0, 2, 3, 1)
    return out


def write_images(directory: str, count: int, size: int, seed: int) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    stems = []
    for i, pixels in enumerate(make_images(count, size, seed)):
        stem = f"img_{i:05d}"
        with open(os.path.join(directory, stem + ".ppm"), "wb") as fh:
            fh.write(b"P6\n%d %d\n255\n" % (size, size))
            fh.write(pixels.tobytes())
        stems.append(stem)
    return stems


# ---------------------------------------------------------------------------
# Output checks, independent of the program's own readers
# ---------------------------------------------------------------------------

def ppm_side(path: str) -> int | None:
    """Side of a square binary PPM whose size matches its header, else None."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        return None
    w, h = (int(v) for v in parts[1].split())
    return w if w == h and len(parts[3]) == 3 * w * h else None


def check_reconstruction(out_dir: str, stems: list[str], sides: list[int]) -> str | None:
    expected = {f"{stem}_s{side}.ppm": side for stem in stems for side in sides}
    found = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    if found != set(expected):
        return f"wrote {len(found)} files, expected {len(expected)} (images x scales)"
    for name, side in expected.items():
        if ppm_side(os.path.join(out_dir, name)) != side:
            return f"{name}: not a {side}x{side} PPM"
    return None


def digest_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_hlat(path: str, count: int, dim: int) -> str | None:
    with open(path, "rb") as fh:
        header = fh.read(12)
    if len(header) != 12 or header[:4] != b"HLAT":
        return "HLAT header missing"
    n, d = np.frombuffer(header[4:], dtype="<u4").tolist()
    if (n, d) != (count, dim) or os.path.getsize(path) != 12 + 4 * n * d:
        return f"HLAT is {n} x {d}, expected {count} x {dim}"
    return None


def check_analysis(path: str) -> str | None:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    for key in ("gini", "norm_entropy"):
        value = report.get(key)
        if not (finite_total(value) and 0.0 <= value <= 1.0):
            return f"{key}={value!r} outside [0, 1]"
    return None


def same_digest(digests: list[str], digest: str) -> str | None:
    digests.append(digest)
    return None if digest == digests[0] else "output differs from the first repeat with this seed"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def train_workload(s: Session, seconds: float, setup_only: bool, tracer) -> dict:
    from mstok.config import RunConfig
    from mstok.model import CheckpointError, load_checkpoint

    timed = 0 if setup_only else max(4, round(seconds / TRAIN_NOMINAL_STEP_S))
    steps = TRAIN_WARMUP + timed
    ckpt = s.path("train.htok")
    argv = ["train", "--set", f"steps={steps}", "--set", "log_interval=1",
            "--set", f"checkpoint={ckpt}", "--set", f"seed={s.seed}"]
    with tracing(tracer):
        op = s.call(argv)
    timing = train_timing(op["lines"], TRAIN_WARMUP)
    for step in range(1, steps + 1):
        total = timing["totals"].get(step)
        s.add_op("step", None if finite_total(total) else f"step {step}: total={total!r}")
    if not timing["has_eval"]:
        fail(op, "no eval line")
    digest = None
    if op["ok"]:
        try:
            load_checkpoint(ckpt)
            digest = digest_files([ckpt])
        except (CheckpointError, OSError) as err:
            fail(op, f"checkpoint does not load: {err}")
    result = {
        "setup_end": timing["setup_end"],
        "op_ms": timing["step_ms"],
        "images_per_op": RunConfig().batch_size,
        "finish_s": timing["finish_s"],
        "digest": digest,
    }
    if tracer and timing["step_ms"]:
        result["layers"] = layer_metrics(tracer.spans, timing["window"], len(timing["step_ms"]),
                                         sum(timing["step_ms"]))
        result["layers"]["model.forward_peak_mb"] = forward_peak_mb("train", ckpt, s.seed)
    return result


def reconstruct_workload(s: Session, seconds: float, setup_only: bool, tracer) -> dict:
    from mstok.config import TokenizerConfig

    inputs, out, ckpt = s.path("images"), s.path("recon"), s.path("recon.htok")
    stems = write_images(inputs, REC_IMAGES, REC_SIZE, s.seed)
    patch = TokenizerConfig().patch
    sides = [int(g) * patch for g in REC_SCALES.split(",")]
    if not step0_checkpoint(s, ckpt, f"image_size={REC_SIZE}", f"scales={REC_SCALES}"):
        return {}
    digests: list[str] = []

    def check(op):
        problem = check_reconstruction(out, stems, sides)
        if problem:
            return problem
        names = sorted(os.listdir(out))
        return same_digest(digests, digest_files([os.path.join(out, n) for n in names]))

    def one() -> dict:
        shutil.rmtree(out, ignore_errors=True)
        return s.call(["reconstruct", ckpt, inputs, out], check)

    one()  # warm-up
    result = {"setup_end": time.monotonic(), "images_per_op": REC_IMAGES}
    if setup_only:
        return result
    with tracing(tracer):
        calls = closed_loop(one, seconds)
    result["op_ms"] = [1000.0 * (op["t1"] - op["t0"]) for op in calls]
    result["digest"] = digests[0] if digests else None
    if tracer and calls:
        window = (calls[0]["t0"], calls[-1]["t1"])
        result["layers"] = layer_metrics(tracer.spans, window, REC_IMAGES * len(calls))
        result["layers"]["model.forward_peak_mb"] = forward_peak_mb("reconstruct", ckpt, s.seed)
    return result


def latents_workload(s: Session, seconds: float, setup_only: bool, tracer) -> dict:
    from mstok.config import TokenizerConfig

    cfg = TokenizerConfig()
    dim = (cfg.image_size // cfg.patch) ** 2 * cfg.latent_dim
    inputs, ckpt = s.path("images"), s.path("latents.htok")
    hlat, report = s.path("latents.hlat"), s.path("analysis.json")
    write_images(inputs, LAT_IMAGES, LAT_SIZE, s.seed)
    if not step0_checkpoint(s, ckpt):
        return {}
    digests: list[str] = []

    def export() -> dict:
        for path in (hlat, report):
            if os.path.exists(path):
                os.remove(path)
        return s.call(["export-latents", "--set", f"data_dir={inputs}", ckpt, hlat],
                      lambda op: check_hlat(hlat, LAT_IMAGES, dim))

    def one() -> tuple[dict, dict]:
        exported = export()
        analyze = s.call(["analyze-latent", hlat, "--out", report],
                         lambda op: check_analysis(report)
                         or same_digest(digests, digest_files([hlat, report])))
        return exported, analyze

    export()  # warm-up: the encoder forward dominates the first round
    result = {"setup_end": time.monotonic()}
    if setup_only:
        return result
    with tracing(tracer):
        rounds = closed_loop(one, seconds)
    export_s = [e["t1"] - e["t0"] for e, _ in rounds]
    analyze_s = [a["t1"] - a["t0"] for _, a in rounds]
    result.update({
        "op_ms": [1000.0 * (e + a) for e, a in zip(export_s, analyze_s)],
        "export_images_per_s": median([LAT_IMAGES / t for t in export_s]),
        "analyze_s": median(analyze_s),
        "digest": digests[0] if digests else None,
    })
    if tracer and rounds:
        window = (rounds[0][0]["t0"], rounds[-1][1]["t1"])
        result["layers"] = layer_metrics(tracer.spans, window, len(rounds))
        result["layers"]["model.forward_peak_mb"] = forward_peak_mb("latents", ckpt, s.seed)
    return result


WORKLOADS = {
    "train": train_workload,
    "reconstruct": reconstruct_workload,
    "latents": latents_workload,
}


def step0_checkpoint(s: Session, ckpt: str, *overrides: str) -> bool:
    """Write an untrained checkpoint with ``mstok train --set steps=0``."""
    sets = ["steps=0", *overrides, f"data_dir={CKPT_DATA}", f"seed={s.seed}", f"checkpoint={ckpt}"]
    return s.call(["train", *(arg for kv in sets for arg in ("--set", kv))])["ok"]


@contextlib.contextmanager
def tracing(tracer):
    """Install ``tracer`` (if any) for the duration of the block."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def closed_loop(one, seconds: float) -> list:
    """Repeat ``one()`` until ``seconds`` have passed; at least three times."""
    results = []
    start = time.monotonic()
    while len(results) < 3 or time.monotonic() - start < seconds:
        results.append(one())
    return results


def forward_peak_mb(workload: str, ckpt: str, seed: int) -> float:
    """tracemalloc peak of one forward pass as the workload runs it."""
    import tracemalloc

    from mstok.model import load_checkpoint
    from mstok.tensor import Tensor, make_rng

    model = load_checkpoint(ckpt)
    size = model.config.image_size
    batch = 1 if workload == "reconstruct" else 64
    x = Tensor(make_images(batch, size, seed).transpose(0, 3, 1, 2).astype(np.float32) / 127.5 - 1.0)
    tracemalloc.start()
    try:
        # ``out`` keeps the outputs and their graph alive while the peak is read.
        if workload == "train":
            out = model.reconstruct(x, deterministic=False, rng=make_rng(seed, stream=1), training=True)
        elif workload == "reconstruct":
            out = model.reconstruct(x, deterministic=True)
        else:
            out = model.latent_for_generation(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def provenance() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args()

    from mstok.cli import main as mstok_main

    os.makedirs(args.work, exist_ok=True)
    session = Session(mstok_main, args.work, args.seed)
    tracer = Tracer() if args.trace else None
    result = WORKLOADS[args.workload](session, args.seconds, args.mode == "setup", tracer)
    if result.get("setup_end") is not None:
        result["setup_s"] = result.pop("setup_end") - args.t_spawn
    result["ops"] = [{k: v for k, v in op.items() if k in ("kind", "ok", "error")}
                     for op in session.ops]
    result["argv"] = session.argv
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
