"""Benchmark of the ``mstok`` tokenizer: end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, defaults

Workloads (see BENCHMARK.json and perfbench/spec.json for why each exists):
``train``, ``reconstruct`` and ``latents``. Each runs in fresh child
processes with OpenBLAS pinned to at most two threads. With ``--trace 0``
nothing is wrapped and the end-to-end metrics are printed; set-up is done
several times, in separate children, and its median is reported. With
``--trace 1`` the workload runs for half the time untraced and half traced
(every public function of the traced modules wrapped), and the per-layer
metrics are printed, with the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details: provenance, every argv, output digests and the per-workload
metrics under their own names. Exits nonzero, printing no result, if the
program's sources are missing or a child process fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import time

from stats import median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "mstok")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("train", "reconstruct", "latents")
# Set-up is measured this many times per run (median reported).
SETUP_RUNS = 3
# A run must end within 180 s; children are killed at this budget.
BUDGET_S = 170.0
MAX_BLAS_THREADS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


class Runner:
    """Starts the children of one invocation and enforces the time budget."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, workload: str, seed: int, seconds: float, mode: str, trace: int) -> dict:
        self.count += 1
        tag = f"{self.count}-{workload}-{mode}-{trace}"
        work = os.path.relpath(os.path.join(self.work, tag), ROOT)
        record = os.path.join(ROOT, work + ".json")
        log = os.path.join(ROOT, work + ".stderr")
        t_spawn = time.monotonic()
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
                "--trace", str(trace), "--work", work, "--record", record,
                "--t-spawn", repr(t_spawn)]
        with open(log, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                    stdout=err, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag}: child exceeded the time budget") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        if code != 0 or not os.path.exists(record):
            with open(log, encoding="utf-8", errors="replace") as fh:
                detail = fh.read()[-2000:]
            raise BenchError(f"{tag}: child exited with {code}\n{detail}")
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)


def op_counts(records) -> tuple[int, int, list[str]]:
    ops = [op for rec in records for op in rec["ops"]]
    errors = [op["error"] for op in ops if not op["ok"]]
    return len(ops), len(errors), errors[:5]


def tail_entry(values):
    found = tail(values)
    if found is None:
        return {"value": None, "percentile": None, "n": len(values)}
    value, pct, n = found
    return {"value": value, "percentile": pct, "n": n}


def end_to_end(workload: str, main: dict, setups: list[float]) -> tuple[dict, dict]:
    """Benchmark metrics plus the same figures under per-workload names."""
    op_ms = main.get("op_ms") or []
    if workload == "latents":
        images_per_s = main.get("export_images_per_s")
    else:
        images_per_s = main["images_per_op"] * len(op_ms) / (sum(op_ms) / 1000.0) if op_ms else None
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "op_ms_p50": median(op_ms),
        "images_per_s": images_per_s,
    }
    op_tail = tail_entry(op_ms)
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    if workload == "train":
        named.update({"train_images_per_s": images_per_s, "train_step_ms_p50": metrics["op_ms_p50"],
                      "train_step_ms_tail": op_tail, "train_finish_s": main.get("finish_s")})
    elif workload == "reconstruct":
        named.update({"reconstruct_call_ms_p50": metrics["op_ms_p50"],
                      "reconstruct_call_ms_tail": op_tail})
    else:
        named.update({"export_images_per_s": images_per_s, "analyze_s": main.get("analyze_s"),
                      "latents_round_ms_p50": metrics["op_ms_p50"], "latents_round_ms_tail": op_tail})
    named["op_ms_samples"] = op_ms
    return metrics, named


def provenance(records: list[dict], seed: int) -> dict:
    info = dict(records[-1]["provenance"])
    info.update({
        "source_sha256": source_digest(),
        "git": git_state(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads_pinned": blas_threads(),
        "seed": seed,
        "argv": records[-1]["argv"],
    })
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SOURCE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=20).stdout.strip()
    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(runner: Runner, workload: str, seed: int, seconds: int, trace: int) -> dict:
    if trace:
        half = seconds / 2.0
        plain = runner.child(workload, seed, half, "full", 0)
        traced = runner.child(workload, seed, half, "full", 1)
        records = [plain, traced]
        if plain.get("digest") != traced.get("digest"):
            traced["ops"].append({"kind": "trace", "ok": False,
                                  "error": "traced run's output differs from the untraced run's"})
        layers = dict(traced.get("layers") or {})
        base, with_trace = median(plain.get("op_ms") or []), median(traced.get("op_ms") or [])
        if base and with_trace:
            layers["trace.overhead_pct"] = 100.0 * (with_trace / base - 1.0)
        metrics, named = layers, {"trace.plain_op_ms_p50": base, "trace.traced_op_ms_p50": with_trace}
        expected = load_json("../BENCHMARK.json")["per_layer"]
    else:
        records = [runner.child(workload, seed, seconds, "setup", 0) for _ in range(SETUP_RUNS - 1)]
        records.append(runner.child(workload, seed, seconds, "full", 0))
        setups = [r["setup_s"] for r in records if r.get("setup_s") is not None]
        metrics, named = end_to_end(workload, records[-1], setups)
        named["setup_s_samples"] = setups
        expected = load_json("../BENCHMARK.json")["end_to_end"]
    attempted, failed, errors = op_counts(records)
    units = {m["name"]: m["unit"] for m in expected}
    values = {name: metrics.get(name) for name in units}
    complete = all(isinstance(v, (int, float)) for v in values.values())
    named.update({"failed_ops_ratio": failed / attempted if attempted else None,
                  "errors": errors, "digest": records[-1].get("digest")})
    return {
        "workload": workload,
        "details": named,
        "provenance": provenance(records, seed),
        "result": {
            "correct": failed == 0 and complete,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        },
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms_p50", "ms"), ("_mb", "MB"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return ""


def show(outcome: dict) -> None:
    name = outcome["workload"]
    for metric, entry in outcome["result"]["metrics"].items():
        print(f"{name:12s} {metric:32s} {entry['value']!s:>24} {entry['unit']}")
    for metric, value in outcome["details"].items():
        if metric.endswith("_tail") and isinstance(value, dict):
            print(f"{name:12s} {metric:32s} {value['value']!s:>24} ms "
                  f"(p{value['percentile']} of n={value['n']})")
        elif isinstance(value, float):
            print(f"{name:12s} {metric:32s} {value!s:>24} {unit_of(metric)}")
    print(json.dumps({"details": {k: outcome[k] for k in ("workload", "details", "provenance")}}))


def main(argv=None) -> int:
    spec = load_json("spec.json")
    parser = argparse.ArgumentParser(description="mstok benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=load_json("../BENCHMARK.json")["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"error: program sources not found under {SOURCE}", file=sys.stderr)
        return 2

    # Turn a termination request into an exception so children are reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(work, start + BUDGET_S * len(names))
    try:
        outcomes = []
        for name in names:
            outcomes.append(run_workload(runner, name, args.seed, args.seconds, args.trace))
            show(outcomes[-1])
            if len(names) > 1:
                print(json.dumps(outcomes[-1]["result"]))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    results = [o["result"] for o in outcomes]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{o['workload']}.{k}": v for o in outcomes
                        for k, v in o["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
