"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
from stats import span_times, tail, train_timing  # noqa: E402
from tracer import Tracer, layer_units  # noqa: E402


# -- tail percentile ---------------------------------------------------------

def test_tail_leaves_ten_samples_above():
    value, pct, n = tail([float(v) for v in range(30, 0, -1)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert sum(v > value for v in range(1, 31)) == 10


def test_tail_needs_more_than_ten_samples():
    assert tail(list(range(10))) is None
    value, pct, n = tail(list(range(11)))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100.0 / 11)


# -- self time from nested spans ------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("step", 0.0, 10.0, -1, True, None),
        ("block", 1.0, 7.0, 0, True, None),
        ("matmul", 2.0, 4.0, 1, True, 8.0),
        ("matmul", 4.0, 5.0, 1, True, 2.0),
        ("matmul.backward", 8.0, 9.5, 0, True, None),
    ]
    agg = span_times(spans)
    assert agg["step"]["self"] == pytest.approx(10.0 - 6.0 - 1.5)
    assert agg["block"]["self"] == pytest.approx(6.0 - 3.0)
    assert agg["matmul"]["self"] == pytest.approx(3.0)
    assert agg["matmul"]["calls"] == 2 and agg["matmul"]["value"] == 10.0
    assert agg["block"]["total"] == pytest.approx(6.0)


def test_nested_same_name_counts_total_once():
    spans = [("f", 0.0, 4.0, -1, True, None), ("f", 1.0, 3.0, 0, False, None)]
    agg = span_times(spans)
    assert agg["f"]["total"] == pytest.approx(4.0)
    assert agg["f"]["self"] == pytest.approx(4.0)


def test_window_keeps_spans_wholly_inside():
    spans = [("call", 0.0, 10.0, -1, True, None), ("op", 1.0, 2.0, 0, True, None),
             ("op", 3.0, 5.0, 0, True, None), ("op", 9.0, 11.0, 0, True, None)]
    agg = span_times(spans, 2.5, 10.0)
    assert set(agg) == {"op"}
    assert agg["op"]["calls"] == 1 and agg["op"]["self"] == pytest.approx(2.0)


# -- step timing from log lines -------------------------------------------------

def _line(t, **entry):
    return (t, json.dumps(entry))


def test_train_timing_excludes_warmup_and_uses_eval_line():
    lines = [_line(1.0, step=1, total=0.5), _line(2.5, step=2, total=0.4),
             _line(3.1, step=3, total=0.4), (3.2, "not json"),
             _line(3.7, step=4, total=0.3), _line(4.5, step=5, total=0.3),
             _line(5.0, event="eval", psnr=20.0), _line(5.01, event="done")]
    timing = train_timing(lines, warmup=2)
    assert timing["setup_end"] == 2.5
    assert timing["step_ms"] == pytest.approx([600.0, 600.0, 800.0])
    assert timing["window"] == (2.5, 4.5)
    assert timing["finish_s"] == pytest.approx(0.5)
    assert timing["has_eval"] and timing["totals"][5] == 0.3


def test_train_timing_without_eval_line():
    timing = train_timing([_line(1.0, step=1, total=float("nan"))], warmup=1)
    assert timing["step_ms"] == [] and timing["finish_s"] is None
    assert not timing["has_eval"] and math.isnan(timing["totals"][1])


# -- failed calls ---------------------------------------------------------------

def test_raising_or_nonzero_call_is_failed_without_crashing():
    def raises(argv):
        print("partial output")
        raise ValueError("boom")

    def nonzero(argv):
        print("error: bad input", file=sys.stderr)
        return 2

    def ok(argv):
        print("line one")
        return 0

    stdout = sys.stdout
    failed = child.run_call(raises, ["train"])
    assert not failed["ok"] and "ValueError: boom" in failed["error"]
    assert [text for _, text in failed["lines"]] == ["partial output"]
    refused = child.run_call(nonzero, ["reconstruct"])
    assert not refused["ok"] and refused["error"].startswith("exit code 2")
    assert "bad input" in refused["error"]
    passed = child.run_call(ok, ["analyze-latent"])
    assert passed["ok"] and passed["error"] is None and passed["t1"] >= passed["t0"]
    assert sys.stdout is stdout


def test_failed_check_marks_op_failed(tmp_path):
    session = child.Session(lambda argv: 0, str(tmp_path), seed=1)
    session.call(["export-latents"], check=lambda op: "HLAT header missing")
    session.call(["export-latents"], check=lambda op: None)
    session.call(["analyze-latent"], check=lambda op: child.check_analysis(str(tmp_path / "no.json")))
    assert [op["ok"] for op in session.ops] == [False, True, False]
    assert "output unreadable" in session.ops[2]["error"]
    assert run.op_counts([{"ops": session.ops}])[:2] == (3, 2)


# -- inputs and output checks ---------------------------------------------------

def test_inputs_depend_on_seed_only(tmp_path):
    assert np.array_equal(child.make_images(3, 16, 5), child.make_images(3, 16, 5))
    assert not np.array_equal(child.make_images(3, 16, 5), child.make_images(3, 16, 6))
    stems = child.write_images(str(tmp_path), 2, 16, 5)
    assert [child.ppm_side(str(tmp_path / f"{s}.ppm")) for s in stems] == [16, 16]


def test_reconstruction_check_counts_files_and_sides(tmp_path):
    child.write_images(str(tmp_path), 1, 8, 1)
    os.rename(tmp_path / "img_00000.ppm", tmp_path / "a_s8.ppm")
    assert child.check_reconstruction(str(tmp_path), ["a"], [8]) is None
    assert "expected 2" in child.check_reconstruction(str(tmp_path), ["a"], [4, 8])
    os.rename(tmp_path / "a_s8.ppm", tmp_path / "a_s4.ppm")
    assert "not a 4x4" in child.check_reconstruction(str(tmp_path), ["a"], [4])


# -- tracing --------------------------------------------------------------------

def test_tracer_records_forward_and_backward_and_uninstalls():
    from mstok import attention, tensor

    original = tensor.matmul
    tracer = Tracer()
    tracer.install()
    try:
        assert attention.matmul is tensor.matmul is not original
        a = tensor.Tensor(np.ones((2, 3)), requires_grad=True)
        out = tensor.tsum(tensor.matmul(a, np.ones((3, 4))))
        out.backward()
    finally:
        tracer.uninstall()
    assert tensor.matmul is original and attention.matmul is original
    names = [span[0] for span in tracer.spans]
    assert {"tensor.matmul", "tensor.matmul.backward", "tensor.Tensor.backward"} <= set(names)
    flops = [span[5] for span in tracer.spans if span[0] == "tensor.matmul"]
    assert flops == [2.0 * 2 * 3 * 4]
    assert np.array_equal(a.grad, np.full((2, 3), 4.0))


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_units()
    spec = run.load_json("spec.json")
    assert set(spec["per_layer_to_end_to_end"]) == set(layer_units())
    assert set(spec["workloads"]) == {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    main = {"op_ms": [10.0, 12.0], "images_per_op": 4, "peak_rss_mb": 1.0,
            "export_images_per_s": 5.0}
    for workload in run.WORKLOADS:
        metrics, _ = run.end_to_end(workload, main, [1.0])
        assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
        assert all(v > 0 for v in metrics.values())


def test_layer_metrics_report_every_per_layer_name():
    from tracer import layer_metrics

    spans = [("tensor.Tensor.backward", 1.0, 1.5, -1, True, None),
             ("tensor.gelu.backward", 1.1, 1.2, 0, True, None),
             ("train.evaluate", 3.0, 4.0, -1, True, None)]
    steps = layer_metrics(spans, (0.0, 2.0), units=2, step_ms=1600.0)
    assert steps["train.backward.ms"] == pytest.approx(250.0)
    assert steps["tensor.gelu.ms"] == pytest.approx(50.0)
    assert steps["train.other.ms"] == pytest.approx(800.0 - 250.0)
    assert steps["train.evaluate.ms"] == pytest.approx(1000.0)  # per call, not per step
    calls = layer_metrics(spans, (0.0, 2.0), units=2)
    assert calls["train.backward.ms"] == 0.0 and calls["train.evaluate.ms"] == 0.0
    expected = set(layer_units()) - {"model.forward_peak_mb", "trace.overhead_pct"}
    assert set(steps) == set(calls) == expected
