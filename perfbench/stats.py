"""Pure helpers of the benchmark: order statistics, step timing from
timestamped log lines, and self time from nested spans.

Nothing here imports the program, so the helpers can be tested alone.
"""

from __future__ import annotations

import json
import math
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it, so a single slow sample cannot set it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else None


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile that leaves at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``, or ``None`` when there are not enough
    samples. The percentile is the share of samples at or below the value.
    """
    n = len(values)
    index = n - 1 - beyond
    if index < 0:
        return None
    ordered = sorted(values)
    return ordered[index], 100.0 * (index + 1) / n, n


def train_timing(lines, warmup: int) -> dict:
    """Step timing from ``(time, text)`` log lines of ``mstok train``.

    The gap between the lines of steps k-1 and k is the wall time of step k.
    Steps 1..``warmup`` are excluded; the line of step ``warmup`` ends the
    set-up. ``finish_s`` runs from the last step line to the eval line: the
    final checkpoint write plus the eval sweep.
    """
    step_times: dict[int, float] = {}
    totals: dict[int, float] = {}
    eval_time = None
    for t, text in lines:
        try:
            entry = json.loads(text)
        except ValueError:
            continue
        if not isinstance(entry, dict):
            continue
        if "step" in entry:
            step_times[entry["step"]] = t
            totals[entry["step"]] = entry.get("total")
        elif entry.get("event") == "eval" and eval_time is None:
            eval_time = t
    last = max(step_times) if step_times else None
    step_ms = [
        1000.0 * (step_times[k] - step_times[k - 1])
        for k in range(warmup + 1, (last or 0) + 1)
        if k in step_times and k - 1 in step_times
    ]
    finish_s = None
    if eval_time is not None and last is not None:
        finish_s = eval_time - step_times[last]
    return {
        "setup_end": step_times.get(warmup),
        "window": (step_times.get(warmup), step_times.get(last)),
        "step_ms": step_ms,
        "totals": totals,
        "finish_s": finish_s,
        "has_eval": eval_time is not None,
    }


def finite_total(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def span_times(spans, lo: float = -math.inf, hi: float = math.inf) -> dict:
    """Aggregate ``(name, start, end, parent, outer, value)`` spans per name.

    ``parent`` is the index of the enclosing span or -1; ``outer`` is false
    when a span of the same name encloses this one. Self time is a span's
    duration minus the time its direct children cover. Only spans lying
    wholly inside ``[lo, hi]`` are counted. Returns, per name, the summed
    self time, the summed duration of outer spans, the call count and the
    summed value (a count such as FLOPs or bytes).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, outer, value in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, outer, value) in enumerate(spans):
        if start < lo or end > hi:
            continue
        acc = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0, "value": 0.0})
        duration = end - start
        acc["self"] += duration - covered[i]
        if outer:
            acc["total"] += duration
        acc["calls"] += 1
        if value:
            acc["value"] += value
    return out
