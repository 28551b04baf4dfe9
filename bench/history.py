"""Append-only benchmark history and the comparisons made against it.

One JSON line per run in ``bench/history/<workload>.jsonl``, keyed by
commit and machine fingerprint, so a regression is a diff against the
previous line. ``compare`` judges the last two lines of every file by
the catalogue's bounds; ``disagreements`` judges two runs of the same
code (``--repeat 2 --check``).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

import numpy
import scipy

from bench.catalogue import END_TO_END, PER_LAYER

ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY = pathlib.Path(__file__).resolve().parent / "history"


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository
    (the driver's checkouts are plain directories)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def append(workload: str, record: dict) -> None:
    HISTORY.mkdir(exist_ok=True)
    line = {"commit": commit_sha(), "machine": fingerprint(), **record}
    with open(HISTORY / f"{workload}.jsonl", "a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")


def worsening(metric, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of
    ``before`` (negative = better)."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if metric.better == "lower" else -change


def compare() -> list[str]:
    """Regressions between the last two history lines of each workload,
    printing every metric's change on the way."""
    regressions = []
    for path in sorted(HISTORY.glob("*.jsonl")):
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            print(f"{path.stem}: fewer than two runs recorded")
            continue
        before, after = (json.loads(line) for line in lines[-2:])
        print(f"{path.stem}: {before['commit'][:10]} -> {after['commit'][:10]}")
        if before["machine"] != after["machine"]:
            print("  (different machines: timings are not comparable)")
        for metric in END_TO_END:
            old = before["end_to_end"][metric.name]
            new = after["end_to_end"][metric.name]
            worse = worsening(metric, old, new)
            flag = ""
            if worse > metric.bound:
                flag = f"  REGRESSION (bound {metric.bound:.0%})"
                regressions.append(f"{path.stem}.{metric.name}")
            print(
                f"  {metric.name:<22}{old:>14.4f} -> {new:>14.4f} "
                f"{metric.unit:<6}{worse:+8.1%}{flag}"
            )
    return regressions


def disagreements(first: dict, second: dict) -> tuple[dict, list[str]]:
    """Two runs of one workload on the same code and seed: the spread of
    each end-to-end metric, and what should have matched but did not."""
    spreads, problems = {}, []
    for metric in END_TO_END:
        a = first["end_to_end"][metric.name]
        b = second["end_to_end"][metric.name]
        spread = abs(a - b) / min(abs(a), abs(b)) if min(abs(a), abs(b)) else 0.0
        spreads[metric.name] = spread
        if metric.name != "setup_s" and spread > metric.bound:
            problems.append(
                f"{metric.name}: {a:.6g} vs {b:.6g} ({spread:.1%} > "
                f"{metric.bound:.0%})"
            )
    for name in ("sim_seconds_mean", "sim_seconds_std"):
        a, b = first["end_to_end"][name], second["end_to_end"][name]
        if abs(a - b) > 1e-9 * abs(a):
            problems.append(f"{name} is not exact: {a!r} vs {b!r}")
    for key in ("stream_sha", "plan_digest", "result_digest"):
        if first["checks"][key] != second["checks"][key]:
            problems.append(f"{key} differs")
    for metric in PER_LAYER:
        if metric.exact:
            a = first["per_layer"][metric.name]
            b = second["per_layer"][metric.name]
            if a != b:
                problems.append(f"{metric.name} is not exact: {a!r} vs {b!r}")
    return spreads, problems
