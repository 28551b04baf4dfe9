"""Entry point of the benchmark.

One workload, as the driver runs it (the last line of output is the
result object)::

    python3 bench/run.py --workload plan_cold --seed 7 --seconds 20 --trace 0

Everything, each workload and pass in its own process, printing every
metric by name and unit::

    python3 bench/run.py [--seed 7] [--record] [--repeat 2 --check]
    python3 bench/run.py --compare

See README.md for what the workloads and metrics are.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT):
    sys.exit(f"repro was imported from {repro.__file__}, not from {ROOT}/src")

from bench import history  # noqa: E402
from bench.calibrate import Calibrator  # noqa: E402
from bench.catalogue import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402
from bench.statements import digest_of, stream_sha  # noqa: E402
from bench.traced import OUT, run_traced, traced_prefix  # noqa: E402
from bench.workloads import (  # noqa: E402
    SCALES,
    build_workloads,
    peak_rss_mib,
    request_count,
)

SETUPS = 3


def end_to_end(log, setup_seconds, rss_mib: float) -> dict:
    """Timed values are at nominal machine speed (see bench.calibrate)."""
    latencies = log.normalized_latencies() * 1e3
    return {
        "setup_s": float(np.median(setup_seconds)),
        "throughput_qps": float(np.median(log.throughputs())),
        "request_ms_p50": float(np.percentile(latencies, 50)),
        "request_ms_p95": float(np.percentile(latencies, 95)),
        "cpu_ms_per_request": log.cpu_seconds() / len(latencies) * 1e3,
        "peak_rss_mib": rss_mib,
        "sim_seconds_mean": float(np.mean(log.sims)),
        "sim_seconds_std": float(np.std(log.sims)),
    }


def timed_set_up(workload, scale, requests):
    """A fresh set-up and its seconds at nominal machine speed."""
    calibrator = Calibrator()
    before = calibrator.burst()
    started = time.perf_counter()
    target = workload.set_up(scale, requests)
    seconds = time.perf_counter() - started
    return target, seconds / ((before + calibrator.burst()) / 2)


def run_untraced(workload, scale, requests, seed: int) -> tuple[dict, dict, int]:
    """The end-to-end pass: metrics, checks, failed requests."""
    target, seconds = timed_set_up(workload, scale, requests)
    setup_seconds = [seconds]
    gc.collect()
    log = workload.run(target, requests)
    rss_mib = peak_rss_mib()
    checks = {
        "stream_sha": stream_sha(requests),
        "plan_digest": workload.plan_digest(target, requests, log),
        "result_digest": digest_of(repr(result) for result in log.results),
        "machine_factor": log.calibrator.median(),
    }
    wrong = workload.wrong_answers(target, requests, log, seed)
    workload.close(target)
    # Set-up is timed again on fresh objects and the median reported; the
    # repeats come after the loop so they cannot raise its peak RSS.
    for _ in range(SETUPS - 1):
        del target
        gc.collect()
        target, seconds = timed_set_up(workload, scale, requests)
        setup_seconds.append(seconds)
        workload.close(target)
    return end_to_end(log, setup_seconds, rss_mib), checks, log.raised + wrong


def run_one(args) -> int:
    """Driver mode: one workload, one pass, result object last."""
    workload = build_workloads()[args.workload]
    scale = SCALES[args.scale]
    requests = workload.requests(
        args.seed, request_count(workload, scale, args.seconds)
    )
    if args.trace:
        metrics, problems = run_traced(workload, scale, requests, args.seed)
        declared, attempted, failed = PER_LAYER, len(traced_prefix(requests)), 0
        checks = {"problems": problems[:20]}
        correct = not problems and metrics["feedback.stale_hits"] == 0
    else:
        metrics, checks, failed = run_untraced(workload, scale, requests, args.seed)
        declared, attempted = END_TO_END, len(requests)
        correct = failed == 0
    for metric in declared:
        print(f"{metric.name:<40}{metrics[metric.name]:>18.4f} {metric.unit}")
    print("checks " + json.dumps(checks))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in declared
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Suite mode
# ----------------------------------------------------------------------
def _run_process(args, workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--scale", args.scale,
        ],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].partition(" ")[2])


def run_suite(args) -> int:
    """Every workload, untraced then traced, each in a fresh process (a
    replay inside one process would find the content-keyed estimate memo
    and scan cache warm)."""
    names = args.only or list(WORKLOADS)
    records: list[dict] = []
    status = 0
    for repeat in range(args.repeat):
        records.append({})
        for name in names:
            plain, checks = _run_process(args, name, 0)
            layered, trace_checks = _run_process(args, name, 1)
            record = {
                "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                "attempted": plain["attempted"], "failed": plain["failed"],
                "correct": plain["correct"] and layered["correct"],
                "checks": checks,
                "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
                "per_layer": {k: v["value"] for k, v in layered["metrics"].items()},
            }
            records[-1][name] = record
            _print_record(name, repeat, record)
            if not record["correct"]:
                print(f"  INCORRECT: {record['failed']} failed; {trace_checks}")
                status = 1
            if args.record:
                history.append(name, record)
    if args.check:
        status = max(status, _check(records))
    return status


def _print_record(name: str, repeat: int, record: dict) -> None:
    print(f"== {name} (run {repeat + 1}, seed {record['seed']}, "
          f"{record['attempted']} requests, {record['failed']} failed)")
    for metric in END_TO_END:
        value = record["end_to_end"][metric.name]
        print(f"  {metric.name:<40}{value:>18.4f} {metric.unit}")
    for metric in PER_LAYER:
        value = record["per_layer"][metric.name]
        print(f"  {metric.name:<40}{value:>18.4f} {metric.unit}")
    for key, value in record["checks"].items():
        print(f"  {key:<40}{str(value)[:18]:>18}")


def _check(records: list[dict]) -> int:
    """Consecutive repeats must agree within the catalogue's bounds and
    match on everything exact."""
    status = 0
    summary = {}
    for first, second in zip(records, records[1:]):
        for name in first:
            spreads, problems = history.disagreements(first[name], second[name])
            summary[name] = spreads
            print(f"== {name}: spread between repeats")
            for metric, spread in spreads.items():
                print(f"  {metric:<40}{spread:>17.2%}")
            for problem in problems:
                print(f"  DISAGREES: {problem}")
                status = 1
    OUT.mkdir(exist_ok=True)
    (OUT / "check.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(SCALES), default="full")
    parser.add_argument("--only", action="append", choices=list(WORKLOADS),
                        help="suite mode: restrict to this workload (repeatable)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="with --repeat 2: fail unless the repeats agree")
    parser.add_argument("--record", action="store_true",
                        help="append each run to bench/history/<workload>.jsonl")
    parser.add_argument("--compare", action="store_true",
                        help="diff the last two history lines of each workload")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if history.compare() else 0
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
