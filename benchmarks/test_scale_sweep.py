"""Paper-scale workload sweep: zero-copy execution at 1x/10x/100x.

The paper's TPC-H testbed is scale factor 1 — 6 M ``lineitem`` rows.
This sweep dials ``TpchConfig(scale=...)`` from the repo's default
60 k up to that size and measures four hand-built physical plans
(scan, index seek, hash join, merge join — each topped with an
aggregate so the plan must actually gather its columns).

Recorded per (scale, plan): best-of-k wall seconds, input rows/sec,
the per-operator :class:`WorkCounters` breakdown
(``operator_spans`` over one untimed recording execution), and the
process peak RSS
(``resource.getrusage`` — scales run ascending so the monotone
``ru_maxrss`` is attributable to the largest completed scale).

Gates:

* every plan's wall-clock stays ~linear in rows — growth exponent at
  most ``GROWTH_EXPONENT_BUDGET``;
* streaming plans hold per-row cost, normalized by the measured
  hardware streaming floor at each scale, to at most
  ``PER_ROW_BUDGET`` growth — per-row engine cost flat or improving
  once the memory hierarchy's own charge for the row volume is
  divided out; gather-bound join plans get the documented
  ``JOIN_PER_ROW_BUDGET`` cache-residency allowance (at 1x the whole
  working set is cache-resident, at 100x random gathers pay DRAM
  latency — see DESIGN.md §13);
* at every scale each plan's input rows are the base tables' rows
  (``tests/conftest.py:assert_rows_from_base_tables``, the same
  provenance oracle tier-1 holds every operator to).

The default run sweeps 1x/10x (CI's ``scale-smoke`` budget); the
``perf``-marked run adds 100x and writes the full
``benchmarks/results/BENCH_scale.json``.
"""

from __future__ import annotations

import json
import resource
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.catalog import date_ordinal
from repro.engine import (
    ExecutionContext,
    HashAggregate,
    HashJoin,
    IndexSeek,
    MergeJoin,
    SeqScan,
)
from repro.engine import kernels
from repro.engine.aggregate import AggregateSpec
from repro.engine.scans import IndexCondition
from repro.expressions import col
from repro.obs import operator_spans
from repro.workloads import TpchConfig, build_tpch_database
from tests.conftest import assert_rows_from_base_tables

#: Streaming plans (scan/seek + count aggregation touch every byte
#: once, in order): per-row wall-clock at the top scale, *normalized
#: by the hardware streaming floor at that scale* (see
#: :func:`_bandwidth_floor`), must stay within this factor of the 1x
#: normalized cost. Raw per-row nanoseconds cannot be gated at 1.2x
#: across a 100x sweep on real hardware: the floor itself — four raw
#: numpy calls with zero engine code — grows ≈2x when the working set
#: moves from L2 (60 k rows ≈ 0.5 MiB/column) to DRAM (6 M rows ≈
#: 48 MiB/column). Normalizing isolates what the engine adds per row
#: from what the memory hierarchy charges for the row volume.
PER_ROW_BUDGET = 1.2
#: Join plans gather through permutation arrays, so their per-element
#: cost is DRAM-latency-bound at 100x while the 1x working set is
#: cache-resident — a hardware effect, not superlinear work (the
#: growth *exponent* gate below proves the work stays ~linear).
#: Measured ≈2.4-3.1x on a single-core runner; budget with headroom.
JOIN_PER_ROW_BUDGET = 3.5
#: Wall-clock must stay ~linear in rows for every plan:
#: log(wall_top/wall_base) / log(scale_top/scale_base) at most this.
GROWTH_EXPONENT_BUDGET = 1.25
#: Plans whose hot loop is sequential (held to PER_ROW_BUDGET).
STREAMING_PLANS = ("seqscan-agg", "indexseek-agg")


def _make_plans():
    """Four plans, each forced to materialize via a top aggregate."""
    ship_lo = date_ordinal("1994-01-01")
    ship_hi = date_ordinal("1994-03-31")
    return {
        # The paper's experiment queries are COUNT(*) aggregates; the
        # scan/join plans use that shape so the sweep measures the
        # streaming path (grouped min/max keeps the sorted-group path
        # covered via the index-seek plan below).
        "seqscan-agg": HashAggregate(
            SeqScan("lineitem", col("lineitem.l_quantity") > 25),
            group_by=["lineitem.l_shipdate"],
            aggregates=[AggregateSpec("count", "*", "n")],
        ),
        "indexseek-agg": HashAggregate(
            IndexSeek(
                "lineitem",
                IndexCondition("l_shipdate", ship_lo, ship_hi),
                residual=col("lineitem.l_quantity") > 10,
            ),
            group_by=["lineitem.l_receiptdate"],
            aggregates=[
                AggregateSpec("count", "lineitem.l_linenumber", "n"),
                AggregateSpec("min", "lineitem.l_quantity", "min_qty"),
            ],
        ),
        "hashjoin-agg": HashAggregate(
            HashJoin(
                SeqScan("part", col("part.p_size") <= 25),
                SeqScan("lineitem", col("lineitem.l_quantity") > 20),
                "part.p_partkey",
                "lineitem.l_partkey",
            ),
            group_by=["part.p_size"],
            aggregates=[AggregateSpec("count", "*", "n")],
        ),
        "mergejoin-agg": HashAggregate(
            MergeJoin(
                SeqScan("part", col("part.p_size") <= 25),
                SeqScan("lineitem", col("lineitem.l_quantity") > 20),
                "part.p_partkey",
                "lineitem.l_partkey",
            ),
            group_by=["lineitem.l_shipdate"],
            aggregates=[AggregateSpec("count", "*", "n")],
        ),
    }


def _bandwidth_floor(db, rounds=5):
    """Hardware streaming floor, ns/row: raw numpy, no engine code.

    The exact kernel sequence a filtered COUNT…GROUP BY needs —
    vectorized compare, ``flatnonzero``, one gather, one ``bincount``
    — with every engine layer removed. Its per-row cost captures what
    the memory hierarchy charges at this working-set size, which is
    the denominator for the streaming-plan per-row gate.
    """
    quantity = db.table("lineitem").column("l_quantity")
    keys = db.table("lineitem").column("l_shipdate")
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        sel = np.flatnonzero(quantity > 25)
        gathered = keys[sel]
        np.bincount(gathered - gathered.min())
        best = min(best, time.perf_counter() - started)
    return best / len(quantity) * 1e9


#: Size of the buffer :func:`_settle_allocator` frees: above the ~12 MiB
#: of temporaries a 10x join allocates, below glibc's 32 MiB cap on its
#: dynamic mmap threshold.
ALLOCATOR_SETTLE_BYTES = 16 << 20


def _settle_allocator():
    """Free one ``ALLOCATOR_SETTLE_BYTES`` buffer before anything is timed.

    glibc returns the top of its heap to the kernel once more than its
    trim threshold is free there, and it raises that threshold (to twice
    the chunk) only when a large mapped chunk is freed. A 10x hash or
    merge join allocates ~12 MiB of temporaries; under a low threshold
    they go back to the kernel when the plan ends and come back as 3 148
    minor faults (~5 ms) on every timed round, which reads as rows^1.3
    growth with no change in the work. Whether the threshold was low
    depended on what the database build happened to free — a build that
    de-duplicated keys with a hash table freed a buffer big enough to
    raise it — so the sweep settles it itself, the same way on every
    commit. Other allocators ignore this.
    """
    np.empty(ALLOCATOR_SETTLE_BYTES // 8)


def _time_plan(plan, db, rounds):
    """Best-of-``rounds`` wall seconds; returns (frame, seconds)."""
    best, frame = float("inf"), None
    for _ in range(rounds):
        ctx = ExecutionContext(db)
        started = time.perf_counter()
        frame = plan.execute(ctx)
        best = min(best, time.perf_counter() - started)
    return frame, best


def run_sweep(scales) -> dict:
    """Run the full sweep ascending and return the JSON-ready payload."""
    payload = {
        "scales": list(scales),
        "base_lineitem": TpchConfig().num_lineitem,
        "kernels": {"semijoin_small_n": kernels.SEMIJOIN_SMALL_N},
        "per_row_budget": PER_ROW_BUDGET,
        "join_per_row_budget": JOIN_PER_ROW_BUDGET,
        "growth_exponent_budget": GROWTH_EXPONENT_BUDGET,
        "streaming_plans": list(STREAMING_PLANS),
        "runs": [],
    }
    _settle_allocator()
    for scale in scales:
        # Small scales finish in sub-millisecond wall-clock, where
        # scheduler noise dominates; buy precision with more rounds.
        rounds = 2 if scale >= 100 else (3 if scale >= 10 else 5)
        db = build_tpch_database(TpchConfig(scale=scale, seed=7))
        num_rows = db.table("lineitem").num_rows
        entry = {
            "scale": scale,
            "lineitem_rows": num_rows,
            "floor_per_row_ns": _bandwidth_floor(db),
            "plans": {},
        }
        for name, plan in _make_plans().items():
            frame, seconds = _time_plan(plan, db, rounds)
            assert_rows_from_base_tables(
                plan.child.execute(ExecutionContext(db)), db
            )
            ctx = ExecutionContext(db, operator_rows={}, operator_work={})
            plan.execute(ctx)
            spans = operator_spans(plan, ctx.operator_record(plan))
            entry["plans"][name] = {
                "seconds": seconds,
                "rows_per_sec": num_rows / seconds,
                "per_row_ns": seconds / num_rows * 1e9,
                "output_rows": frame.num_rows,
                "counters": ctx.counters.as_dict(),
                "operators": [
                    {
                        "operator": s["operator"],
                        "actual_rows": s["actual_rows"],
                        "counters": s["counters"],
                    }
                    for s in spans
                ],
            }
        # Ascending scales: the monotone high-water mark after this
        # scale finishes belongs to it (Linux reports KiB).
        entry["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        payload["runs"].append(entry)
        del db
    return payload


def _check_linear_scaling(payload):
    """Wall-clock scaling gates.

    Every plan must keep its growth *exponent* near 1 (work linear in
    rows); streaming plans additionally hold their absolute per-row
    cost nearly flat, and gather-bound joins get the documented
    cache-residency allowance.
    """
    import math

    runs = {run["scale"]: run for run in payload["runs"]}
    lo_scale, hi_scale = min(runs), max(runs)
    base, top = runs[lo_scale], runs[hi_scale]
    for name in base["plans"]:
        base_plan, top_plan = base["plans"][name], top["plans"][name]
        exponent = math.log(
            top_plan["seconds"] / base_plan["seconds"]
        ) / math.log(hi_scale / lo_scale)
        assert exponent <= GROWTH_EXPONENT_BUDGET, (
            f"{name}: wall-clock grows as rows^{exponent:.2f} "
            f"(budget rows^{GROWTH_EXPONENT_BUDGET})"
        )
        if name in STREAMING_PLANS:
            # Engine-added per-row cost: normalize by the hardware
            # streaming floor at each scale so the L2→DRAM bandwidth
            # cliff (which the raw-numpy floor pays identically) does
            # not masquerade as engine superlinearity.
            base_norm = base_plan["per_row_ns"] / base["floor_per_row_ns"]
            top_norm = top_plan["per_row_ns"] / top["floor_per_row_ns"]
            growth, budget = top_norm / base_norm, PER_ROW_BUDGET
            detail = "floor-normalized per-row cost"
        else:
            growth, budget = (
                top_plan["per_row_ns"] / base_plan["per_row_ns"],
                JOIN_PER_ROW_BUDGET,
            )
            detail = "per-row cost"
        assert growth <= budget, (
            f"{name}: {detail} grew {growth:.2f}x from {lo_scale}x "
            f"to {hi_scale}x (budget {budget}x)"
        )


def _write(payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scale.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def test_scale_sweep_smoke():
    """1x/10x sweep — CI's scale-smoke budget.

    Fixed per-query overheads still matter at 10x, so the smoke gate
    only requires per-row cost not to *grow* beyond the budget; the
    100x acceptance gates live in the perf-marked full sweep.
    """
    payload = run_sweep([1, 10])
    _check_linear_scaling(payload)
    _write(payload)
    for run in payload["runs"]:
        for name, plan in run["plans"].items():
            assert plan["rows_per_sec"] > 0
            assert plan["counters"]["rows_output"] >= plan["output_rows"]


@pytest.mark.perf
def test_scale_sweep_full():
    """1x/10x/100x — the paper-scale sweep with the acceptance gates."""
    payload = run_sweep([1, 10, 100])
    _check_linear_scaling(payload)
    assert payload["runs"][-1]["lineitem_rows"] == 6_000_000
    _write(payload)
