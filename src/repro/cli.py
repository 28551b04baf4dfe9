"""Command-line interface.

Subcommands::

    python -m repro analyze --figure 6
        Print an analytical figure's data series (Figures 1-8).

    python -m repro experiment exp1 --scale 30000 --seeds 4
        Run a Section 6 experiment grid and print the paper's tables.

    python -m repro sql "SELECT COUNT(*) FROM lineitem WHERE ..." \
            --workload tpch --policy 80
        Parse, optimize, and execute a query against a generated
        workload, printing the plan and the simulated execution time.

    python -m repro trace summarize traces.jsonl [--query ID]
        Summarize (or explain one query of) a JSONL trace file
        produced by ``experiment --trace-out`` or ``sql --trace-out``.

    python -m repro chaos --plans 20 --seed 0
        Sweep seeded fault plans (corrupted statistics archives,
        failing estimators, mid-session staleness) against a live
        session and check the graceful-degradation invariants; see
        :mod:`repro.faults`.

    python -m repro feedback report store.json
        Summarize a persisted feedback store (per-namespace key
        counts, observed cardinalities, q-error aggregates); ``reset``
        drops one namespace (or everything) and saves the store back
        atomically; see :mod:`repro.feedback`.

``experiment`` and ``sql`` share one observability flag set:
``--trace`` / ``--trace-out FILE`` record end-to-end query traces
(estimation evidence → optimizer decision → execution provenance) and
``--metrics-out FILE`` writes run metrics in Prometheus text format;
see :mod:`repro.obs`. Both subcommands run through the
:class:`~repro.service.Session` facade. The multi-tenant serving
layer (:mod:`repro.serving`) has no subcommand;
``examples/multi_tenant_serving.py`` drives it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import (
    figure2_plans,
    high_crossover_model,
    paper_default_model,
    sample_size_sweep,
    threshold_sweep,
    tradeoff_curve,
)
from repro.errors import ReproError
from repro.experiments import (
    format_selectivity_table,
    format_tradeoff_table,
)
from repro.experiments.paper_report import PAPER_GRIDS
from repro.selection import PolicyError
from repro.service import Session
from repro.workloads import (
    SnowflakeConfig,
    StarConfig,
    TpchConfig,
    build_snowflake_database,
    build_star_database,
    build_tpch_database,
)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robust query optimization (Babcock & Chaudhuri, SIGMOD 2005)",
    )
    subparsers = parser.add_subparsers(dest="command")

    analyze = subparsers.add_parser(
        "analyze", help="print an analytical figure (Section 5)"
    )
    analyze.add_argument(
        "--figure", type=int, default=6, choices=range(1, 9), metavar="1-8"
    )
    analyze.add_argument(
        "--chart", action="store_true", help="render an ASCII chart too"
    )
    analyze.set_defaults(handler=_cmd_analyze)

    experiment = subparsers.add_parser(
        "experiment", help="run a Section 6 experiment grid"
    )
    experiment.add_argument(
        "name", choices=list(PAPER_GRIDS), help="experiment scenario"
    )
    experiment.add_argument("--scale", type=int, default=30_000)
    experiment.add_argument("--seeds", type=int, default=4)
    experiment.add_argument("--sample-size", type=int, default=500)
    experiment.add_argument("--points", type=int, default=7)
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="seed-parallel worker processes (default: all CPU cores)",
    )
    experiment.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="SPEC",
        help="add a selection-policy arm (e.g. expected:24, cvar:0.9:24,"
        " threshold:0.8) to the default grid; repeatable",
    )
    experiment.add_argument(
        "--perf", action="store_true", help="print cache/timer statistics"
    )
    _add_observability_flags(experiment, what="per-query traces")
    experiment.set_defaults(handler=_cmd_experiment)

    report = subparsers.add_parser(
        "report", help="regenerate every paper figure into one markdown report"
    )
    report.add_argument("--output", default="REPORT.md")
    report.add_argument("--scale", type=int, default=30_000)
    report.add_argument("--fact-rows", type=int, default=40_000)
    report.add_argument("--seeds", type=int, default=4)
    report.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="seed-parallel worker processes (default: all CPU cores)",
    )
    report.set_defaults(handler=_cmd_report)

    sql = subparsers.add_parser("sql", help="optimize and run a SQL query")
    sql.add_argument("query", help="the SELECT statement")
    sql.add_argument(
        "--workload", choices=["tpch", "star", "snowflake"], default="tpch"
    )
    sql.add_argument("--scale", type=int, default=30_000)
    sql.add_argument("--sample-size", type=int, default=500)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument(
        "--policy",
        default=None,
        metavar="SPEC",
        help="selection policy: a confidence threshold (percentage or"
        " named level, e.g. 95), expected:24, cvar:0.9, histogram,"
        " exact, or fixed (default: the moderate threshold, 80)",
    )
    sql.add_argument(
        "--explain-only", action="store_true", help="print the plan, don't run"
    )
    _add_observability_flags(sql, what="a query trace")
    sql.set_defaults(handler=_cmd_sql)

    trace = subparsers.add_parser(
        "trace", help="inspect a JSONL trace file"
    )
    trace.add_argument(
        "action", choices=["summarize"], help="what to do with the traces"
    )
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument(
        "--query",
        metavar="ID",
        default=None,
        help="explain one trace: an exact trace_id or a unique substring",
    )
    trace.set_defaults(handler=_cmd_trace)

    chaos = subparsers.add_parser(
        "chaos",
        help="sweep seeded fault plans against the degradation invariants",
    )
    chaos.add_argument(
        "--plans", type=int, default=20, help="number of fault plans to sweep"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--workload", choices=["tpch", "star", "snowflake"], default="tpch"
    )
    chaos.add_argument("--scale", type=int, default=4_000)
    chaos.add_argument("--sample-size", type=int, default=150)
    chaos.add_argument(
        "--threshold",
        default="80",
        help="confidence threshold (percentage or named level)",
    )
    chaos.add_argument(
        "--max-faults",
        type=int,
        default=3,
        help="maximum faults injected together in one plan",
    )
    chaos.add_argument(
        "--verbose", action="store_true", help="report passing plans too"
    )
    chaos.set_defaults(handler=_cmd_chaos)

    feedback = subparsers.add_parser(
        "feedback", help="inspect or reset a persisted feedback store"
    )
    feedback.add_argument(
        "action", choices=["report", "reset"],
        help="summarize the store, or drop namespaces and save it back",
    )
    feedback.add_argument("store", help="feedback store JSON file")
    feedback.add_argument(
        "--namespace",
        default=None,
        help="limit the report (or the reset) to one namespace",
    )
    feedback.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    feedback.set_defaults(handler=_cmd_feedback)

    return parser


def _add_observability_flags(sub: argparse.ArgumentParser, what: str) -> None:
    """The one flag set every query-running subcommand shares.

    Keeping ``sql`` and ``experiment`` on the same helper guarantees
    flag parity: a new observability flag lands on both (or neither).
    """
    sub.add_argument(
        "--trace",
        action="store_true",
        help=f"record {what} and print the trace view",
    )
    sub.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=f"write {what} as JSONL to FILE (implies --trace)",
    )
    sub.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write run metrics in Prometheus text format to FILE",
    )


def _write_metrics(registry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_prometheus())
    print(f"metrics written to {path}")


# ----------------------------------------------------------------------
def _cmd_analyze(args) -> int:
    figure = args.figure
    if figure in (1, 2, 3):
        model = figure2_plans()
        grid = np.linspace(0, 1, 21)
        costs = model.costs(grid)
        print(f"Figure {figure} cost model (crossover at "
              f"{model.crossover_points()[0]:.1%}):")
        print(f"{'selectivity':>12} {'Plan 1':>9} {'Plan 2':>9}")
        for i, s in enumerate(grid):
            print(f"{s:>12.0%} {costs[0, i]:>9.2f} {costs[1, i]:>9.2f}")
        return 0
    if figure == 4:
        from repro.core import SelectivityPosterior

        posterior = SelectivityPosterior(10, 100)
        print("Figure 4 worked estimates (10 of 100 tuples satisfy):")
        for threshold in (0.2, 0.5, 0.8):
            print(f"  T={threshold:.0%}: {posterior.ppf(threshold):.1%}")
        return 0
    if figure in (5, 8):
        model = paper_default_model() if figure == 5 else high_crossover_model()
        grid = (
            np.arange(0.0, 0.0100001, 0.001)
            if figure == 5
            else np.arange(0.0, 0.2001, 0.02)
        )
        curves = threshold_sweep(model, 1000, selectivities=grid)
        thresholds = list(curves)
        print(f"Figure {figure}: expected time by threshold")
        print(f"{'selectivity':>12} " + " ".join(f"T={t:>4.0%}" for t in thresholds))
        for i, s in enumerate(grid):
            print(
                f"{s:>12.2%} "
                + " ".join(f"{curves[t][i]:>6.1f}" for t in thresholds)
            )
        if getattr(args, "chart", False):
            from repro.experiments import render_ascii_chart

            print()
            print(
                render_ascii_chart(
                    {f"T={t:.0%}": curves[t] for t in (0.05, 0.5, 0.95)},
                    grid,
                    title=f"Figure {figure}",
                    y_format="{:.0f}",
                )
            )
        return 0
    if figure == 6:
        print("Figure 6: performance vs predictability (n=1000)")
        for point in tradeoff_curve(paper_default_model(), 1000):
            print(f"  {point.label:>6}: mean={point.mean_time:6.2f}s "
                  f"std={point.std_time:6.2f}s")
        return 0
    # figure 7
    curves = sample_size_sweep(paper_default_model())
    print("Figure 7: expected time by sample size (T=50%)")
    for size, curve in curves.items():
        print(f"  n={size:>5}: mean={curve.mean():6.2f}s worst={curve.max():6.2f}s")
    return 0


def _cmd_experiment(args) -> int:
    grid = PAPER_GRIDS[args.name]
    # Star plans need a fact table of at least 1000 rows.
    rows = max(args.scale, 1000) if grid.schema == "star" else args.scale
    database, params = grid.build(rows, args.points)

    configs = None
    if args.policy:
        from repro.experiments import default_configs, policy_arm

        try:
            arms = [policy_arm(spec) for spec in args.policy]
        except PolicyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # One arm per name: a spec the default grid already has, or one
        # given twice, adds nothing.
        by_name = {config.name: config for config in default_configs()}
        for arm in arms:
            by_name.setdefault(arm.name, arm)
        configs = list(by_name.values())

    tracing = args.trace or args.trace_out is not None
    session = Session(database, sample_size=args.sample_size)
    result = session.run_experiment(
        grid.template,
        params,
        configs,
        seeds=range(args.seeds),
        workers=args.workers,
        trace=tracing,
    )
    print(format_selectivity_table(result))
    print()
    print(format_tradeoff_table(result))
    if tracing:
        from repro.obs import summarize_traces, write_traces

        trace_path = args.trace_out or f"traces_{args.name}.jsonl"
        count = write_traces(trace_path, result.traces)
        print()
        print(summarize_traces(result.traces))
        print(f"\n{count} traces written to {trace_path}")
    if args.perf:
        print()
        print(result.perf.format_summary())
    if args.metrics_out:
        _write_metrics(session.metrics, args.metrics_out)
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import ReportConfig, generate_report

    config = ReportConfig(
        lineitem_rows=args.scale,
        fact_rows=args.fact_rows,
        seeds=args.seeds,
        workers=args.workers,
    )
    path = generate_report(args.output, config)
    print(f"report written to {path}")
    return 0


def _cmd_sql(args) -> int:
    database = _workload_database(args.workload, args.scale)

    # A bad policy or statement (unknown table or column, syntax) is the
    # user's input: report it, don't print a traceback.
    try:
        session = Session(
            database,
            sample_size=args.sample_size,
            statistics_seed=args.seed,
            policy=args.policy,
        )
        prepared = session.prepare(args.query)
        result = None if args.explain_only else prepared.execute()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(prepared.explain())

    tracing = args.trace or args.trace_out is not None
    if result is not None:
        frame = result.frame
        print(f"\nrows: {frame.num_rows}")
        for name in frame.column_names[: 8]:
            values = frame.column(name)[:5]
            print(f"  {name}: {list(values)}{' ...' if frame.num_rows > 5 else ''}")
        print(f"simulated execution time: {result.simulated_seconds:.4f}s")

    if tracing:
        from repro.obs import explain_trace, write_traces

        record = session.trace_query(
            args.query,
            execute=not args.explain_only,
            label=f"sql/{args.workload}",
        )
        print()
        print(explain_trace([record], record["trace_id"]))
        if args.trace_out:
            write_traces(args.trace_out, [record])
            print(f"\ntrace written to {args.trace_out}")
    if args.metrics_out:
        session.cache_stats()
        _write_metrics(session.metrics, args.metrics_out)
    return 0


#: The workload each ``chaos`` sweep drives under every fault plan:
#: a selection, a second table's selection, and a two-table join, so
#: the sweep exercises single-table fallbacks and join synopses alike;
#: the GROUP BY sizes its groups through the (possibly faulty)
#: estimator too.
_CHAOS_QUERIES = {
    "tpch": (
        "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45",
        "SELECT COUNT(*) FROM part WHERE part.p_size <= 10",
        "SELECT COUNT(*) FROM lineitem, part "
        "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30",
        "SELECT part.p_size, COUNT(*) AS n FROM lineitem, part "
        "WHERE lineitem.l_quantity > 30 GROUP BY part.p_size",
    ),
    "star": (
        "SELECT COUNT(*) FROM dim1 WHERE dim1.d_attr < 100",
        "SELECT COUNT(*) FROM fact, dim1 WHERE dim1.d_attr < 100",
    ),
    "snowflake": (
        "SELECT COUNT(*) FROM sales WHERE sales.s_price < 200",
        "SELECT COUNT(*) FROM sales, item WHERE sales.s_price < item.i_price",
        "SELECT COUNT(*) FROM sales, promotion WHERE promotion.p_kind = 2"
        " AND promotion.p_lo <= sales.s_price"
        " AND sales.s_price < promotion.p_hi",
    ),
}


def _workload_database(workload: str, scale: int):
    """The database a --workload flag names, at --scale rows."""
    if workload == "tpch":
        return build_tpch_database(TpchConfig(num_lineitem=scale, seed=7))
    if workload == "snowflake":
        return build_snowflake_database(
            SnowflakeConfig(num_sales=max(scale, 1000), seed=7)
        )
    return build_star_database(StarConfig(num_fact=max(scale, 1000), seed=7))


def _cmd_chaos(args) -> int:
    from repro.faults import ChaosHarness, generate_fault_plans

    database = _workload_database(args.workload, args.scale)
    harness = ChaosHarness(
        database,
        _CHAOS_QUERIES[args.workload],
        sample_size=args.sample_size,
        threshold=args.threshold,
    )
    plans = generate_fault_plans(
        args.plans,
        seed=args.seed,
        tables=tuple(database.table_names),
        max_faults=args.max_faults,
    )
    report = harness.run(plans)
    print(report.format_summary(verbose=args.verbose))
    return 0 if report.passed else 1


def _cmd_feedback(args) -> int:
    import json

    from repro.feedback import FeedbackError, FeedbackStore

    try:
        store = FeedbackStore.load(args.store)
    except FeedbackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.action == "reset":
        dropped = store.reset(args.namespace)
        store.save(args.store)
        scope = (
            f"namespace {args.namespace!r}"
            if args.namespace is not None
            else "all namespaces"
        )
        print(f"dropped {dropped} keys from {scope}; store saved")
        return 0

    report = store.report()
    if args.namespace is not None:
        if args.namespace not in report:
            print(
                f"error: namespace {args.namespace!r} not in store "
                f"(has {sorted(report)})",
                file=sys.stderr,
            )
            return 1
        report = {args.namespace: report[args.namespace]}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if not report:
        print("feedback store is empty")
        return 0
    for namespace, slot in report.items():
        print(
            f"{namespace}: {slot['keys']} keys, "
            f"{slot['observations']} observations"
        )
        for key, record in slot["records"].items():
            print(
                f"  {key}: n={record['observations']} "
                f"mean_rows={record['mean_rows']:.1f} "
                f"geomean_q={record['geomean_q_error']:.2f} "
                f"max_q={record['max_q_error']:.2f}"
            )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import TraceError, explain_trace, read_traces, summarize_traces

    try:
        records = read_traces(args.file)
        if args.query is not None:
            print(explain_trace(records, args.query))
        else:
            print(summarize_traces(records))
    except (OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
