"""Renderers behind ``repro trace summarize``.

Two views over a trace file:

* :func:`summarize_traces` — the fleet view: per-phase latency
  breakdowns (from the non-deterministic ``timing`` fields) and
  per-configuration Q-error distributions with under/over-estimation
  rates, plus plan-shape diversity;
* :func:`explain_trace` — the single-query "why this plan" view: the
  winner's provenance against the runner-up, the estimation evidence
  table (``k``/``n``, threshold, quantile, LUT usage), and the
  per-operator execution breakdown.
"""

from __future__ import annotations

import numpy as np

from repro.obs.sink import TraceError


def _percentiles(values: list[float]) -> tuple[float, float, float]:
    array = np.asarray(values, dtype=float)
    return (
        float(np.percentile(array, 50)),
        float(np.percentile(array, 95)),
        float(array.mean()),
    )


def _phase_rows(records: list[dict]) -> list[tuple[str, list[float]]]:
    phases: dict[str, list[float]] = {}
    for record in records:
        for key, value in (record.get("timing") or {}).items():
            if isinstance(value, (int, float)):
                phases.setdefault(key, []).append(float(value))
    return sorted(phases.items())


def summarize_traces(records: list[dict]) -> str:
    """Aggregate a trace file into a human-readable report."""
    if not records:
        raise TraceError("trace file contains no records")
    configs: dict[str, None] = {}
    templates: dict[str, None] = {}
    seeds: set[int] = set()
    for record in records:
        configs.setdefault(record.get("config", "?"))
        templates.setdefault(record.get("template", "?"))
        if record.get("seed") is not None:
            seeds.add(record["seed"])

    lines = [
        f"trace: {len(records)} queries · "
        f"template={','.join(templates)} · "
        f"{len(configs)} configs · {len(seeds)} seeds",
    ]

    phase_rows = _phase_rows(records)
    if phase_rows:
        lines.append("")
        lines.append("phase latency (wall seconds):")
        lines.append(
            f"  {'phase':<28} {'n':>5} {'total':>9} {'mean':>9} "
            f"{'p50':>9} {'p95':>9}"
        )
        for phase, values in phase_rows:
            p50, p95, mean = _percentiles(values)
            lines.append(
                f"  {phase:<28} {len(values):>5} {sum(values):>9.4f} "
                f"{mean:>9.4f} {p50:>9.4f} {p95:>9.4f}"
            )

    lines.append("")
    lines.append("Q-error by config (plan-level, estimated vs actual rows):")
    lines.append(
        f"  {'config':<14} {'n':>5} {'min':>7} {'p50':>7} {'mean':>7} "
        f"{'p95':>7} {'max':>8} {'under':>6} {'over':>5}"
    )
    for config in configs:
        errors: list[float] = []
        under = over = 0
        for record in records:
            if record.get("config") != config:
                continue
            execution = record.get("execution") or {}
            error = execution.get("q_error")
            if error is None:
                continue
            errors.append(float(error))
            under += bool(execution.get("underestimate"))
            over += bool(execution.get("overestimate"))
        if not errors:
            lines.append(f"  {config:<14} {0:>5}")
            continue
        p50, p95, mean = _percentiles(errors)
        n = len(errors)
        lines.append(
            f"  {config:<14} {n:>5} {min(errors):>7.2f} {p50:>7.2f} "
            f"{mean:>7.2f} {p95:>7.2f} {max(errors):>8.2f} "
            f"{under / n:>6.0%} {over / n:>5.0%}"
        )

    lines.append("")
    lines.append("plan shapes by config:")
    for config in configs:
        shapes: dict[str, int] = {}
        for record in records:
            if record.get("config") != config:
                continue
            shape = (record.get("execution") or {}).get("plan_shape")
            if shape:
                shapes[shape] = shapes.get(shape, 0) + 1
        rendered = ", ".join(
            f"{shape} ×{count}"
            for shape, count in sorted(
                shapes.items(), key=lambda item: (-item[1], item[0])
            )
        )
        lines.append(f"  {config}: {rendered or '(no executions traced)'}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _find_record(records: list[dict], query: str) -> dict:
    exact = [r for r in records if r.get("trace_id") == query]
    if exact:
        return exact[0]
    partial = [r for r in records if query in (r.get("trace_id") or "")]
    if len(partial) == 1:
        return partial[0]
    if not partial:
        raise TraceError(f"no trace matches {query!r}")
    ids = ", ".join(r["trace_id"] for r in partial[:5])
    raise TraceError(
        f"{len(partial)} traces match {query!r} (e.g. {ids}); be specific"
    )


def _format_grid(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:.4g}" for v in value) + "]"
    return f"{value:.4g}"


def explain_trace(records: list[dict], query: str) -> str:
    """The "why this plan" explanation for one traced query."""
    record = _find_record(records, query)
    execution = record.get("execution") or {}
    optimizer = record.get("optimizer") or {}
    lines = [f"trace: {record['trace_id']}"]

    winner = optimizer.get("winner") or {}
    lines.append("")
    lines.append(
        f"chosen plan: {winner.get('plan_shape', execution.get('plan_shape', '?'))}"
    )
    if winner.get("cost") is not None:
        lines.append(f"  estimated cost: {winner['cost']:.6f}s")
    if winner.get("cost_vector") is not None:
        grid = winner.get("grid") or []
        vector = ", ".join(
            f"T={t:.0%}:{c:.5f}" for t, c in zip(grid, winner["cost_vector"])
        )
        lines.append(f"  cost across threshold grid: {vector}")
    lines.append(
        f"  won over {max(optimizer.get('finalists', 1) - 1, 0)} other "
        f"finalist(s); {optimizer.get('candidates_considered', '?')} "
        f"candidates considered, {optimizer.get('candidates_pruned', '?')} "
        f"pruned during DP"
    )
    alternatives = optimizer.get("alternatives") or []
    for alt in alternatives[1:3]:
        cost = alt.get("cost")
        margin = ""
        if cost is not None and winner.get("cost"):
            margin = f" (+{(cost / winner['cost'] - 1):.1%})"
        lines.append(
            f"  runner-up: {alt.get('plan_shape', '?')} at "
            f"{cost:.6f}s{margin}"
        )

    if execution:
        lines.append("")
        lines.append(
            f"accuracy: estimated {execution.get('estimated_rows', 0):.1f} rows, "
            f"actual {execution.get('actual_rows', '?')} "
            f"(q-error {execution.get('q_error', 0):.2f}"
            + (
                ", underestimate"
                if execution.get("underestimate")
                else ", overestimate" if execution.get("overestimate") else ""
            )
            + ")"
        )
        lines.append(
            f"simulated time: {execution.get('simulated_seconds', 0):.6f}s"
            + ("  [execution cache hit]" if execution.get("cache_hit") else "")
        )

    estimation = record.get("estimation") or []
    lines.append("")
    lines.append(f"estimation evidence ({len(estimation)} spans):")
    lines.append(
        f"  {'tables':<28} {'source':<10} {'k/n':>12} "
        f"{'threshold':<18} {'quantile':<22} {'lut':>3}"
    )
    for span in estimation:
        tables = "⋈".join(span.get("tables") or [])
        k, n = span.get("k"), span.get("n")
        kn = f"{k}/{n}" if k is not None and n is not None else "-"
        lines.append(
            f"  {tables:<28} {span.get('source', '?'):<10} {kn:>12} "
            f"{_format_grid(span.get('threshold')):<18} "
            f"{_format_grid(span.get('quantile')):<22} "
            f"{'yes' if span.get('lut_hit') else 'no':>3}"
        )

    operators = execution.get("operators") or []
    if operators:
        lines.append("")
        lines.append("execution breakdown (own work per operator):")
        lines.extend(f"  {line}" for line in operator_table(operators))
    return "\n".join(lines)


def operator_table(operators: list[dict]) -> list[str]:
    """Estimated vs. actual rows per operator, as an indented tree.

    ``operators`` are per-operator execution spans in pre-order (or any
    dicts with their ``operator``/``depth``/row fields); the ``work``
    column appears when they carry ``own_work``.
    """
    with_work = bool(operators) and "own_work" in operators[0]
    lines = [
        f"{'operator':<56} {'est rows':>10} {'actual':>8} {'q-err':>6}"
        + (f" {'work':>12}" if with_work else "")
    ]
    for op in operators:
        label = "  " * op.get("depth", 0) + op.get("operator", "?")
        est = op.get("estimated_rows")
        est_text = f"{est:10.1f}" if est is not None else f"{'-':>10}"
        err = op.get("q_error")
        err_text = f"{err:6.2f}" if err is not None else f"{'-':>6}"
        line = f"{label:<56} {est_text} {op.get('actual_rows', 0):>8} {err_text}"
        if with_work:
            line += f" {op.get('own_work', 0):>12.1f}"
        lines.append(line)
    return lines
