"""Every plan the optimizer could have chosen returns the same rows.

Over the TPC-H / star / snowflake battery, for every statement at every
threshold (``planned_battery``), the chosen plan's join input — the plan
below its filter, aggregate, projection, sort and limit — and every
alternative the optimizer considered:

- return base-table rows: every column is the row its table's primary
  key names, and FK-joined rows sit side by side
  (``assert_rows_from_base_tables``);
- return the same multiset of primary-key tuples as one another;
- return the same columns, dtypes and ``WorkCounters`` with the
  sequential scan's index path (``scans._narrowed_scan``) patched out,
  so the scan that reads a narrow integer range through its index is
  the scan that compares every row.
"""

import numpy as np
import pytest

from repro.engine import (
    ExecutionContext,
    Filter,
    HashAggregate,
    Limit,
    Project,
    Sort,
    scans,
)

from tests.conftest import assert_rows_from_base_tables

#: The operators ``Optimizer.finalize_candidate`` puts above the join.
_FINISHING = (Filter, HashAggregate, Project, Sort, Limit)


def join_input(plan):
    """The full-coverage candidate under a finished plan."""
    while isinstance(plan, _FINISHING):
        plan = plan.child
    return plan


def _run(plan, database):
    ctx = ExecutionContext(database)
    frame = plan.execute(ctx)
    return frame, ctx.counters.as_dict()


def key_rows(frame, database):
    """``(tables, keys)``: the tables the frame's rows come from and
    each row's primary-key tuple over them, rows sorted — a multiset."""
    tables = sorted({name.split(".")[0] for name in frame.column_names})
    keys = np.column_stack(
        [
            frame.column(f"{table}.{database.table(table).schema.primary_key}")
            for table in tables
        ]
    )
    return tables, keys[np.lexsort(keys.T[::-1])]


@pytest.fixture
def narrowed_scans(monkeypatch):
    """How many scans read their rows through an index while the test
    runs."""
    counts = [0]
    narrowed_scan = scans._narrowed_scan

    def counting(*args):
        frame = narrowed_scan(*args)
        counts[0] += frame is not None
        return frame

    monkeypatch.setattr(scans, "_narrowed_scan", counting)
    return counts


#: Whether a family's battery has a scan narrow enough for its index:
#: the star battery filters unindexed dimension attributes only.
@pytest.mark.parametrize(
    "family, narrows", [("tpch", True), ("star", False), ("snowflake", True)]
)
def test_every_alternative_returns_the_same_rows(
    family, narrows, families, planned_battery, narrowed_scans, monkeypatch
):
    database = families[family][0]
    rows_of: dict[tuple, tuple] = {}
    for query, threshold, planned in planned_battery[family]:
        plans = [join_input(planned.plan)] + [
            candidate.operator for candidate in planned.alternatives
        ]
        expected = None
        for plan in plans:
            # A signature names a plan within one statement: a star
            # plan's omits its dimension predicates.
            signature = plan.signature()
            key = (repr(query), signature)
            if key not in rows_of:
                frame, counters = _run(plan, database)
                assert_rows_from_base_tables(frame, database)
                with monkeypatch.context() as patched:
                    patched.setattr(scans, "_narrowed_scan", lambda *args: None)
                    full, full_counters = _run(plan, database)
                assert frame.column_names == full.column_names, signature
                for name in frame.column_names:
                    values, want = frame.column(name), full.column(name)
                    assert values.dtype == want.dtype, (signature, name)
                    np.testing.assert_array_equal(
                        values, want, err_msg=f"{signature}: {name}"
                    )
                assert counters == full_counters, signature
                rows_of[key] = key_rows(frame, database)
            tables, keys = rows_of[key]
            if expected is None:
                expected = (signature, tables, keys)
                continue
            label = f"{query!r} at {threshold}: {signature} vs {expected[0]}"
            assert tables == expected[1], label
            np.testing.assert_array_equal(keys, expected[2], err_msg=label)
    assert (narrowed_scans[0] > 0) == narrows
