"""SQLite as a second, independent oracle for query results.

``bench/reference.py`` and ``tests/reference_runner.py`` were written
beside the engine, with its semantic assumptions. The standard
library's ``sqlite3`` was not. Each statement here runs twice: through
a :class:`~repro.Session` (parse, plan, execute) and, rendered by
:func:`repro.sql.query_to_sql` with the foreign-key equalities the SPJ
model leaves implicit, through an in-memory SQLite copy of the same
tables. The two results must be the same multiset of rows, floats
equal to a relative tolerance.

Where the two engines disagree by design, the disagreement is named in
:data:`DIVERGENCES` (and in DESIGN §21) and pinned by its own test; the
comparison maps SQLite's answer onto the engine's only there.
"""

from __future__ import annotations

import datetime
import math
import sqlite3

import pytest

from repro import Session
from repro.catalog import ColumnType
from repro.expressions import col, conjunction
from repro.optimizer import SPJQuery
from repro.sql import parse_query, query_to_sql

from tests.conftest import battery_queries

#: The by-design disagreements, as ``aggregate -> (engine, SQLite)``
#: over an empty input: the engine's SUM is SQLite's TOTAL, and its
#: empty MIN / MAX / AVG is NaN where SQL says NULL.
DIVERGENCES = {
    "sum": (0.0, None),
    "min": (math.nan, None),
    "max": (math.nan, None),
    "avg": (math.nan, None),
}

_SQLITE_TYPES = {
    ColumnType.INT64: "INTEGER",
    ColumnType.FLOAT64: "REAL",
    ColumnType.STRING: "TEXT",
    ColumnType.DATE: "TEXT",
}

#: Statements the batteries do not send: OR, NOT, LIKE, IN-lists,
#: arithmetic, multi-column GROUP BY, DISTINCT, ORDER BY … LIMIT.
HAND_STATEMENTS = {
    "tpch": [
        "SELECT COUNT(*) AS n, SUM(lineitem.l_quantity) AS q FROM lineitem "
        "WHERE lineitem.l_quantity < 5 OR lineitem.l_discount > 0.09",
        "SELECT COUNT(*) AS n FROM part "
        "WHERE NOT (part.p_size BETWEEN 10 AND 40) AND part.p_brand NOT LIKE 'Brand#1%'",
        "SELECT part.p_container, COUNT(*) AS n FROM part "
        "WHERE part.p_container LIKE '%BOX%' GROUP BY part.p_container",
        "SELECT COUNT(*) AS n FROM part WHERE part.p_brand LIKE 'brand#1%'",
        "SELECT COUNT(*) AS n, AVG(lineitem.l_extendedprice) AS a FROM lineitem "
        "WHERE lineitem.l_quantity IN (1, 7.0, 13, 13) "
        "AND lineitem.l_shipdate NOT IN ('1995-01-01', '1996-06-30')",
        "SELECT SUM(lineitem.l_extendedprice) AS rev, "
        "MAX(lineitem.l_extendedprice) AS top FROM lineitem "
        "WHERE lineitem.l_extendedprice * (1 - lineitem.l_discount) "
        "/ lineitem.l_quantity > 1500.5",
        "SELECT COUNT(*) AS n FROM lineitem, part "
        "WHERE part.p_size * 2 + 1 < lineitem.l_quantity - 10",
        "SELECT part.p_size, part.p_container, COUNT(*) AS n, "
        "MIN(lineitem.l_quantity) AS lo FROM lineitem, part "
        "WHERE part.p_size < 6 GROUP BY part.p_size, part.p_container",
        "SELECT customer.c_nationkey, orders.o_custkey, "
        "SUM(orders.o_totalprice) AS spend FROM orders, customer "
        "WHERE customer.c_acctbal > 8000 "
        "GROUP BY customer.c_nationkey, orders.o_custkey "
        "ORDER BY spend LIMIT 7",
        "SELECT lineitem.l_shipdate, COUNT(*) AS n FROM lineitem "
        "GROUP BY lineitem.l_shipdate ORDER BY lineitem.l_shipdate LIMIT 5",
        "SELECT DISTINCT part.p_size FROM part WHERE part.p_size > 45",
        "SELECT orders.o_orderkey, orders.o_orderdate FROM orders "
        "WHERE orders.o_totalprice > 300000 ORDER BY orders.o_orderkey LIMIT 6",
        "SELECT * FROM orders, customer WHERE orders.o_orderkey < 4",
    ],
    "star": [
        "SELECT dim1.d_label, COUNT(*) AS n FROM fact, dim1 "
        "WHERE dim1.d_attr < 40 OR fact.f_measure2 > 9.9 GROUP BY dim1.d_label "
        "ORDER BY dim1.d_label LIMIT 4",
    ],
    "snowflake": [
        "SELECT brand.b_attr, SUM(sales.s_price) AS r FROM sales, item, brand "
        "WHERE NOT sales.s_discount > 0.05 AND brand.b_attr IN (3, 5, 8) "
        "GROUP BY brand.b_attr",
        "SELECT COUNT(*) AS n, SUM(sales.s_price) AS r FROM sales, promotion "
        "WHERE promotion.p_kind = 1 "
        "AND promotion.p_lo <= sales.s_price AND sales.s_price < promotion.p_hi",
    ],
}


# ----------------------------------------------------------------------
# Loading and rendering
# ----------------------------------------------------------------------
def _iso(ordinal) -> str:
    return datetime.date.fromordinal(int(ordinal)).isoformat()


def load_into_sqlite(database) -> sqlite3.Connection:
    """An in-memory SQLite copy of ``database`` (dates as ISO text, so
    the ISO literals ``query_to_sql`` writes compare as dates)."""
    connection = sqlite3.connect(":memory:")
    connection.execute("PRAGMA case_sensitive_like = ON")
    for name in database.table_names:
        table = database.table(name)
        schema = table.schema
        names = schema.column_names
        declared = ", ".join(
            f"{column} {_SQLITE_TYPES[schema.column_type(column)]}"
            for column in names
        )
        connection.execute(f"CREATE TABLE {name} ({declared})")
        columns = []
        for column in names:
            values = table.column(column).tolist()
            if schema.column_type(column) is ColumnType.DATE:
                values = [_iso(value) for value in values]
            columns.append(values)
        placeholders = ", ".join("?" * len(names))
        connection.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", zip(*columns)
        )
    return connection


def sqlite_text(query: SPJQuery, database, output_columns) -> str:
    """``query`` as SQLite text: the FK joins made explicit, the hint
    dropped, and ``SELECT *`` spelled as the engine's output columns."""
    joins = [
        col(edge.child_column) == col(edge.parent_column)
        for edge in query.join_edges(database)
    ]
    predicate = conjunction(
        joins + ([query.predicate] if query.predicate is not None else [])
    )
    projection = query.projection
    if projection is None and not (query.aggregates or query.group_by):
        projection = output_columns
    return query_to_sql(
        SPJQuery(
            query.tables,
            predicate,
            projection=projection,
            aggregates=query.aggregates,
            group_by=query.group_by,
            order_by=query.order_by,
            limit=query.limit,
        )
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def engine_rows(frame, database) -> list[tuple]:
    """The engine's result rows, DATE columns mapped back to ISO text."""
    columns = []
    for name in frame.column_names:
        values = frame.column(name).tolist()
        table, _, column = name.rpartition(".")
        if table and database.table(table).schema.column_type(column) is ColumnType.DATE:
            values = [_iso(value) for value in values]
        columns.append(values)
    return list(zip(*columns))


def apply_divergences(rows, query: SPJQuery, output_columns) -> list[tuple]:
    """SQLite's rows with each :data:`DIVERGENCES` case mapped onto the
    engine's answer: only an aggregate column SQLite left NULL."""
    funcs = {spec.alias: spec.func for spec in query.aggregates}
    mapped = []
    for row in rows:
        mapped.append(
            tuple(
                DIVERGENCES[funcs[name]][0]
                if value is None and funcs.get(name) in DIVERGENCES
                else value
                for name, value in zip(output_columns, row)
            )
        )
    return mapped


def _sort_key(row):
    return tuple(
        (1, "") if isinstance(v, float) and math.isnan(v)
        else (0, round(v, 6) if isinstance(v, float) else v)
        for v in row
    )


def _same(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def assert_same_rows(engine, sqlite) -> None:
    assert len(engine) == len(sqlite)
    for left, right in zip(sorted(engine, key=_sort_key), sorted(sqlite, key=_sort_key)):
        assert len(left) == len(right)
        assert all(_same(a, b) for a, b in zip(left, right)), (left, right)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oracles(families):
    """``family -> (database, session, sqlite connection)``."""
    built = {}
    for family, (database, statistics) in families.items():
        built[family] = (
            database,
            Session(database, statistics=statistics),
            load_into_sqlite(database),
        )
    yield built
    for _, _, connection in built.values():
        connection.close()


def check(oracles, family, query) -> None:
    database, session, connection = oracles[family]
    frame = session.execute(query).frame
    output = frame.column_names
    text = sqlite_text(query, database, output)
    sqlite = connection.execute(text).fetchall()
    assert_same_rows(
        engine_rows(frame, database),
        apply_divergences(sqlite, query, output),
    )


@pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
def test_battery_agrees_with_sqlite(oracles, family):
    database = oracles[family][0]
    for query in battery_queries(family, database):
        check(oracles, family, query)


@pytest.mark.parametrize(
    "family, index",
    [(family, i) for family, sqls in HAND_STATEMENTS.items() for i in range(len(sqls))],
)
def test_hand_statement_agrees_with_sqlite(oracles, family, index):
    database = oracles[family][0]
    check(oracles, family, parse_query(HAND_STATEMENTS[family][index], database))


def test_empty_aggregates_are_the_named_divergence(oracles):
    """Over no rows the engine's SUM is 0.0 and its MIN / MAX / AVG NaN;
    SQLite says NULL for all four. COUNT agrees."""
    database, session, connection = oracles["tpch"]
    query = parse_query(
        "SELECT SUM(lineitem.l_quantity) AS s, MIN(lineitem.l_quantity) AS lo, "
        "MAX(lineitem.l_quantity) AS hi, AVG(lineitem.l_quantity) AS a, "
        "COUNT(*) AS n FROM lineitem WHERE lineitem.l_quantity < 0",
        database,
    )
    frame = session.execute(query).frame
    [engine] = engine_rows(frame, database)
    [sqlite] = connection.execute(
        sqlite_text(query, database, frame.column_names)
    ).fetchall()
    for spec, ours, theirs in zip(query.aggregates, engine, sqlite):
        if spec.func == "count":
            assert ours == theirs == 0
        else:
            expected_ours, expected_theirs = DIVERGENCES[spec.func]
            assert _same(ours, expected_ours) and theirs is expected_theirs


def test_integer_division_is_the_named_divergence(oracles):
    """``/`` is true division in the engine and integer division between
    two INTEGERs in SQLite, so the hand statements divide floats."""
    database, session, connection = oracles["tpch"]
    query = parse_query(
        "SELECT COUNT(*) AS n FROM part WHERE part.p_size / 2 = 3", database
    )
    ours = session.execute(query).frame.column("n")[0]
    [(theirs,)] = connection.execute(sqlite_text(query, database, ["n"])).fetchall()
    sizes = database.table("part").column("p_size")
    assert ours == (sizes == 6).sum()
    assert theirs == ((sizes == 6) | (sizes == 7)).sum()
