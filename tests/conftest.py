"""Shared fixtures: small hand-built databases and generated workloads.

Session-scoped fixtures are treated as immutable by every test; tests
that need to mutate a database (e.g. add indexes) build their own.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

import repro.engine
from repro.catalog import Column, ColumnType, Database, ForeignKey, Schema, Table
from repro.core import RobustCardinalityEstimator
from repro.engine import ExecutionContext, PhysicalOperator
from repro.optimizer import Optimizer
from repro.optimizer.candidates import PlanCandidate
from repro.sql import parse_query
from repro.stats import StatisticsManager
from repro.workloads import (
    QUERY_BATTERY,
    PartCorrelationTemplate,
    PriceMarkupTemplate,
    PromotionBandTemplate,
    ShippingDatesTemplate,
    SnowflakeChainTemplate,
    SnowflakeConfig,
    StarConfig,
    StarJoinTemplate,
    TpchConfig,
    build_snowflake_database,
    build_star_database,
    build_tpch_database,
)


def make_two_table_db(
    n_part: int = 100, n_lineitem: int = 2000, seed: int = 7
) -> Database:
    """A fresh part/lineitem pair with indexes, safe to mutate."""
    rng = np.random.default_rng(seed)
    part = Table(
        "part",
        Schema(
            [
                Column("p_partkey", ColumnType.INT64),
                Column("p_size", ColumnType.INT64),
                Column("p_brand", ColumnType.STRING),
            ],
            primary_key="p_partkey",
        ),
        {
            "p_partkey": np.arange(n_part),
            "p_size": rng.integers(1, 51, n_part),
            "p_brand": rng.choice([f"Brand#{i}" for i in range(5)], n_part),
        },
    )
    lineitem = Table(
        "lineitem",
        Schema(
            [
                Column("l_id", ColumnType.INT64),
                Column("l_partkey", ColumnType.INT64),
                Column("l_quantity", ColumnType.FLOAT64),
                Column("l_shipdate", ColumnType.DATE),
                Column("l_receiptdate", ColumnType.DATE),
            ],
            primary_key="l_id",
            foreign_keys=[ForeignKey("l_partkey", "part", "p_partkey")],
        ),
        {
            "l_id": np.arange(n_lineitem),
            "l_partkey": rng.integers(0, n_part, n_lineitem),
            "l_quantity": rng.uniform(1, 50, n_lineitem).round(),
            "l_shipdate": rng.integers(729000, 729365, n_lineitem),
            "l_receiptdate": rng.integers(729000, 729365, n_lineitem),
        },
    )
    database = Database([part, lineitem])
    database.validate()
    database.create_index("part", "p_partkey", clustered=True)
    database.create_index("lineitem", "l_id", clustered=True)
    database.create_index("lineitem", "l_shipdate")
    database.create_index("lineitem", "l_receiptdate")
    database.create_index("lineitem", "l_partkey")
    return database


def built_candidates(plans) -> list:
    """Every plan of a priced set (``access_paths``, ``join_candidates``,
    ``star_candidates``) as a ``PlanCandidate``, its tree built — with
    the plan's own estimates annotated — when read."""
    return [PlanCandidate(plans, k, None) for k in range(len(plans))]


def execute_recorded(plan, database, scan_cache=None):
    """One capturing execution of ``plan``: ``(context, record)`` with
    the record ``repro.obs.operator_spans`` reads."""
    ctx = ExecutionContext(
        database, scan_cache=scan_cache, operator_rows={}, operator_work={}
    )
    plan.execute(ctx)
    return ctx, ctx.operator_record(plan)


def materialized_columns(frame) -> list[str]:
    """Names of the frame's columns whose arrays exist in memory: the
    ones read so far, and those the frame was built from as arrays."""
    return [name for name in frame._sources if name in frame._cache]


def assert_rows_from_base_tables(frame, database) -> None:
    """Row provenance: every column of every output row equals, dtype
    included, the base-table row its table's primary-key column names,
    and the rows of two FK-joined tables sit beside each other only
    where the foreign key says they belong.

    A frame of base rows carries each column as ``base[positions]``; the
    one way that can go wrong is positions misaligned between columns,
    and that puts a value next to a key it does not belong to.
    """
    tables = {name.split(".")[0] for name in frame.column_names}
    for table_name in sorted(tables):
        table = database.table(table_name)
        primary = table.schema.primary_key
        base_keys = table.column(primary)
        order = np.argsort(base_keys, kind="stable")
        positions = order[
            np.searchsorted(
                base_keys[order], frame.column(f"{table_name}.{primary}")
            )
        ]
        for column in table.schema.column_names:
            name = table.qualified(column)
            actual, expected = frame.column(name), table.column(column)[positions]
            assert actual.dtype == expected.dtype, name
            np.testing.assert_array_equal(actual, expected, err_msg=name)
        for fk in table.schema.foreign_keys:
            if fk.parent_table in tables:
                np.testing.assert_array_equal(
                    frame.column(f"{table_name}.{fk.column}"),
                    frame.column(f"{fk.parent_table}.{fk.parent_column}"),
                    err_msg=f"{table_name}.{fk}",
                )


@pytest.fixture(scope="session")
def two_table_db() -> Database:
    """A small part/lineitem database (treat as immutable)."""
    return make_two_table_db()


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A small TPC-H-shaped database (treat as immutable)."""
    return build_tpch_database(TpchConfig(num_lineitem=12_000, seed=1))


@pytest.fixture(scope="session")
def star_config() -> StarConfig:
    return StarConfig(num_fact=30_000, num_dim=1000, aligned_fraction=0.12, seed=3)


@pytest.fixture(scope="session")
def star_db(star_config) -> Database:
    """A small star-schema database (treat as immutable)."""
    return build_star_database(star_config)


@pytest.fixture(scope="session")
def snowflake_db() -> Database:
    """A small snowflake-schema database (treat as immutable)."""
    return build_snowflake_database(SnowflakeConfig(num_sales=6_000, seed=9))


@pytest.fixture(scope="session")
def snowflake_stats(snowflake_db) -> StatisticsManager:
    manager = StatisticsManager(snowflake_db)
    manager.update_statistics(sample_size=300, seed=11)
    return manager


@pytest.fixture(scope="session")
def two_table_stats(two_table_db) -> StatisticsManager:
    manager = StatisticsManager(two_table_db)
    manager.update_statistics(sample_size=400, seed=11)
    return manager


@pytest.fixture(scope="session")
def tpch_stats(tpch_db) -> StatisticsManager:
    manager = StatisticsManager(tpch_db)
    manager.update_statistics(sample_size=500, seed=5)
    return manager


@pytest.fixture(scope="session")
def star_stats(star_db) -> StatisticsManager:
    manager = StatisticsManager(star_db)
    manager.update_statistics(sample_size=500, seed=5)
    return manager


#: Statements the TPC-H battery lacks: an indexed IN-list (IndexUnionSeek)
#: and an inequality join condition over the FK chain (NonEquiJoin).
EXTRA_TPCH = (
    "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_shipdate IN "
    "('1997-01-03', '1997-02-04', '1997-03-05')",
    "SELECT COUNT(*) FROM lineitem, orders "
    "WHERE orders.o_orderdate < '1993-01-15' "
    "AND lineitem.l_shipdate > orders.o_orderdate",
)


def spread_params(template, count=3):
    """``count`` parameters evenly inside the template's range."""
    low, high = template.param_range()
    return [low + (high - low) * i // (count + 1) for i in range(1, count + 1)]


def _spread(template, count=3):
    return [template.instantiate(p) for p in spread_params(template, count)]


def parse_battery(database) -> dict:
    """Every query of ``QUERY_BATTERY`` parsed against ``database``."""
    return {name: parse_query(sql, database) for name, sql in QUERY_BATTERY.items()}


def battery_queries(family: str, database) -> list:
    if family == "tpch":
        return (
            list(parse_battery(database).values())
            + [parse_query(sql, database) for sql in EXTRA_TPCH]
            + _spread(ShippingDatesTemplate())
            + _spread(PartCorrelationTemplate())
        )
    if family == "star":
        return _spread(StarJoinTemplate(num_dim=1000))
    return (
        _spread(SnowflakeChainTemplate())
        + _spread(PriceMarkupTemplate())
        + _spread(PromotionBandTemplate())
    )


@pytest.fixture(scope="session")
def families(
    tpch_db, tpch_stats, star_db, star_stats, snowflake_db, snowflake_stats
):
    return {
        "tpch": (tpch_db, tpch_stats),
        "star": (star_db, star_stats),
        "snowflake": (snowflake_db, snowflake_stats),
    }


@pytest.fixture(scope="session")
def planned_battery(families):
    """``family -> [(query, threshold, PlannedQuery)]``: every statement
    of the family's battery planned at three thresholds."""
    battery = {}
    for family, (database, statistics) in families.items():
        entries = []
        for threshold in (0.05, 0.5, 0.95):
            optimizer = Optimizer(
                database, RobustCardinalityEstimator(statistics, policy=threshold)
            )
            for query in battery_queries(family, database):
                entries.append((query, threshold, optimizer.optimize(query)))
        battery[family] = entries
    return battery


@pytest.fixture(scope="session")
def planned_trees(planned_battery):
    """``family -> [(query, plan root)]``: every alternative of every
    statement at three thresholds, plus the chosen plan (which carries
    the aggregate / sort / limit the alternatives do not)."""
    trees = {}
    for family, entries in planned_battery.items():
        trees[family] = []
        for query, _, planned in entries:
            trees[family].append((query, planned.plan))
            trees[family].extend(
                (query, candidate.operator) for candidate in planned.alternatives
            )
    return trees


#: Every operator class the engine exports (what ``bench/layers.py``
#: wraps), discovered rather than listed so a new one is covered.
OPERATOR_CLASSES = sorted(
    (
        cls
        for cls in vars(repro.engine).values()
        if isinstance(cls, type)
        and issubclass(cls, PhysicalOperator)
        and cls is not PhysicalOperator
    ),
    key=lambda cls: cls.__name__,
)


@pytest.fixture()
def execute_calls(monkeypatch):
    """Count ``execute`` calls per operator object through wrappers put
    on the class attributes after import, as ``bench/layers.py`` does."""
    calls = collections.Counter()

    def counting(function):
        def execute(self, ctx):
            calls[self] += 1
            return function(self, ctx)

        return execute

    for cls in OPERATOR_CLASSES:
        monkeypatch.setattr(cls, "execute", counting(cls.__dict__["execute"]))
    return calls


@pytest.fixture()
def built_contexts(monkeypatch):
    """Every ``ExecutionContext`` constructed while the test runs — one
    per plan execution, whoever starts it."""
    contexts = []
    original = ExecutionContext.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(ExecutionContext, "__init__", recording_init)
    return contexts
