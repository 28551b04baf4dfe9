"""Property-based optimizer correctness: any plan, same answer.

Whatever predicate is thrown at it — and whichever access path or join
method wins — the optimizer's chosen plan must return exactly the rows
a brute-force evaluation returns, and its estimated cost must equal
the simulated execution time when the estimator is exact. And however
the join lattice is walked, it prunes to the same plans: the last
property holds it to the pair-at-a-time lattice kept in
``tests/reference_lattice.py`` on generated equi + band-join queries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import ExecutionContext
from repro.expressions import Frame, col
from repro.optimizer import Optimizer, SPJQuery

DATE_LO, DATE_HI = 729000, 729365

lineitem_conjunct = st.one_of(
    st.tuples(
        st.just("lineitem.l_shipdate"),
        st.sampled_from(["<=", ">=", "between"]),
        st.integers(DATE_LO, DATE_HI),
        st.integers(0, 200),
    ),
    st.tuples(
        st.just("lineitem.l_receiptdate"),
        st.sampled_from(["<=", ">=", "between"]),
        st.integers(DATE_LO, DATE_HI),
        st.integers(0, 200),
    ),
    st.tuples(
        st.just("lineitem.l_quantity"),
        st.sampled_from(["<=", ">=", "=", "between"]),
        st.integers(1, 50),
        st.integers(0, 20),
    ),
)


def build_predicate(conjuncts):
    parts = []
    for column, op, value, width in conjuncts:
        reference = col(column)
        if op == "<=":
            parts.append(reference <= value)
        elif op == ">=":
            parts.append(reference >= value)
        elif op == "=":
            parts.append(reference == value)
        else:
            parts.append(reference.between(value, value + width))
    predicate = parts[0]
    for part in parts[1:]:
        predicate = predicate & part
    return predicate


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(conjuncts=st.lists(lineitem_conjunct, min_size=1, max_size=3))
def test_single_table_plans_always_correct(two_table_db, conjuncts):
    database = two_table_db
    predicate = build_predicate(conjuncts)
    model = CostModel()
    planned = Optimizer(
        database, ExactCardinalityEstimator(database), model
    ).optimize(SPJQuery(["lineitem"], predicate))

    ctx = ExecutionContext(database)
    frame = planned.plan.execute(ctx)

    truth_mask = predicate.evaluate(Frame.from_table(database.table("lineitem")))
    assert frame.num_rows == int(truth_mask.sum())
    assert sorted(frame.column("lineitem.l_id")) == sorted(
        np.flatnonzero(truth_mask)
    )
    assert planned.estimated_cost == pytest.approx(
        model.time_from_counters(ctx.counters), rel=1e-6
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    size_hi=st.integers(1, 50),
    conjuncts=st.lists(lineitem_conjunct, min_size=0, max_size=2),
)
def test_join_plans_always_correct(two_table_db, size_hi, conjuncts):
    database = two_table_db
    parts = [col("part.p_size") <= size_hi]
    if conjuncts:
        parts.append(build_predicate(conjuncts))
    predicate = parts[0]
    for part in parts[1:]:
        predicate = predicate & part

    model = CostModel()
    planned = Optimizer(
        database, ExactCardinalityEstimator(database), model
    ).optimize(SPJQuery(["lineitem", "part"], predicate))
    ctx = ExecutionContext(database)
    frame = planned.plan.execute(ctx)

    # brute force: evaluate over the materialized FK join
    from repro.stats.join_synopsis import fk_join_frame

    joined, _ = fk_join_frame(database, "lineitem", restrict_to={"lineitem", "part"})
    truth = int(predicate.evaluate(joined).sum())
    assert frame.num_rows == truth
    assert planned.estimated_cost == pytest.approx(
        model.time_from_counters(ctx.counters), rel=1e-6
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    threshold=st.floats(0.02, 0.98),
    conjuncts=st.lists(lineitem_conjunct, min_size=1, max_size=2),
)
def test_threshold_never_changes_results(two_table_db, two_table_stats, threshold, conjuncts):
    """Robust estimation at any threshold returns the same rows — only
    the plan (and its time) may differ."""
    from repro.core import RobustCardinalityEstimator

    database = two_table_db
    predicate = build_predicate(conjuncts)
    estimator = RobustCardinalityEstimator(two_table_stats, policy=threshold)
    planned = Optimizer(database, estimator).optimize(
        SPJQuery(["lineitem"], predicate)
    )
    frame = planned.plan.execute(ExecutionContext(database))
    truth = predicate.evaluate(Frame.from_table(database.table("lineitem"))).sum()
    assert frame.num_rows == int(truth)


# ----------------------------------------------------------------------
# The lattice against the pair-at-a-time lattice it replaced
# ----------------------------------------------------------------------
#: Snowflake tables along the FK chain; ``promotion`` shares no FK edge
#: with any of them and joins through band conditions only.
CHAIN = ("sales", "item", "brand", "category")
BAND_CONDITIONS = {
    "sales": (
        ("promotion.p_lo", "<=", "sales.s_price"),
        ("sales.s_price", "<", "promotion.p_hi"),
    ),
    "item": (
        ("promotion.p_lo", "<=", "item.i_price"),
        ("item.i_price", "<", "promotion.p_hi"),
    ),
}
RANGES = {
    "sales": ("sales.s_datekey", 0, 729),
    "item": ("item.i_attr", 0, 999),
    "category": ("category.c_attr", 0, 19),
    "promotion": ("promotion.p_kind", 0, 4),
}


@st.composite
def snowflake_queries(draw):
    """SPJ queries over a stretch of the snowflake chain, optionally
    band-joined to ``promotion`` from one or two chain tables (two put
    a condition *and* an FK edge across one partition), with range
    filters and optionally the FK-internal markup inequality."""
    start = draw(st.integers(0, 2))
    tables = list(CHAIN[start : draw(st.integers(start + 1, len(CHAIN)))])
    conjuncts = []
    anchors = [name for name in tables if name in BAND_CONDITIONS]
    if anchors and draw(st.booleans()):
        tables.append("promotion")
        chosen = draw(
            st.lists(st.sampled_from(anchors), min_size=1, max_size=2, unique=True)
        )
        for anchor in chosen:
            pool = BAND_CONDITIONS[anchor]
            picked = draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
            )
            conjuncts.extend(
                {"<=": col(left) <= col(right), "<": col(left) < col(right)}[op]
                for left, op, right in picked
            )
    if {"sales", "item"} <= set(tables) and draw(st.booleans()):
        conjuncts.append(col("sales.s_price") < col("item.i_price"))
    for name in tables:
        if name in RANGES and draw(st.booleans()):
            column, low, high = RANGES[name]
            start_value = draw(st.integers(low, high))
            width = draw(st.integers(0, (high - low) // 3))
            conjuncts.append(col(column).between(start_value, start_value + width))
    draw(st.randoms(use_true_random=False)).shuffle(tables)
    predicate = None
    for conjunct in conjuncts:
        predicate = conjunct if predicate is None else predicate & conjunct
    return SPJQuery(tables, predicate)


FILTER_BRANCH_QUERY = SPJQuery(
    ["sales", "item", "promotion"],
    (col("promotion.p_lo") <= col("sales.s_price"))
    & (col("item.i_price") < col("promotion.p_hi"))
    & col("promotion.p_kind").between(1, 2)
    & col("sales.s_datekey").between(100, 400),
)


@pytest.fixture(scope="module")
def snowflake_worlds(snowflake_db, snowflake_stats):
    """``indexed``: the generated snowflake database. ``unkeyed``: the
    same tables with the attribute indexes but none on a join key, so no
    indexed NL join applies.

    In the first world an FK join *over* a band join has an indexed NL
    candidate whose outer side spans two FK components; its fetched
    rows are priced per component (``PlanningContext.rows``), as every
    other multi-component row count is.
    """
    from repro.catalog import Database
    from repro.stats import StatisticsManager

    unkeyed = Database(list(snowflake_db))
    unkeyed.create_index("item", "i_attr")
    unkeyed.create_index("sales", "s_datekey")
    unkeyed.create_index("sales", "s_price")
    statistics = StatisticsManager(unkeyed)
    statistics.update_statistics(sample_size=300, seed=11)
    return {
        "indexed": (snowflake_db, snowflake_stats),
        "unkeyed": (unkeyed, statistics),
    }


# ----------------------------------------------------------------------
# The lattice's incremental costing against the independent re-coster
# ----------------------------------------------------------------------
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    case=st.one_of(
        st.tuples(
            st.just("two_table"),
            st.lists(lineitem_conjunct, min_size=1, max_size=3).map(
                lambda conjuncts: SPJQuery(["lineitem"], build_predicate(conjuncts))
            ),
        ),
        st.tuples(st.sampled_from(["indexed", "unkeyed"]), snowflake_queries()),
    )
)
@example(case=("unkeyed", FILTER_BRANCH_QUERY))
@example(case=("indexed", FILTER_BRANCH_QUERY))
def test_every_alternative_recosts_to_its_dp_cost(
    two_table_db, snowflake_worlds, case
):
    """``tests/reference_costing.py`` agrees with the DP's incremental
    costing for every candidate of every generated query — single-table
    access paths, and snowflake equi + band joins (``NonEquiJoin`` in
    both orientations, with and without a residual, and the ``Filter``
    over an FK join that a partition crossing an edge *and* a condition
    builds, and the indexed NL join whose outer side spans two FK
    components)."""
    from tests.reference_costing import PlanCoster

    world, query = case
    database = two_table_db if world == "two_table" else snowflake_worlds[world][0]
    exact = ExactCardinalityEstimator(database)
    planned = Optimizer(database, exact).optimize(query)
    event(f"{world}, {len(query.tables)} tables")
    coster = PlanCoster(
        database,
        CostModel(),
        lambda t, p: exact.estimate(t, p).cardinality,
        exact.condition_selectivity,
    )
    for candidate in planned.alternatives:
        cost, rows = coster.cost(candidate.operator)
        assert cost == pytest.approx(candidate.cost, rel=1e-9)
        assert rows == pytest.approx(candidate.rows, rel=1e-9)


def planning_error(optimizer_class, database, statistics, query, grid):
    """What stops ``optimizer_class``'s lattice on ``query``, if anything."""
    from repro.errors import ReproError
    from tests.reference_lattice import enumerate_with

    try:
        enumerate_with(optimizer_class, database, statistics, query, grid)
    except ReproError as error:
        return type(error), str(error)
    return None


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    world=st.sampled_from(["indexed", "unkeyed"]),
    query=snowflake_queries(),
    grid=st.sampled_from([None, (0.5, 0.8, 0.95)]),
)
@example(world="unkeyed", query=FILTER_BRANCH_QUERY, grid=None)
@example(world="unkeyed", query=FILTER_BRANCH_QUERY, grid=(0.2, 0.5, 0.8, 0.99))
@example(world="indexed", query=FILTER_BRANCH_QUERY, grid=None)
def test_lattice_equals_the_pairwise_lattice(snowflake_worlds, world, query, grid):
    """Partition-at-a-time enumeration prunes every subset to the
    mapping pair-at-a-time enumeration does and plans the same query —
    or, where the pairwise lattice cannot plan, stops the same way."""
    from tests.reference_lattice import (
        PairwiseOptimizer,
        assert_lattices_agree,
        assert_plans_agree,
    )

    database, statistics = snowflake_worlds[world]
    error = planning_error(PairwiseOptimizer, database, statistics, query, grid)
    if error is not None:
        event("neither lattice can plan")
        assert error == planning_error(Optimizer, database, statistics, query, grid)
        return
    event(f"planned, {len(query.tables)} tables")
    assert_lattices_agree(database, statistics, query, grid)

    def plan(optimizer, q):
        if grid is None:
            return [optimizer.optimize(q)]
        return optimizer.optimize_many(q, grid)

    assert_plans_agree(database, statistics, query, plan)


@pytest.mark.parametrize("world", ["indexed", "unkeyed"])
def test_the_pinned_example_plans_on_both_lattices(snowflake_worlds, world):
    """``FILTER_BRANCH_QUERY`` plans in both worlds, so its explicit
    examples above compare two plans, not two errors (in the indexed
    world both lattices used to stop at the two-component INL join)."""
    from tests.reference_lattice import PairwiseOptimizer

    database, statistics = snowflake_worlds[world]
    for optimizer_class in (Optimizer, PairwiseOptimizer):
        assert planning_error(
            optimizer_class, database, statistics, FILTER_BRANCH_QUERY, None
        ) is None


def test_the_pinned_example_reaches_both_condition_branches(
    snowflake_worlds, monkeypatch
):
    """``FILTER_BRANCH_QUERY`` has partitions joined by conditions alone
    (``NonEquiJoin``) and by an FK edge plus a condition (a ``Filter``
    over an equi-join), each with several survivors on a side, so the
    property above does run both branches."""
    from repro.core import RobustCardinalityEstimator
    from repro.engine import NonEquiJoin
    from repro.engine.relops import Filter
    from repro.optimizer import optimizer as optimizer_module
    from repro.optimizer.candidates import prune
    from repro.optimizer.optimizer import PlanningContext

    database, statistics = snowflake_worlds["unkeyed"]
    estimator = RobustCardinalityEstimator(statistics)
    ctx = PlanningContext(database, CostModel(), estimator, FILTER_BRANCH_QUERY)
    seen = []

    def spied(plans):
        seen.extend(type(plans.tree(k, None)) for k in range(len(plans)))
        return prune(plans)

    monkeypatch.setattr(optimizer_module, "prune", spied)
    survivors = Optimizer(database, estimator)._enumerate_joins(
        ctx, FILTER_BRANCH_QUERY
    )
    assert Filter in seen and NonEquiJoin in seen
    assert max(len(plans) for plans in survivors.values()) > 1
