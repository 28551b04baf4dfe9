"""Property tests: expression → SQL text → parser round trip."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError
from repro.expressions import Frame, col, to_sql
from repro.sql import parse_predicate

COLUMNS = ["t.a", "t.b", "t.s"]


@st.composite
def predicates(draw, depth=0):
    """Random predicate trees over the test frame's columns."""
    if depth >= 2:
        kind = draw(st.sampled_from(["cmp", "between", "in", "like"]))
    else:
        kind = draw(
            st.sampled_from(
                ["cmp", "between", "in", "like", "and", "or", "not"]
            )
        )
    if kind == "cmp":
        column = draw(st.sampled_from(["t.a", "t.b"]))
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        # Floats of every magnitude: repr writes exponent form outside
        # 1e-4 <= |x| < 1e16, and the parser must read it back.
        value = draw(
            st.one_of(
                st.integers(-20, 20),
                st.floats(allow_nan=False, allow_infinity=False),
            )
        )
        reference = col(column)
        return {
            "==": reference == value,
            "!=": reference != value,
            "<": reference < value,
            "<=": reference <= value,
            ">": reference > value,
            ">=": reference >= value,
        }[op]
    if kind == "between":
        low = draw(st.integers(-20, 20))
        width = draw(st.integers(0, 15))
        return col(draw(st.sampled_from(["t.a", "t.b"]))).between(low, low + width)
    if kind == "in":
        values = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
        return col(draw(st.sampled_from(["t.a", "t.b"]))).isin(values)
    if kind == "like":
        needle = draw(st.sampled_from(["al", "be", "ga", "x"]))
        if draw(st.booleans()):
            return col("t.s").contains(needle)
        return col("t.s").startswith(needle)
    if kind == "not":
        return ~draw(predicates(depth=depth + 1))
    left = draw(predicates(depth=depth + 1))
    right = draw(predicates(depth=depth + 1))
    return (left & right) if kind == "and" else (left | right)


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(0)
    return Frame(
        {
            "t.a": rng.integers(-25, 25, 300),
            "t.b": rng.integers(-25, 25, 300),
            "t.s": rng.choice(["alpha", "beta", "gamma", "delta"], 300),
        }
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(predicate=predicates())
def test_roundtrip_preserves_semantics(frame, predicate):
    """parse(to_sql(p)) evaluates identically to p."""
    sql = to_sql(predicate)
    reparsed = parse_predicate(sql)
    assert np.array_equal(
        predicate.evaluate(frame), reparsed.evaluate(frame)
    ), sql


class TestRenderEdgeCases:
    def test_date_between(self):
        sql = to_sql(col("t.d").between("1997-07-01", "1997-09-30"))
        assert "'1997-07-01'" in sql
        parse_predicate(sql)  # parses cleanly

    def test_string_equality(self):
        sql = to_sql(col("t.s") == "beta")
        assert sql == "(t.s = 'beta')"

    def test_not_equal_rendered_sql_style(self):
        assert "<>" in to_sql(col("t.a") != 5)

    def test_arithmetic(self):
        frame = Frame({"t.a": np.array([2, 3])})
        sql = to_sql((col("t.a") + 1) * 2 == 8)
        reparsed = parse_predicate(sql)
        assert list(reparsed.evaluate(frame)) == [False, True]

    def test_quoted_string_rejected(self):
        with pytest.raises(ExpressionError):
            to_sql(col("t.s") == "don't")

    @pytest.mark.parametrize("value", [1e-05, 1e20, 2.5e-300, -3e10])
    def test_exponent_float_literal(self, value):
        """``repr`` writes these in exponent form (or, for ``-3e10``,
        with a sign the parser reads as unary minus); each parses back
        to the same float."""
        predicate = col("t.a") > value
        reparsed = parse_predicate(to_sql(predicate))
        assert to_sql(reparsed) == to_sql(predicate)
        assert reparsed.right.value == value
        assert type(reparsed.right.value) is float

    def test_exponent_literal_through_session(self, tpch_db):
        from repro import Session

        session = Session(tpch_db, sample_size=200, statistics_seed=3)
        try:
            exponent = session.execute(
                "SELECT COUNT(*) AS n FROM customer "
                "WHERE customer.c_acctbal > 1e3"
            )
            decimal = session.execute(
                "SELECT COUNT(*) AS n FROM customer "
                "WHERE customer.c_acctbal > 1000.0"
            )
        finally:
            session.close()
        count = exponent.column("n")[0]
        assert 0 < count < tpch_db.table("customer").num_rows
        assert count == decimal.column("n")[0]


INEQUALITY_OPS = ["<", "<=", ">", ">=", "="]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    op=st.sampled_from(INEQUALITY_OPS),
    columns=st.sampled_from([("t.a", "t.b"), ("t.b", "t.a")]),
)
def test_column_comparison_roundtrip(frame, op, columns):
    """``t.a <op> t.b`` (the non-equi join condition form) survives
    render → parse with identical semantics."""
    left, right = columns
    original = parse_predicate(f"{left} {op} {right}")
    reparsed = parse_predicate(to_sql(original))
    assert np.array_equal(original.evaluate(frame), reparsed.evaluate(frame))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    op=st.sampled_from(["<", "<=", ">", ">="]),
    value=st.integers(-20, 20),
)
def test_reversed_operand_comparison_roundtrip(frame, op, value):
    """``literal <op> column`` round-trips and means the mirrored
    ``column`` comparison."""
    reversed_form = parse_predicate(f"{value} {op} t.a")
    reparsed = parse_predicate(to_sql(reversed_form))
    assert np.array_equal(
        reversed_form.evaluate(frame), reparsed.evaluate(frame)
    )
    mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    canonical = parse_predicate(f"t.a {mirrored} {value}")
    assert np.array_equal(
        reversed_form.evaluate(frame), canonical.evaluate(frame)
    )


class TestReversedOperandAnalysis:
    """The analysis layer must see through literal-first spellings."""

    def test_range_condition_mirrors_operator(self):
        from repro.expressions.analysis import as_range_condition

        condition = as_range_condition(parse_predicate("5 < t.a"))
        assert condition is not None
        assert condition.low == 5 and not condition.low_inclusive
        assert condition.high is None

    def test_between_roundtrip_with_inequality_conjunct(self, frame):
        sql = "(t.a BETWEEN -5 AND 10) AND (t.b < t.a)"
        original = parse_predicate(sql)
        reparsed = parse_predicate(to_sql(original))
        assert np.array_equal(
            original.evaluate(frame), reparsed.evaluate(frame)
        )

    def test_join_condition_survives_roundtrip(self):
        from repro.expressions.analysis import as_join_condition

        original = parse_predicate("sales.s_price < item.i_price")
        reparsed = parse_predicate(to_sql(original))
        condition = as_join_condition(reparsed)
        assert condition is not None
        assert condition.oriented({"sales"}) == (
            "sales.s_price",
            "<",
            "item.i_price",
        )


class TestQueryRoundTrip:
    """query_to_sql(parse_query(sql)) parses back to an equivalent query."""

    def _roundtrip(self, sql, database=None):
        from repro.sql import parse_query, query_to_sql

        original = parse_query(sql, database)
        rendered = query_to_sql(original)
        reparsed = parse_query(rendered, database)
        return original, reparsed

    def test_battery_roundtrips(self, tpch_db):
        from repro.workloads import QUERY_BATTERY

        for name, sql in QUERY_BATTERY.items():
            original, reparsed = self._roundtrip(sql, tpch_db)
            assert reparsed.tables == original.tables, name
            assert reparsed.group_by == original.group_by, name
            assert reparsed.order_by == original.order_by, name
            assert reparsed.limit == original.limit, name
            assert reparsed.hint == original.hint, name
            assert [a.alias for a in reparsed.aggregates] == [
                a.alias for a in original.aggregates
            ], name

    def test_roundtrip_preserves_results(self, tpch_db):
        from repro.core import ExactCardinalityEstimator
        from repro.engine import ExecutionContext
        from repro.optimizer import Optimizer
        from repro.workloads import QUERY_BATTERY

        optimizer = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db))
        for name in ("forecast_revenue", "promo_parts", "top_customers"):
            original, reparsed = self._roundtrip(QUERY_BATTERY[name], tpch_db)
            a = optimizer.optimize(original).plan.execute(ExecutionContext(tpch_db))
            b = optimizer.optimize(reparsed).plan.execute(ExecutionContext(tpch_db))
            assert a.num_rows == b.num_rows, name
            for column in a.column_names:
                assert list(a.column(column)) == list(b.column(column)), name

    def test_distinct_roundtrip(self, tpch_db):
        original, reparsed = self._roundtrip(
            "SELECT DISTINCT part.p_container FROM part", tpch_db
        )
        assert reparsed.group_by == original.group_by
        assert reparsed.aggregates == ()

    def test_select_star_roundtrip(self, tpch_db):
        original, reparsed = self._roundtrip("SELECT * FROM part", tpch_db)
        assert reparsed.projection is None

    def test_fractional_hint_rejected(self):
        from repro.errors import ReproError
        from repro.optimizer import SPJQuery
        from repro.sql import query_to_sql

        with pytest.raises(ReproError):
            query_to_sql(SPJQuery(["t"], hint=0.825))


@st.composite
def spj_queries(draw):
    """Random SPJQuery objects over the TPC-H schema."""
    from repro.engine import AggregateSpec
    from repro.optimizer import SPJQuery

    tables = draw(
        st.sampled_from(
            [("lineitem",), ("part",), ("lineitem", "part"), ("lineitem", "orders")]
        )
    )
    root = tables[0]
    numeric_column = {
        "lineitem": "lineitem.l_quantity",
        "part": "part.p_size",
        "orders": "orders.o_totalprice",
    }[root]
    predicate = None
    if draw(st.booleans()):
        predicate = col(numeric_column) > draw(st.integers(0, 40))
    aggregates = ()
    group_by = ()
    if draw(st.booleans()):
        aggregates = (AggregateSpec("count", "*", "n"),)
        if draw(st.booleans()):
            group_by = (numeric_column,)
    order_by = ()
    if not aggregates and draw(st.booleans()):
        order_by = (numeric_column,)
    limit = draw(st.one_of(st.none(), st.integers(0, 100)))
    hint = draw(st.sampled_from([None, 0.5, 0.95, "conservative"]))
    return SPJQuery(
        tables,
        predicate,
        aggregates=aggregates,
        group_by=group_by,
        order_by=order_by,
        limit=limit,
        hint=hint,
    )


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=spj_queries())
def test_generated_query_roundtrip(tpch_db, query):
    from repro.sql import parse_query, query_to_sql

    rendered = query_to_sql(query)
    reparsed = parse_query(rendered, tpch_db)
    assert reparsed.tables == query.tables
    assert reparsed.group_by == query.group_by
    assert reparsed.order_by == query.order_by
    assert reparsed.limit == query.limit
    assert reparsed.hint == query.hint
    # predicate text may normalize through the round trip; equivalence
    # is checked semantically via exact cardinalities below
    if query.predicate is not None:
        from repro.core import ExactCardinalityEstimator

        exact = ExactCardinalityEstimator(tpch_db)
        a = exact.estimate(set(query.tables), query.predicate).cardinality
        b = exact.estimate(set(reparsed.tables), reparsed.predicate).cardinality
        assert a == b
