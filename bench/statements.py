"""Seeded SQL statement families and the request streams built from them.

Every family is a function from a vector of uniforms to one
:class:`Statement`: the SQL text the program under test sees, plus a
:class:`Spec` describing the same query as plain data for the
independent reference in ``bench.reference``. Nothing here parses SQL or
imports a ``repro`` module, so the generator cannot agree with the
program by construction.

Draws are stratified (equal share per family, Latin-hypercube literals
inside a family) so that two seeds produce different statements from
the same population: run-to-run spread then measures the machine, not
the luck of the draw.
"""

from __future__ import annotations

import datetime
import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Value domains of the generated schemas (repro.workloads), restated
# here so the generator stays independent of the program.
_DATE_LO = datetime.date(1992, 1, 1).toordinal()
_DATE_SPAN = 2250  # order dates + ship lag cover roughly this many days
_PART_DOMAIN = 10_000
_DIM_DOMAIN = 1000
_ATTR_DOMAIN = 1000
_NUM_CATEGORIES = 20
_NUM_DATES = 730

#: The 5-lane confidence grid of a ``prepare_many`` request.
LANES = (0.5, 0.65, 0.8, 0.9, 0.95)
#: Lane of the grid that a ``prepare_many`` request executes.
EXECUTED_LANE = 2


@dataclass(frozen=True)
class Spec:
    """A statement as data, for the reference evaluator.

    ``between`` holds inclusive ``(column, low, high)`` windows (dates as
    ordinals), ``compare`` holds ``(column, op, value-or-column)``,
    ``band`` is ``(value column, low column, high column)`` joining an
    FK-unrelated table by ``low <= value < high``.
    """

    root: str
    between: tuple = ()
    compare: tuple = ()
    band: tuple | None = None
    aggregates: tuple = ()
    group_by: str | None = None
    limit: int | None = None


@dataclass(frozen=True)
class Statement:
    sql: str
    family: str
    database: str
    spec: Spec


@dataclass(frozen=True)
class Request:
    """One operation of a stream: a statement and how it is issued."""

    statement: Statement
    #: Policy spec passed as ``policy=`` (``None`` = session default).
    policy: str | None = None
    #: Confidence grid for ``prepare_many`` (``None`` = ``prepare``).
    lanes: tuple | None = None
    tenant: str | None = None
    execute: bool = True

    def describe(self) -> str:
        return "|".join(
            (
                self.tenant or "-",
                self.policy or "-",
                ",".join(map(str, self.lanes or ())),
                "x" if self.execute else "p",
                self.statement.sql,
            )
        )


def digest_of(lines) -> str:
    """sha256 over ``lines``, one per line."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def stream_sha(requests) -> str:
    return digest_of(request.describe() for request in requests)


# ----------------------------------------------------------------------
# Literal helpers
# ----------------------------------------------------------------------
def _iso(ordinal: int) -> str:
    return datetime.date.fromordinal(ordinal).isoformat()


def _log_uniform(u: float, low: float, high: float) -> float:
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def _window(u_start: float, u_width: float, domain: int, low: int, high: int):
    """An integer window of log-uniform width placed inside ``domain``."""
    width = int(_log_uniform(u_width, low, high))
    start = int(u_start * (domain - width))
    return start, start + width - 1


def _date_window(u_start: float, u_width: float, low: int, high: int):
    start, end = _window(u_start, u_width, _DATE_SPAN, low, high)
    return _DATE_LO + start, _DATE_LO + end


def _between_sql(column: str, low, high, date: bool = False) -> str:
    if date:
        return f"{column} BETWEEN '{_iso(low)}' AND '{_iso(high)}'"
    return f"{column} BETWEEN {low!r} AND {high!r}"


def _select(aggregates) -> str:
    return ", ".join(
        f"{func.upper()}({column}) AS {alias}" for func, column, alias in aggregates
    )


_COUNT_SUM_PRICE = (
    ("count", "*", "n"),
    ("sum", "lineitem.l_extendedprice", "revenue"),
)


# ----------------------------------------------------------------------
# Families: uniforms -> Statement
# ----------------------------------------------------------------------
def li_dates(u) -> Statement:
    """Single-table ship/receipt date windows; the width sweeps the
    scan / index-seek crossover."""
    ship = _date_window(u[0], u[1], 3, 900)
    lag = int(u[2] * 150)
    receipt = (ship[0] + lag, ship[1] + lag + 30)
    aggregates = _COUNT_SUM_PRICE + (("avg", "lineitem.l_discount", "avg_disc"),)
    sql = (
        f"SELECT {_select(aggregates)} FROM lineitem WHERE "
        f"{_between_sql('lineitem.l_shipdate', *ship, date=True)} AND "
        f"{_between_sql('lineitem.l_receiptdate', *receipt, date=True)}"
    )
    spec = Spec(
        root="lineitem",
        between=(
            ("lineitem.l_shipdate", *ship),
            ("lineitem.l_receiptdate", *receipt),
        ),
        aggregates=aggregates,
    )
    return Statement(sql, "li_dates", "tpch", spec)


def part_corr(u) -> Statement:
    """lineitem ⋈ orders ⋈ part under the correlated (p_c1, p_c2) filter."""
    c1 = _window(u[0], u[1], _PART_DOMAIN, 100, 900)
    shift = int(u[2] * 900)
    c2 = (c1[0] + shift, c1[1] + shift)
    aggregates = (("sum", "lineitem.l_extendedprice", "revenue"),)
    sql = (
        f"SELECT {_select(aggregates)} FROM lineitem, orders, part WHERE "
        f"{_between_sql('part.p_c1', *c1)} AND {_between_sql('part.p_c2', *c2)}"
    )
    spec = Spec(
        root="lineitem",
        between=(("part.p_c1", *c1), ("part.p_c2", *c2)),
        aggregates=aggregates,
    )
    return Statement(sql, "part_corr", "tpch", spec)


def cust_join(u) -> Statement:
    """lineitem ⋈ orders ⋈ customer: order-date window, balance floor."""
    dates = _date_window(u[0], u[1], 30, 700)
    balance = round(-900.0 + u[2] * 9000.0, 2)
    sql = (
        f"SELECT {_select(_COUNT_SUM_PRICE)} FROM lineitem, orders, customer "
        f"WHERE {_between_sql('orders.o_orderdate', *dates, date=True)} "
        f"AND customer.c_acctbal > {balance!r}"
    )
    spec = Spec(
        root="lineitem",
        between=(("orders.o_orderdate", *dates),),
        compare=(("customer.c_acctbal", ">", balance),),
        aggregates=_COUNT_SUM_PRICE,
    )
    return Statement(sql, "cust_join", "tpch", spec)


def cust_groups(u) -> Statement:
    """GROUP BY / ORDER BY / LIMIT over lineitem ⋈ orders."""
    ship = _date_window(u[0], u[1], 20, 400)
    limit = 5 + int(u[2] * 20)
    aggregates = _COUNT_SUM_PRICE
    sql = (
        f"SELECT orders.o_custkey, {_select(aggregates)} FROM lineitem, orders "
        f"WHERE {_between_sql('lineitem.l_shipdate', *ship, date=True)} "
        f"GROUP BY orders.o_custkey ORDER BY orders.o_custkey LIMIT {limit}"
    )
    spec = Spec(
        root="lineitem",
        between=(("lineitem.l_shipdate", *ship),),
        aggregates=aggregates,
        group_by="orders.o_custkey",
        limit=limit,
    )
    return Statement(sql, "cust_groups", "tpch", spec)


def star4(u) -> Statement:
    """Four-table star join with one attribute window per dimension."""
    windows = [
        _window(u[2 * i], u[2 * i + 1], _DIM_DOMAIN, 40, 250) for i in range(3)
    ]
    aggregates = (
        ("sum", "fact.f_measure1", "total1"),
        ("sum", "fact.f_measure2", "total2"),
    )
    columns = [f"dim{i + 1}.d_attr" for i in range(3)]
    where = " AND ".join(
        _between_sql(column, *window) for column, window in zip(columns, windows)
    )
    sql = f"SELECT {_select(aggregates)} FROM fact, dim1, dim2, dim3 WHERE {where}"
    spec = Spec(
        root="fact",
        between=tuple((c, *w) for c, w in zip(columns, windows)),
        aggregates=aggregates,
    )
    return Statement(sql, "star4", "star", spec)


_SUM_SALES = (("sum", "sales.s_price", "revenue"),)


def snow_chain(u) -> Statement:
    """sales ⋈ item ⋈ brand ⋈ category, filters two FK hops apart."""
    attr = _window(u[0], u[1], _ATTR_DOMAIN, 40, 250)
    category = _window(u[2], u[3], _NUM_CATEGORIES, 1, 5)
    sql = (
        f"SELECT {_select(_SUM_SALES)} FROM sales, item, brand, category WHERE "
        f"{_between_sql('item.i_attr', *attr)} AND "
        f"{_between_sql('category.c_attr', *category)}"
    )
    spec = Spec(
        root="sales",
        between=(("item.i_attr", *attr), ("category.c_attr", *category)),
        aggregates=_SUM_SALES,
    )
    return Statement(sql, "snow_chain", "snow", spec)


def markup(u) -> Statement:
    """Inequality between FK-connected tables: sales.s_price < item.i_price."""
    discount = round(0.005 + u[0] * 0.095, 4)
    dates = _window(u[1], u[2], _NUM_DATES, 60, 600)
    sql = (
        f"SELECT {_select(_SUM_SALES)} FROM sales, item WHERE "
        f"sales.s_discount <= {discount!r} AND "
        f"{_between_sql('sales.s_datekey', *dates)} AND "
        "sales.s_price < item.i_price"
    )
    spec = Spec(
        root="sales",
        between=(("sales.s_datekey", *dates),),
        compare=(
            ("sales.s_discount", "<=", discount),
            ("sales.s_price", "<", "item.i_price"),
        ),
        aggregates=_SUM_SALES,
    )
    return Statement(sql, "markup", "snow", spec)


def promo_band(u) -> Statement:
    """Band join against the FK-unrelated promotion table."""
    kind = int(u[0] * 5)
    discount = round(0.02 + u[1] * 0.08, 4)
    dates = _window(u[2], u[3], _NUM_DATES, 60, 600)
    sql = (
        f"SELECT {_select(_SUM_SALES)} FROM sales, promotion WHERE "
        f"promotion.p_kind = {kind} AND sales.s_discount <= {discount!r} AND "
        f"{_between_sql('sales.s_datekey', *dates)} AND "
        "promotion.p_lo <= sales.s_price AND sales.s_price < promotion.p_hi"
    )
    spec = Spec(
        root="sales",
        between=(("sales.s_datekey", *dates),),
        compare=(
            ("promotion.p_kind", "=", kind),
            ("sales.s_discount", "<=", discount),
        ),
        band=("sales.s_price", "promotion.p_lo", "promotion.p_hi"),
        aggregates=_SUM_SALES,
    )
    return Statement(sql, "promo_band", "snow", spec)


#: family -> (function, number of uniforms it consumes)
FAMILIES = {
    "li_dates": (li_dates, 3),
    "part_corr": (part_corr, 3),
    "cust_join": (cust_join, 3),
    "cust_groups": (cust_groups, 3),
    "star4": (star4, 6),
    "snow_chain": (snow_chain, 4),
    "markup": (markup, 3),
    "promo_band": (promo_band, 4),
}


def draw(pattern, count: int, rng: np.random.Generator) -> list[Statement]:
    """``count`` distinct statements, family ``pattern[i % len(pattern)]``
    at position ``i`` (a family may appear several times in a pattern).

    Each family's literals come from a Latin hypercube over its share, so
    every seed covers each family's parameter space evenly. A literal
    collision (two draws rounding to the same SQL) is redrawn, which
    keeps cold streams repeat-free.
    """
    pattern = list(pattern)
    per_family: dict[str, list[Statement]] = {}
    seen: set[str] = set()
    for name in dict.fromkeys(pattern):
        make, dims = FAMILIES[name]
        share = sum(pattern[i % len(pattern)] == name for i in range(count))
        cells = np.column_stack(
            [rng.permutation(share) for _ in range(dims)]
        ) if share else np.empty((0, dims))
        points = (cells + rng.random((share, dims))) / max(share, 1)
        made = []
        for point in points.tolist():  # Python floats: literals use repr
            statement = make(point)
            while statement.sql in seen:
                statement = make(rng.random(dims).tolist())
            seen.add(statement.sql)
            made.append(statement)
        per_family[name] = made[::-1]
    return [per_family[pattern[i % len(pattern)]].pop() for i in range(count)]
