"""A snowflake (TPC-DS-flavored) scenario with non-equi predicates.

The scenario-diversity workload: unlike the star schema's one-hop
dimensions, the dimension chain here is *multi-level* —

    sales ──► item ──► brand ──► category
      └────► date_dim

plus an FK-less ``promotion`` table whose ``[p_lo, p_hi)`` price bands
join ``sales`` only through inequality conditions (a band join). The
three templates exercise the predicate classes the FK-star workloads
never could:

- :class:`SnowflakeChainTemplate` — correlation smeared *along the
  chain*: the filtered attributes sit two FK hops apart (item vs
  category), so the AVI product is wrong for the same reason as in the
  star schema, but the robust estimator must follow a deeper synopsis.
- :class:`PriceMarkupTemplate` — an inequality join condition between
  FK-*connected* tables (``sales.s_price < item.i_price``), priced by
  the robust arm on the join synopsis and by the baseline arms via the
  CDF sketch.
- :class:`PromotionBandTemplate` — a band join between FK-*unrelated*
  tables, planned as a NonEquiJoin and estimable only via the sketch.

Construction keeps every marginal uniform (the star-schema recipe, one
level deeper): item attributes are uniform, category attributes are
uniform, and only the *alignment* between an item's attribute and its
category — routed through the brand level — carries the correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog import Column, ColumnType, Database, ForeignKey, Schema, Table
from repro.engine import AggregateSpec
from repro.errors import WorkloadError
from repro.expressions import col
from repro.optimizer import SPJQuery
from repro.random_state import RngLike, spawn_rngs
from repro.workloads.templates import QueryTemplate

#: Category shift of the non-aligned item population, in categories.
#: Far enough from the canonical query windows (which move by at most
#: a few categories) that a non-aligned item never satisfies both the
#: item-level and the category-level filter.
CATEGORY_SHIFT = 7

#: Width of the item attribute domain; item filters select 10 % of it.
ATTR_DOMAIN = 1000

#: Band widths per promotion kind (price units).
PROMO_WIDTHS = (5.0, 10.0, 20.0, 40.0, 80.0)


@dataclass(frozen=True)
class SnowflakeConfig:
    """Scale and shape of the snowflake schema.

    ``scale`` multiplies ``num_sales`` only — the dimension chain and
    the promotion table keep their cardinalities, so the window
    arithmetic of the templates is scale-invariant.
    """

    num_sales: int = 60_000
    num_items: int = 2_000
    num_brands: int = 200
    num_categories: int = 20
    num_dates: int = 730
    num_promotions: int = 40
    #: Fraction of items whose category alignment follows their
    #: attribute; the rest are phase-shifted by :data:`CATEGORY_SHIFT`.
    aligned_fraction: float = 0.3
    seed: RngLike = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise WorkloadError("scale must be positive")
        if self.scale != 1.0:
            object.__setattr__(
                self, "num_sales", int(round(self.num_sales * self.scale))
            )
        if self.num_sales < 100:
            raise WorkloadError("num_sales must be at least 100 (after scale)")
        if self.num_items < ATTR_DOMAIN or self.num_items % ATTR_DOMAIN != 0:
            raise WorkloadError(
                f"num_items must be a positive multiple of {ATTR_DOMAIN}"
            )
        if self.num_categories < 2 or ATTR_DOMAIN % self.num_categories != 0:
            raise WorkloadError(
                f"num_categories must be >= 2 and divide {ATTR_DOMAIN}"
            )
        if self.num_brands % self.num_categories != 0:
            raise WorkloadError("num_brands must be a multiple of num_categories")
        if not 0.0 <= self.aligned_fraction <= 1.0:
            raise WorkloadError("aligned_fraction must lie in [0, 1]")
        if self.num_promotions % len(PROMO_WIDTHS) != 0:
            raise WorkloadError(
                f"num_promotions must be a multiple of {len(PROMO_WIDTHS)}"
            )

    @property
    def brands_per_category(self) -> int:
        return self.num_brands // self.num_categories

    @property
    def attrs_per_category(self) -> int:
        """Item-attribute slots mapping to one aligned category."""
        return ATTR_DOMAIN // self.num_categories


def build_snowflake_database(config: SnowflakeConfig | None = None) -> Database:
    """Generate the snowflake schema, validate, and index."""
    config = config or SnowflakeConfig()
    rng_items, rng_sales, rng_promos = spawn_rngs(config.seed, 3)

    category = _build_category(config)
    brand = _build_brand(config)
    item = _build_item(config, rng_items)
    date_dim = _build_date_dim(config)
    promotion = _build_promotion(config, rng_promos)
    sales = _build_sales(config, item, rng_sales)

    database = Database([category, brand, item, date_dim, promotion, sales])
    database.validate()
    database.create_index("category", "c_key", clustered=True)
    database.create_index("brand", "b_key", clustered=True)
    database.create_index("item", "i_key", clustered=True)
    database.create_index("item", "i_attr")
    database.create_index("date_dim", "d_key", clustered=True)
    database.create_index("promotion", "p_id", clustered=True)
    database.create_index("sales", "s_id", clustered=True)
    database.create_index("sales", "s_itemkey")
    database.create_index("sales", "s_datekey")
    database.create_index("sales", "s_price")
    return database


def _build_category(config: SnowflakeConfig) -> Table:
    n = config.num_categories
    schema = Schema(
        [
            Column("c_key", ColumnType.INT64),
            Column("c_attr", ColumnType.INT64),
            Column("c_name", ColumnType.STRING),
        ],
        primary_key="c_key",
    )
    return Table(
        "category",
        schema,
        {
            "c_key": np.arange(n),
            "c_attr": np.arange(n),
            "c_name": np.array([f"cat-{k:02d}" for k in range(n)]),
        },
    )


def _build_brand(config: SnowflakeConfig) -> Table:
    n = config.num_brands
    schema = Schema(
        [
            Column("b_key", ColumnType.INT64),
            Column("b_classkey", ColumnType.INT64),
            Column("b_attr", ColumnType.INT64),
        ],
        primary_key="b_key",
        foreign_keys=[ForeignKey("b_classkey", "category", "c_key")],
    )
    return Table(
        "brand",
        schema,
        {
            "b_key": np.arange(n),
            # brands partition evenly over categories
            "b_classkey": np.arange(n) // config.brands_per_category,
            "b_attr": np.arange(n),
        },
    )


def _build_item(config: SnowflakeConfig, rng: np.random.Generator) -> Table:
    n = config.num_items
    attrs = np.arange(n) % ATTR_DOMAIN  # exactly uniform marginal
    aligned = rng.random(n) < config.aligned_fraction
    target = attrs // config.attrs_per_category
    category = np.where(
        aligned, target, (target + CATEGORY_SHIFT) % config.num_categories
    )
    # uniform brand within the chosen category
    brand = category * config.brands_per_category + rng.integers(
        0, config.brands_per_category, n
    )
    prices = np.round(rng.uniform(10.0, 1000.0, n), 2)
    schema = Schema(
        [
            Column("i_key", ColumnType.INT64),
            Column("i_brandkey", ColumnType.INT64),
            Column("i_attr", ColumnType.INT64),
            Column("i_price", ColumnType.FLOAT64),
        ],
        primary_key="i_key",
        foreign_keys=[ForeignKey("i_brandkey", "brand", "b_key")],
    )
    return Table(
        "item",
        schema,
        {
            "i_key": np.arange(n),
            "i_brandkey": brand,
            "i_attr": attrs,
            "i_price": prices,
        },
    )


def _build_date_dim(config: SnowflakeConfig) -> Table:
    n = config.num_dates
    days = np.arange(n)
    schema = Schema(
        [
            Column("d_key", ColumnType.INT64),
            Column("d_month", ColumnType.INT64),
            Column("d_year", ColumnType.INT64),
            Column("d_attr", ColumnType.INT64),
        ],
        primary_key="d_key",
    )
    return Table(
        "date_dim",
        schema,
        {
            "d_key": days,
            "d_month": (days // 30) % 12 + 1,
            "d_year": 2024 + days // 365,
            "d_attr": days,
        },
    )


def _build_promotion(config: SnowflakeConfig, rng: np.random.Generator) -> Table:
    n = config.num_promotions
    kinds = np.arange(n) % len(PROMO_WIDTHS)
    lows = np.round(rng.uniform(0.0, 1200.0, n), 2)
    widths = np.asarray(PROMO_WIDTHS)[kinds]
    schema = Schema(
        [
            Column("p_id", ColumnType.INT64),
            Column("p_kind", ColumnType.INT64),
            Column("p_lo", ColumnType.FLOAT64),
            Column("p_hi", ColumnType.FLOAT64),
        ],
        primary_key="p_id",
    )
    return Table(
        "promotion",
        schema,
        {
            "p_id": np.arange(n),
            "p_kind": kinds,
            "p_lo": lows,
            "p_hi": np.round(lows + widths, 2),
        },
    )


def _build_sales(
    config: SnowflakeConfig, item: Table, rng: np.random.Generator
) -> Table:
    n = config.num_sales
    item_keys = rng.integers(0, config.num_items, n)
    base_prices = item.column("i_price")[item_keys]
    # sale price tracks the item's list price within a ±50 % markup band
    prices = np.round(base_prices * rng.uniform(0.5, 1.5, n), 2)
    schema = Schema(
        [
            Column("s_id", ColumnType.INT64),
            Column("s_itemkey", ColumnType.INT64),
            Column("s_datekey", ColumnType.INT64),
            Column("s_price", ColumnType.FLOAT64),
            Column("s_discount", ColumnType.FLOAT64),
        ],
        primary_key="s_id",
        foreign_keys=[
            ForeignKey("s_itemkey", "item", "i_key"),
            ForeignKey("s_datekey", "date_dim", "d_key"),
        ],
    )
    return Table(
        "sales",
        schema,
        {
            "s_id": np.arange(n),
            "s_itemkey": item_keys,
            "s_datekey": rng.integers(0, config.num_dates, n),
            "s_price": prices,
            "s_discount": np.round(rng.uniform(0.0, 0.10, n), 4),
        },
    )


# ----------------------------------------------------------------------
# Templates
# ----------------------------------------------------------------------
class SnowflakeChainTemplate(QueryTemplate):
    """Chain correlation two FK hops apart.

    ::

        SELECT SUM(s_price) FROM sales ⋈ item ⋈ brand ⋈ category
        WHERE item.i_attr BETWEEN 0 AND m−1
          AND category.c_attr BETWEEN ? AND ?+w−1

    Both filters select 10 % of their level; the shift ``?`` moves the
    category window off the aligned population, sweeping the joint
    selectivity while every marginal stays fixed.
    """

    name = "snowflake-chain"

    def __init__(
        self,
        num_categories: int = 20,
        hint: float | str | None = None,
    ) -> None:
        if num_categories < 2 or ATTR_DOMAIN % num_categories != 0:
            raise WorkloadError(
                f"num_categories must be >= 2 and divide {ATTR_DOMAIN}"
            )
        self.num_categories = num_categories
        self.hint = hint

    @property
    def window(self) -> int:
        """Categories selected by a 10 % category filter."""
        return max(1, self.num_categories // 10)

    def instantiate(self, param: int) -> SPJQuery:
        m = ATTR_DOMAIN // 10
        w = self.window
        predicate = col("item.i_attr").between(0, m - 1) & col(
            "category.c_attr"
        ).between(param, param + w - 1)
        return SPJQuery(
            ["sales", "item", "brand", "category"],
            predicate,
            aggregates=[AggregateSpec("sum", "sales.s_price", "revenue")],
            hint=self.hint,
        )

    def param_range(self) -> tuple[int, int]:
        # the aligned population of the item window spans categories
        # [0, window·.../...]; a few shifts sweep the overlap to zero
        return (0, 2 * self.window + 1)


class PriceMarkupTemplate(QueryTemplate):
    """Inequality join condition between FK-connected tables.

    ::

        SELECT SUM(s_price) FROM sales ⋈ item
        WHERE sales.s_discount <= ?/100
          AND sales.s_price < item.i_price

    The condition compares columns of two tables that share an FK
    edge, so it stays inside the rooted-tree estimator protocol: the
    robust arm evaluates it directly on the join synopsis while the
    baseline arms price it with the CDF sketch.
    """

    name = "snowflake-markup"

    def __init__(self, hint: float | str | None = None) -> None:
        self.hint = hint

    def instantiate(self, param: int) -> SPJQuery:
        predicate = (col("sales.s_discount") <= param / 100.0) & (
            col("sales.s_price") < col("item.i_price")
        )
        return SPJQuery(
            ["sales", "item"],
            predicate,
            aggregates=[AggregateSpec("sum", "sales.s_price", "revenue")],
            hint=self.hint,
        )

    def param_range(self) -> tuple[int, int]:
        return (1, 10)


class PromotionBandTemplate(QueryTemplate):
    """Band join between FK-unrelated tables.

    ::

        SELECT SUM(s_price) FROM sales, promotion
        WHERE promotion.p_kind = ?
          AND promotion.p_lo <= sales.s_price
          AND sales.s_price < promotion.p_hi

    ``sales`` and ``promotion`` share no FK edge: the two inequality
    conditions are the only thing connecting them, so the optimizer
    must plan a NonEquiJoin and estimate the conditions via the CDF
    sketch. The parameter selects the promotion kind, whose band width
    doubles per kind — sweeping the join selectivity.
    """

    name = "snowflake-band"

    def __init__(self, hint: float | str | None = None) -> None:
        self.hint = hint

    def instantiate(self, param: int) -> SPJQuery:
        predicate = (
            (col("promotion.p_kind") == param)
            & (col("promotion.p_lo") <= col("sales.s_price"))
            & (col("sales.s_price") < col("promotion.p_hi"))
        )
        return SPJQuery(
            ["sales", "promotion"],
            predicate,
            aggregates=[AggregateSpec("sum", "sales.s_price", "revenue")],
            hint=self.hint,
        )

    def param_range(self) -> tuple[int, int]:
        return (0, len(PROMO_WIDTHS) - 1)

    # ------------------------------------------------------------------
    def true_rows(self, database: Database, param: int) -> int:
        """Exact result rows, computed directly with numpy.

        The exact estimator cannot answer here — ``sales`` and
        ``promotion`` are not FK-joinable — so the ground truth counts the
        sales inside each promotion's price band over the base columns.
        """
        prices = database.table("sales").column("s_price")
        promos = database.table("promotion")
        selected = promos.column("p_kind") == param
        lows = promos.column("p_lo")[selected]
        highs = promos.column("p_hi")[selected]
        total = 0
        for low, high in zip(lows.tolist(), highs.tolist()):
            total += int(((prices >= low) & (prices < high)).sum())
        return total

    def true_selectivity(self, database: Database, param: int) -> float:
        """Result rows as a fraction of ``sales`` rows (may exceed 1:
        one sale can fall inside several promotion bands)."""
        return self.true_rows(database, param) / database.table("sales").num_rows
