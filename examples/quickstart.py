"""Quickstart: robust cardinality estimation end to end.

Builds a tiny two-table database, precomputes statistics (samples +
join synopses + histograms), asks the robust estimator for a
selectivity *distribution*, and shows how the confidence threshold
changes both the estimate and the plan the optimizer picks.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
    Schema,
    Session,
    StatisticsManager,
    Table,
    col,
)
from repro.optimizer import SPJQuery


def build_database(num_products=500, num_sales=50_000, seed=42):
    """A sales/product schema with *correlated* sale attributes."""
    rng = np.random.default_rng(seed)
    products = Table(
        "products",
        Schema(
            [
                Column("prod_id", ColumnType.INT64),
                Column("price", ColumnType.FLOAT64),
                Column("category", ColumnType.STRING),
            ],
            primary_key="prod_id",
        ),
        {
            "prod_id": np.arange(num_products),
            "price": rng.uniform(1, 500, num_products).round(2),
            "category": rng.choice(["tools", "toys", "food"], num_products),
        },
    )
    # The two sale columns are correlated: discount follows quantity.
    quantity = rng.integers(1, 1001, num_sales)
    discount = np.clip(quantity + rng.integers(-50, 51, num_sales), 1, 1200)
    sales = Table(
        "sales",
        Schema(
            [
                Column("sale_id", ColumnType.INT64),
                Column("prod_id", ColumnType.INT64),
                Column("quantity", ColumnType.INT64),
                Column("discount", ColumnType.INT64),
                Column("revenue", ColumnType.FLOAT64),
                Column("tax", ColumnType.FLOAT64),
                Column("note", ColumnType.STRING),
            ],
            primary_key="sale_id",
            foreign_keys=[ForeignKey("prod_id", "products", "prod_id")],
        ),
        {
            "sale_id": np.arange(num_sales),
            "prod_id": rng.integers(0, num_products, num_sales),
            "quantity": quantity,
            "discount": discount,
            "revenue": rng.uniform(1, 10_000, num_sales).round(2),
            "tax": rng.uniform(0, 0.25, num_sales).round(4),
            "note": rng.choice(["ok", "rush", "gift"], num_sales),
        },
    )
    database = Database([products, sales])
    database.validate()
    database.create_index("sales", "sale_id", clustered=True)
    database.create_index("sales", "quantity")
    database.create_index("sales", "discount")
    return database


def main():
    database = build_database()

    # Offline phase: the UPDATE STATISTICS analogue.
    statistics = StatisticsManager(database)
    statistics.update_statistics(sample_size=500, seed=7)

    # A correlated conjunction: quantity and discount move together, so
    # the joint selectivity is far larger than the AVI product.
    # Its true selectivity sits near the scan-vs-index crossover, so
    # the posterior's percentiles straddle the plan boundary.
    predicate = (col("sales.quantity") >= 998) & (col("sales.discount") >= 990)

    robust = RobustCardinalityEstimator(statistics, policy="moderate")
    estimate = robust.estimate({"sales"}, predicate)
    posterior = estimate.posterior
    print("== The selectivity is a distribution, not a point ==")
    print(f"sample evidence: k={posterior.k} of n={posterior.n} tuples satisfy")
    print(f"posterior: Beta({posterior.alpha:g}, {posterior.beta:g})")
    low, high = posterior.credible_interval(0.90)
    print(f"90% credible interval: [{low:.3%}, {high:.3%}]")
    for threshold in (0.05, 0.50, 0.80, 0.95):
        print(f"  estimate at T={threshold:>4.0%}: {posterior.ppf(threshold):.3%}")

    histogram = HistogramCardinalityEstimator(statistics)
    avi = histogram.estimate({"sales"}, predicate)
    print(f"\nhistogram/AVI estimate: {avi.selectivity:.3%}  <- misses the correlation")

    # The threshold knob changes the chosen plan, not the optimizer.
    # A Session wires estimator + optimizer + engine behind one call.
    print("\n== Plans at different confidence thresholds ==")
    with Session(database, statistics=statistics) as session:
        query = SPJQuery(["sales"], predicate)
        for policy in ("aggressive", "conservative"):
            result = session.execute(query, policy=policy)
            print(f"\n[{policy}]  rows={result.num_rows}  "
                  f"simulated time={result.simulated_seconds:.4f}s")
            print(result.prepared.explain())


if __name__ == "__main__":
    main()
