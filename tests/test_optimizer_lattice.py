"""The join lattice against its own parent, and what it may not redo.

``tests/reference_lattice.py`` keeps the lattice as it was: every
(left, right) pair joined on its own into a candidate that carries its
operator tree, and a slot walk that meets a winner under its order slot
and again under ``None``. The optimizer's lattice prices a partition at
once, prunes, walks each survivor once, and builds a tree only for a
plan it finalizes; this module asserts that nothing else changed —
every subset's pruned mapping equal slot for slot (trees and their
annotations at every lane, cost and rows bits, order, active lanes),
every ``PlannedQuery`` equal lane for lane, the estimator asked the
same questions in the same order — on the TPC-H / star / snowflake
batteries and one statement of each ``plan_cold`` family, scalar and
under a 5-lane and a 33-lane grid.

The saving itself is pinned by counts, not by a clock: no candidate is
walked twice, a base⋈base partition hands ``prune`` four candidates
(sixteen before), ``dp_levels[*].generated`` is fixed for one
statement, operators are constructed only for the trees a plan
finalizes (and those penalty selection reads), no prune stacks
per-candidate rows, and ``Database.root_relation`` walks the FK
closure once per distinct table set.
"""

import numpy as np
import pytest

from repro.core import RobustCardinalityEstimator
from repro.cost import CostModel
from repro.obs import Tracer
from repro.optimizer import Optimizer, SPJQuery
from repro.engine import PhysicalOperator
from repro.optimizer import optimizer as optimizer_module
from repro.optimizer.candidates import prune
from repro.optimizer.optimizer import PlanningContext
from repro.selection import resolve_policy, sample_quantiles
from repro.workloads import (
    QUERY_BATTERY,
    PartCorrelationTemplate,
    PriceMarkupTemplate,
    PromotionBandTemplate,
    ShippingDatesTemplate,
    SnowflakeChainTemplate,
    StarJoinTemplate,
)
from tests import reference_lattice
from tests.conftest import parse_battery
from tests.reference_lattice import (
    PairwiseOptimizer,
    assert_lattices_agree,
    assert_plans_agree,
    enumerate_with,
    walk_slots,
)

LANES = (0.5, 0.65, 0.8, 0.9, 0.95)
#: A ``cvar:0.9:32`` request's grid: the reference lane plus 32 samples.
SAMPLES = sample_quantiles(
    resolve_policy("cvar:0.9:32"), query_key="lattice", statistics_token=0
)
MODES = ("scalar", "lanes5", "lanes33")


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worlds(tpch_db, tpch_stats, star_db, star_stats, snowflake_db, snowflake_stats):
    """name -> (database, statistics)."""
    return {
        "tpch": (tpch_db, tpch_stats),
        "star": (star_db, star_stats),
        "snow": (snowflake_db, snowflake_stats),
    }


STAR_PARAMS = (0, 40, 100)
SNOWFLAKE = (
    (SnowflakeChainTemplate(), (0, 2, 5)),
    (PriceMarkupTemplate(), (1, 5, 10)),
    (PromotionBandTemplate(), (0, 2, 4)),
)
#: One statement per plan_cold family (bench/README.md): lineitem date
#: windows, lineitem-orders-part, lineitem-orders-customer, 4-table
#: star, 4-table snowflake chain, markup inequality, promotion band.
FAMILIES = (
    "li_dates", "part_corr", "cust_join", "star4", "snow_chain", "markup",
    "promo_band",
)
CASE_IDS = [
    *(f"tpch-{name}" for name in QUERY_BATTERY),
    *(f"star-{p}" for p in STAR_PARAMS),
    *(f"{t.name}-{p}" for t, params in SNOWFLAKE for p in params),
    *(f"family-{name}" for name in FAMILIES),
]


@pytest.fixture(scope="module")
def cases(tpch_db, star_config) -> dict[str, tuple[str, SPJQuery]]:
    """id -> (world, query): the batteries, then the plan_cold families."""
    star = StarJoinTemplate(num_dim=star_config.num_dim)
    battery = parse_battery(tpch_db)
    built = {f"tpch-{name}": ("tpch", query) for name, query in battery.items()}
    built.update(
        {f"star-{p}": ("star", star.instantiate(p)) for p in STAR_PARAMS}
    )
    built.update(
        {
            f"{template.name}-{p}": ("snow", template.instantiate(p))
            for template, params in SNOWFLAKE
            for p in params
        }
    )
    families = {
        "li_dates": ("tpch", ShippingDatesTemplate().instantiate(90)),
        "part_corr": ("tpch", PartCorrelationTemplate().instantiate(300)),
        "cust_join": (
            "tpch",
            SPJQuery(
                ["lineitem", "orders", "customer"],
                battery["shipping_priority"].predicate,
            ),
        ),
        "star4": ("star", star.instantiate(20)),
        "snow_chain": ("snow", SnowflakeChainTemplate().instantiate(1)),
        "markup": ("snow", PriceMarkupTemplate().instantiate(3)),
        "promo_band": ("snow", PromotionBandTemplate().instantiate(1)),
    }
    built.update({f"family-{name}": families[name] for name in FAMILIES})
    assert list(built) == CASE_IDS
    return built


GRIDS = {"scalar": None, "lanes5": LANES, "lanes33": (0.5,) + SAMPLES}
PLANNERS = {
    "scalar": lambda optimizer, query: [optimizer.optimize(query)],
    "lanes5": lambda optimizer, query: optimizer.optimize_many(query, LANES),
    "lanes33": lambda optimizer, query: [
        optimizer.optimize_penalty(query, SAMPLES, risk="cvar", alpha=0.9)
    ],
}


# ----------------------------------------------------------------------
# The lattice against its parent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASE_IDS)
class TestAgainstPairwiseLattice:
    def test_every_subset_prunes_to_the_same_mapping(
        self, worlds, cases, case, mode
    ):
        world, query = cases[case]
        assert_lattices_agree(*worlds[world], query, GRIDS[mode])

    def test_planned_queries_are_equal_lane_for_lane(
        self, worlds, cases, case, mode
    ):
        world, query = cases[case]
        assert_plans_agree(*worlds[world], query, PLANNERS[mode])


# ----------------------------------------------------------------------
# A stored shape, priced again under refreshed statistics
# ----------------------------------------------------------------------
#: The statistics seed a warm session refreshes to before the second plan.
REFRESH_SEED = 23


@pytest.fixture(scope="module")
def warm(worlds, cases):
    """case -> (stored shape, refreshed statistics): every case prepared
    through a :class:`Session` in all three modes (its shape stored and
    priced under the first statistics), then the statistics refreshed."""
    from repro import Session
    from repro.service import query_fingerprint

    sessions = {
        world: Session(database, statistics=statistics)
        for world, (database, statistics) in worlds.items()
    }
    for world, query in cases.values():
        session = sessions[world]
        session.prepare(query)
        session.prepare_many(query, LANES)
        session.prepare(query, policy="cvar:0.9:32")
    for session in sessions.values():
        session.refresh_statistics(seed=REFRESH_SEED)
    out = {}
    for case, (world, query) in cases.items():
        session = sessions[world]
        shape = session._shapes.get(query_fingerprint(query))
        assert shape.tables == query.tables
        out[case] = (shape, session.statistics)
    return out


def stored_shape_optimizer(shape):
    """An :class:`Optimizer` that prices ``shape`` — handed to its plans
    as a session hands its stored shapes, and to a context built
    without one (``enumerate_with``'s) in place of the shape that
    context derived."""

    class StoredShapeOptimizer(Optimizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._shapes = self.lend

        @staticmethod
        def lend(query):
            assert query.tables == shape.tables
            return shape

        def _enumerate_joins(self, ctx, query, dp_stats=None):
            if ctx.shape is not shape:
                ctx = PlanningContext(
                    ctx.database, ctx.model, ctx.estimator, ctx.query,
                    ctx.grid, self.lend(ctx.query),
                )
            return super()._enumerate_joins(ctx, query, dp_stats)

    return StoredShapeOptimizer


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASE_IDS)
class TestStoredShapeAgainstPairwiseLattice:
    """The second plan of a statement, through the shape its first plans
    stored, against the reference over a shape of its own: the same
    per-subset mappings, plans and estimator questions in the same
    order, under statistics the first plans never saw."""

    @pytest.fixture(autouse=True)
    def stored(self, monkeypatch, warm, case):
        shape, statistics = warm[case]
        monkeypatch.setattr(
            reference_lattice, "Optimizer", stored_shape_optimizer(shape)
        )
        return statistics

    def test_every_subset_prunes_to_the_same_mapping(
        self, worlds, cases, case, mode, stored
    ):
        world, query = cases[case]
        database, _ = worlds[world]
        assert_lattices_agree(database, stored, query, GRIDS[mode])

    def test_planned_queries_are_equal_lane_for_lane(
        self, worlds, cases, case, mode, stored
    ):
        world, query = cases[case]
        database, _ = worlds[world]
        assert_plans_agree(database, stored, query, PLANNERS[mode])


# ----------------------------------------------------------------------
# Counted, not timed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "case", ["tpch-shipping_priority", "star-40", "snowflake-band-2"]
)
def test_no_candidate_is_walked_twice(worlds, cases, case, mode):
    world, query = cases[case]
    survivors, _ = enumerate_with(Optimizer, *worlds[world], query, GRIDS[mode])
    aliased = 0
    for plans in survivors.values():
        every = list(walk_slots(plans.slots))
        # each survivor is kept once, in the order the slots first meet it
        assert list(dict.fromkeys(every)) == list(range(len(plans)))
        aliased += len(every) - len(plans)
    assert aliased  # the mappings do file winners under two slots


def _spied_prune(sizes: dict):
    def spied(plans):
        sizes[plans.tables] = len(plans)
        return prune(plans)

    return spied


def test_base_join_partition_hands_prune_four_candidates(
    tpch_db, tpch_stats, monkeypatch
):
    """Hash, merge, and an indexed NL join each way — not that per
    alias pair (4 x 4 = 16 at the parent)."""
    query = SPJQuery(["lineitem", "orders"])
    pair = frozenset(query.tables)
    estimator = RobustCardinalityEstimator(tpch_stats)
    sizes: dict = {}
    monkeypatch.setattr(optimizer_module, "prune", _spied_prune(sizes))
    ctx = PlanningContext(tpch_db, CostModel(), estimator, query)
    Optimizer(tpch_db, estimator)._enumerate_joins(ctx, query)
    assert sizes[pair] == 4

    reference = PairwiseOptimizer(tpch_db, estimator)
    reference.optimize(query)
    assert reference.handed_to_prune[pair] == 16


def test_generated_counts_are_pinned(tpch_db, tpch_stats):
    """``generated`` counts candidates actually built (28 and 36 on the
    two join levels at the parent); what survives is unchanged."""
    query = parse_battery(tpch_db)["shipping_priority"]
    optimizer = Optimizer(
        tpch_db, RobustCardinalityEstimator(tpch_stats), tracer=Tracer()
    )
    span = optimizer.optimize(query).trace
    levels = span["dp_levels"]
    assert [level["generated"] for level in levels] == [3, 7, 15]
    assert [level["kept"] for level in levels] == [3, 5, 4]
    assert [level["subsets"] for level in levels] == [3, 2, 1]
    assert span["candidates_considered"] == 25
    assert span["finalists"] == 4


@pytest.fixture
def constructed(monkeypatch):
    """``{id: operator}`` of every ``PhysicalOperator`` constructed while
    the fixture is live (the operators are kept, so no id is reused)."""
    built: dict = {}

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in {PhysicalOperator, *subclasses(PhysicalOperator)}:
        if "__init__" in vars(cls):
            def init(self, *args, _init=vars(cls)["__init__"], **kwargs):
                built[id(self)] = self
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
    return built


def _nodes(*trees) -> set[int]:
    return {id(node) for tree in trees for node in tree.walk()}


def test_operators_are_built_only_for_finalized_trees(
    worlds, cases, constructed
):
    """Pricing and pruning build no operator: a scalar plan constructs
    exactly its finished tree's nodes, and a 33-lane penalty plan those
    plus the finalists' trees ``_select_by_risk`` reads for signatures
    (each once, the winner's reused) — not one per candidate priced."""
    world, query = cases["family-star4"]
    database, statistics = worlds[world]
    optimizer = Optimizer(database, RobustCardinalityEstimator(statistics))

    scalar = optimizer.optimize(query)
    assert set(constructed) == _nodes(scalar.plan)

    constructed.clear()
    penalty = optimizer.optimize_penalty(query, SAMPLES, risk="cvar", alpha=0.9)
    built = set(constructed)
    finalists = [c.operator for c in penalty.alternatives]  # built: no new ones
    assert set(constructed) == built == _nodes(penalty.plan, *finalists)
    assert len(penalty.alternatives) > 1
    generated = sum(level["generated"] for level in Optimizer(
        database, RobustCardinalityEstimator(statistics), tracer=Tracer()
    ).optimize(query).trace["dp_levels"])
    assert len(constructed) < generated


def test_a_prune_stacks_no_per_candidate_rows(worlds, cases, monkeypatch):
    """Under a grid each subset's candidates arrive at the pruner as the
    cost matrices their partitions were priced into (one row per
    candidate priced); nothing re-stacks per-candidate rows."""
    stacked: list = []
    for name in ("stack", "vstack"):
        original = getattr(np, name)
        monkeypatch.setattr(
            np, name, lambda *a, _f=original, **k: stacked.append(1) or _f(*a, **k)
        )
    handed: list = []

    def spied(plans):
        handed.append((len(plans), plans.cost))
        return prune(plans)

    monkeypatch.setattr(optimizer_module, "prune", spied)
    world, query = cases["family-star4"]
    database, statistics = worlds[world]
    Optimizer(database, RobustCardinalityEstimator(statistics)).optimize_penalty(
        query, SAMPLES, risk="cvar", alpha=0.9
    )
    assert stacked == []
    assert handed and all(
        isinstance(cost, np.ndarray) and cost.shape == (n, len(SAMPLES) + 1)
        for n, cost in handed
    )


def test_root_relation_walks_the_closure_once_per_table_set(monkeypatch):
    from repro.catalog import Database
    from repro.stats import StatisticsManager
    from repro.workloads import TpchConfig, build_tpch_database

    database = build_tpch_database(TpchConfig(num_lineitem=2_000, seed=1))
    statistics = StatisticsManager(database)
    statistics.update_statistics(sample_size=100, seed=5)
    query = parse_battery(database)["shipping_priority"]

    walks: list[str] = []
    asked: list = []
    reachable_from, root_relation = Database.reachable_from, Database.root_relation
    monkeypatch.setattr(
        Database,
        "reachable_from",
        lambda self, root: walks.append(root) or reachable_from(self, root),
    )
    monkeypatch.setattr(
        Database,
        "root_relation",
        lambda self, tables: asked.append(tables) or root_relation(self, tables),
    )
    # an estimator that remembers nothing: every estimate is computed
    monkeypatch.setattr(
        RobustCardinalityEstimator, "_memoized", lambda self, key, compute: compute()
    )

    def plan() -> tuple[int, int]:
        """(closure walks, distinct table sets asked about) of one plan,
        by an estimator that remembers nothing."""
        del walks[:], asked[:]
        estimator = RobustCardinalityEstimator(statistics)
        Optimizer(database, estimator).optimize(query)
        assert all(isinstance(tables, frozenset) for tables in asked)
        return len(walks), len(set(asked))

    walked, distinct = plan()
    assert len(asked) > distinct  # the lattice does ask again...
    # ...and only a table set not seen before (building the statistics
    # saw some) is walked
    assert 0 < walked <= distinct
    assert plan() == (0, distinct)

    from repro.catalog import Column, ColumnType, Schema, Table

    database.add_table(
        Table(
            "extra",
            Schema([Column("e_key", ColumnType.INT64)], primary_key="e_key"),
            {"e_key": np.arange(3)},
        )
    )
    assert plan() == (distinct, distinct)
