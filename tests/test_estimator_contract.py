"""Interface-contract tests every estimator must satisfy."""

import inspect

import pytest

from repro.core import (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    FixedSelectivityEstimator,
    HistogramCardinalityEstimator,
    MagicNumbers,
    RobustCardinalityEstimator,
)
from repro.core.memo import EstimateCacheMixin
from repro.expressions import col, expr_key
from repro.expressions.analysis import as_join_condition
from repro.faults import FaultyEstimator
from repro.feedback.store import FeedbackProvider, FeedbackStore
from repro.obs.tracer import Tracer
from repro.stats import StatisticsManager


def estimator_instances(tpch_db, tpch_stats):
    return {
        "exact": ExactCardinalityEstimator(tpch_db),
        "robust": RobustCardinalityEstimator(tpch_stats, policy=0.8),
        "histogram": HistogramCardinalityEstimator(tpch_stats),
        "fixed": FixedSelectivityEstimator(tpch_db, default=0.05),
    }


CASES = [
    ({"lineitem"}, None),
    ({"lineitem"}, col("lineitem.l_quantity") > 25),
    (
        {"lineitem"},
        col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30")
        & col("lineitem.l_receiptdate").between("1997-07-01", "1997-09-30"),
    ),
    ({"lineitem", "part"}, col("part.p_size") <= 10),
    ({"lineitem", "orders"}, col("orders.o_totalprice") > 100_000),
    (
        {"lineitem", "orders", "customer", "part"},
        (col("part.p_size") <= 25) & (col("customer.c_acctbal") > 0),
    ),
]


@pytest.mark.parametrize("case_index", range(len(CASES)))
@pytest.mark.parametrize(
    "name", ["exact", "robust", "histogram", "fixed"]
)
class TestEstimatorContract:
    def test_selectivity_in_unit_interval(
        self, tpch_db, tpch_stats, name, case_index
    ):
        estimator = estimator_instances(tpch_db, tpch_stats)[name]
        tables, predicate = CASES[case_index]
        estimate = estimator.estimate(tables, predicate)
        assert 0.0 <= estimate.selectivity <= 1.0

    def test_cardinality_anchored_to_root(
        self, tpch_db, tpch_stats, name, case_index
    ):
        estimator = estimator_instances(tpch_db, tpch_stats)[name]
        tables, predicate = CASES[case_index]
        estimate = estimator.estimate(tables, predicate)
        root_rows = tpch_db.table(estimate.root_table).num_rows
        assert estimate.cardinality == pytest.approx(
            estimate.selectivity * root_rows
        )
        assert estimate.root_table == tpch_db.root_relation(tables)

    def test_deterministic(self, tpch_db, tpch_stats, name, case_index):
        estimator = estimator_instances(tpch_db, tpch_stats)[name]
        tables, predicate = CASES[case_index]
        a = estimator.estimate(tables, predicate)
        b = estimator.estimate(tables, predicate)
        assert a.selectivity == b.selectivity

    def test_tables_echoed(self, tpch_db, tpch_stats, name, case_index):
        estimator = estimator_instances(tpch_db, tpch_stats)[name]
        tables, predicate = CASES[case_index]
        estimate = estimator.estimate(tables, predicate)
        assert estimate.tables == frozenset(tables)

    def test_describe_nonempty(self, tpch_db, tpch_stats, name, case_index):
        estimator = estimator_instances(tpch_db, tpch_stats)[name]
        assert estimator.describe()


ALL_ESTIMATORS = (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    FixedSelectivityEstimator,
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)


def _signature_fields(func):
    """(name, kind, default, annotation) per parameter, self excluded."""
    return [
        (p.name, p.kind, p.default, p.annotation)
        for p in inspect.signature(func).parameters.values()
        if p.name != "self"
    ]


def _protocol_methods() -> set:
    """The public methods of the estimator protocol."""
    return {
        name
        for name, value in vars(CardinalityEstimator).items()
        if callable(value) and not name.startswith("_")
    }


def _signature(cls, name):
    parameters = inspect.signature(getattr(cls, name)).parameters.values()
    return [p for p in parameters if p.name != "self"]


class TestProtocolParity:
    """The estimator protocol: one keyword signature, everywhere.

    The optimizer, session service, and experiment harness call
    estimators positionally and by keyword; any drift in parameter
    names, defaults, or order between implementations is an API break
    that type checkers won't catch (no Protocol/ABC here). These tests
    pin every override to the base signature.
    """

    @pytest.mark.parametrize("cls", ALL_ESTIMATORS)
    def test_estimate_signature_matches_base(self, cls):
        assert _signature_fields(cls.estimate) == _signature_fields(
            CardinalityEstimator.estimate
        ), cls.__name__

    @pytest.mark.parametrize("cls", ALL_ESTIMATORS)
    def test_estimate_many_signature_matches_base(self, cls):
        assert _signature_fields(cls.estimate_many) == _signature_fields(
            CardinalityEstimator.estimate_many
        ), cls.__name__

    @pytest.mark.parametrize("cls", ALL_ESTIMATORS)
    def test_estimate_groups_signature_matches_base(self, cls):
        assert _signature_fields(cls.estimate_groups) == _signature_fields(
            CardinalityEstimator.estimate_groups
        ), cls.__name__

    def test_faulty_estimator_forwards_every_protocol_method(self):
        """A decorator that leaves a protocol method to the base class
        answers it from its own (empty) state, not the inner
        estimator's. Found by introspection, so a method added to the
        protocol later fails here until the decorator forwards it."""
        protocol = _protocol_methods()
        assert {"estimate", "estimate_groups", "condition_selectivity"} <= protocol
        for name in sorted(protocol):
            assert name in vars(FaultyEstimator), name
            assert [p.name for p in _signature(FaultyEstimator, name)] == [
                p.name for p in _signature(CardinalityEstimator, name)
            ], name

    def test_point_estimators_share_one_estimate_path(self):
        """The histogram arm is the one memoized point estimator: its
        threshold-blind lanes come from the base ``estimate_many``."""
        cls = HistogramCardinalityEstimator
        assert issubclass(cls, EstimateCacheMixin)
        assert cls.estimate_many is CardinalityEstimator.estimate_many

    def test_point_estimator_lanes_are_one_memoized_estimate(self, tpch_stats):
        tables, predicate = CASES[3]
        estimator = HistogramCardinalityEstimator(tpch_stats)
        estimator.estimate(tables, predicate)  # a first sight keeps nothing
        lanes = estimator.estimate_many(tables, predicate, GRID)
        assert all(lane is lanes[0] for lane in lanes)
        assert estimator.estimate(tables, predicate) is lanes[0]

    @pytest.mark.parametrize("cls", [HistogramCardinalityEstimator])
    def test_point_estimators_charge_a_residual_conjunct_its_magic_number(
        self, tpch_stats, cls
    ):
        """A conjunct no single table owns (a cross-table OR, or one on
        an unqualified column) reaches no histogram."""
        estimator = cls(tpch_stats)
        for residual in (
            (col("part.p_size") <= 10) | (col("lineitem.l_quantity") > 45),
            col("l_quantity").isin([10, 20]),
        ):
            estimate = estimator.estimate({"lineitem", "part"}, residual)
            assert estimate.selectivity == estimator.magic.for_predicate(residual)

    @pytest.mark.parametrize(
        "cls", [RobustCardinalityEstimator, HistogramCardinalityEstimator]
    )
    def test_join_condition_fallback_reads_the_estimators_own_magic(
        self, snowflake_db, cls
    ):
        """Without samples a join condition is priced at the magic
        number of the estimator's own table, not the default one."""
        magic = MagicNumbers(range=0.9, inequality=0.9)
        estimator = cls(StatisticsManager(snowflake_db), magic=magic)
        condition = as_join_condition(col("sales.s_price") < col("item.i_price"))
        assert estimator.condition_selectivity(condition) == 0.9

    def test_every_estimator_has_estimate_many(self):
        """The base default makes threshold-blind estimators (exact,
        fixed) satisfy the vectorized interface without overriding."""
        for cls in ALL_ESTIMATORS:
            assert callable(getattr(cls, "estimate_many"))
        assert (
            ExactCardinalityEstimator.estimate_many
            is CardinalityEstimator.estimate_many
        )
        assert (
            FixedSelectivityEstimator.estimate_many
            is CardinalityEstimator.estimate_many
        )


GRID = (0.05, 0.50, 0.95)


#: Statistics shapes that put the robust estimator on each rung of the
#: Section 3.5 ladder, with the ``source`` the four-table CASES[5]
#: (predicates on ``part`` and ``customer``) must come out as.
ROBUST_SHAPES = {
    "robust-samples-only": "sample-avi",
    "robust-part-unsampled": "mixed",
    "robust-no-statistics": "magic",
    "robust-feedback": "feedback",
    "robust-feedback-no-synopsis": "feedback",
}


@pytest.fixture(scope="module")
def shaped_statistics(tpch_db, tpch_stats):
    """One statistics manager per shape (estimators are built fresh)."""
    samples_only = StatisticsManager(tpch_db)
    samples_only.update_statistics(sample_size=500, seed=5)
    part_unsampled = StatisticsManager(tpch_db)
    part_unsampled.update_statistics(sample_size=500, seed=5)
    for manager in (samples_only, part_unsampled):
        for table in tpch_db.table_names:
            manager.drop_synopsis(table)
    part_unsampled.drop_sample("part")
    return {
        "robust-samples-only": samples_only,
        "robust-part-unsampled": part_unsampled,
        "robust-no-statistics": StatisticsManager(tpch_db),
        "robust-feedback": tpch_stats,
        "robust-feedback-no-synopsis": samples_only,
    }


def consistency_estimator(tpch_db, tpch_stats, shaped_statistics, name):
    if name not in ROBUST_SHAPES:
        return estimator_instances(tpch_db, tpch_stats)[name]
    estimator = RobustCardinalityEstimator(shaped_statistics[name], policy=0.8)
    if "feedback" in name:
        # A stored observation for every case, so both the synopsis
        # fold and the no-synopsis short-circuit are exercised.
        store = FeedbackStore()
        for tables, predicate in CASES:
            store.record(
                "contract",
                tables=tables,
                predicate_key=expr_key(predicate),
                observed_rows=1234.0,
            )
        estimator.feedback = FeedbackProvider(store, "contract")
    return estimator


def _lane(span: dict, index: int) -> dict:
    """Lane ``index`` of a grid evidence span, in scalar-span shape."""
    out = dict(span)
    for field in ("threshold", "quantile", "point_estimate"):
        if out[field] is not None:
            out[field] = out[field][index]
    if out["feedback"] is not None:
        out["feedback"] = dict(out["feedback"])
        for field in ("prior_quantile", "prior_point_estimate"):
            out["feedback"][field] = out["feedback"][field][index]
    return out


@pytest.mark.parametrize(
    "name", ["exact", "robust", "histogram", "fixed", *ROBUST_SHAPES]
)
class TestEstimateManyConsistency:
    """estimate_many == looping estimate with each threshold as hint,
    on every rung of the robust estimator's ladder."""

    @pytest.mark.parametrize("case_index", range(len(CASES)))
    def test_grid_matches_looped_estimates(
        self, tpch_db, tpch_stats, shaped_statistics, name, case_index
    ):
        estimator = consistency_estimator(
            tpch_db, tpch_stats, shaped_statistics, name
        )
        robust = isinstance(estimator, RobustCardinalityEstimator)
        if robust:
            estimator.tracer = Tracer()
        tables, predicate = CASES[case_index]
        many = estimator.estimate_many(tables, predicate, GRID)
        assert len(many) == len(GRID)
        grid_spans = estimator.tracer.drain_estimations() if robust else []
        for index, (vectored, t) in enumerate(zip(many, GRID)):
            scalar = estimator.estimate(tables, predicate, hint=t)
            assert vectored.selectivity == scalar.selectivity
            assert vectored.cardinality == scalar.cardinality
            assert vectored.root_table == scalar.root_table
            assert vectored.source == scalar.source
            assert vectored.threshold == scalar.threshold
            assert (vectored.posterior is None) == (scalar.posterior is None)
            if scalar.posterior is not None:
                for field in ("k", "n", "alpha", "beta"):
                    assert getattr(vectored.posterior, field) == getattr(
                        scalar.posterior, field
                    )
            if robust:
                # Evidence spans agree field by field; only ``lut_hit``
                # differs by design (it says which finisher inverted).
                scalar_spans = estimator.tracer.drain_estimations()
                for span in scalar_spans:
                    assert span.pop("lut_hit") is False
                lanes = [_lane(span, index) for span in grid_spans]
                for span in lanes:
                    assert span.pop("lut_hit") is (span["source"] != "magic")
                assert lanes == scalar_spans

    def test_accepts_any_sequence(
        self, tpch_db, tpch_stats, shaped_statistics, name
    ):
        """Grids arrive as lists, tuples, or arrays; all must work."""
        estimator = consistency_estimator(
            tpch_db, tpch_stats, shaped_statistics, name
        )
        tables, predicate = CASES[1]
        as_tuple = estimator.estimate_many(tables, predicate, GRID)
        as_list = estimator.estimate_many(tables, predicate, list(GRID))
        assert [e.selectivity for e in as_tuple] == [
            e.selectivity for e in as_list
        ]


@pytest.mark.parametrize("name", ROBUST_SHAPES)
def test_shape_reaches_its_rung(tpch_db, tpch_stats, shaped_statistics, name):
    """Each statistics shape lands on the ladder rung it is named for."""
    estimator = consistency_estimator(tpch_db, tpch_stats, shaped_statistics, name)
    tables, predicate = CASES[5]
    sources = {e.source for e in estimator.estimate_many(tables, predicate, GRID)}
    assert sources == {ROBUST_SHAPES[name]}
    assert estimator.estimate(tables, predicate).source == ROBUST_SHAPES[name]
