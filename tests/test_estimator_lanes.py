"""``estimate_many`` on the robust arm: arrays first, lanes on read.

The robust estimator prices a whole threshold grid from two arrays and
returns them as a :class:`VectorCardinalityEstimate`; lane ``i``'s
scalar :class:`CardinalityEstimate` exists once somebody reads it.
``tests/test_estimator_contract.py`` holds lane ``i`` to
``estimate(grid[i])`` field for field; this module pins the other half:
the arrays are the stacked scalar results bit for bit on every ladder
rung, a plan builds only the lanes it reads (counted), a lane read
twice is one object, wrappers hand the value through, and the evidence
spans did not change.
"""

import numpy as np
import pytest

from repro import Session
from repro.core import CardinalityEstimate, RobustCardinalityEstimator
from repro.core.estimate import VectorCardinalityEstimate
from repro.faults.injectors import FaultyEstimator
from repro.obs.tracer import Tracer
from repro.optimizer import Optimizer
from repro.workloads import PartCorrelationTemplate
from tests.test_estimator_contract import (  # noqa: F401 (fixture)
    CASES,
    ROBUST_SHAPES,
    consistency_estimator,
    shaped_statistics,
)

#: A ``cvar:0.9:32``-sized grid: the reference lane plus 32 samples.
GRID = (0.5,) + tuple(np.linspace(0.02, 0.98, 32).tolist())


@pytest.mark.parametrize("case_index", range(len(CASES)))
@pytest.mark.parametrize("name", ["robust", *ROBUST_SHAPES])
def test_arrays_are_the_stacked_scalar_results(
    tpch_db, tpch_stats, shaped_statistics, name, case_index
):
    """Synopsis rung and all five ladder shapes, bit for bit."""
    estimator = consistency_estimator(tpch_db, tpch_stats, shaped_statistics, name)
    tables, predicate = CASES[case_index]
    many = estimator.estimate_many(tables, predicate, GRID)
    assert isinstance(many, VectorCardinalityEstimate)
    scalars = [estimator.estimate(tables, predicate, hint=t) for t in GRID]
    for field in ("selectivity", "cardinality"):
        stacked = np.asarray([getattr(e, field) for e in scalars])
        assert getattr(many, field).dtype == stacked.dtype
        assert getattr(many, field).tobytes() == stacked.tobytes()
    assert many.threshold == tuple(e.threshold for e in scalars)
    assert len(many) == len(GRID)


def test_a_lane_read_twice_is_one_object(tpch_stats):
    estimator = RobustCardinalityEstimator(tpch_stats)
    tables, predicate = CASES[3]
    estimator.estimate_many(tables, predicate, GRID)  # a first sight keeps nothing
    many = estimator.estimate_many(tables, predicate, GRID)
    lane = many[4]
    assert lane is many[4] is many.at(4) is list(many)[4]
    assert many[-1] is many.at(len(GRID) - 1)
    assert many[1:3] == (many[1], many[2])
    assert type(lane) is CardinalityEstimate
    assert lane.threshold == GRID[4]
    with pytest.raises(IndexError):
        many[len(GRID)]
    # the memo hands the same value, lanes and all, to the next caller
    assert estimator.estimate_many(tables, predicate, list(GRID)) is many


@pytest.fixture
def scalar_constructions(monkeypatch):
    """Every plain ``CardinalityEstimate`` built while the fixture is
    live (the vector subclass has its own ``__init__``)."""
    built: list[CardinalityEstimate] = []
    construct = CardinalityEstimate.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(CardinalityEstimate, "__init__", counting)
    return built


def test_a_penalty_plan_builds_only_the_lanes_it_reads(
    tpch_db, tpch_stats, scalar_constructions
):
    """One ``optimize_penalty`` over a 33-lane grid finalizes at lane 0:
    one scalar estimate per estimator call, not 33."""
    query = PartCorrelationTemplate().instantiate(300)
    optimizer = Optimizer(tpch_db, RobustCardinalityEstimator(tpch_stats))
    planned = optimizer.optimize_penalty(query, GRID[1:], risk="cvar", alpha=0.9)
    assert planned.estimation_calls == len(planned.estimates) > 3
    assert len(scalar_constructions) == planned.estimation_calls
    assert {e.threshold for e in scalar_constructions} == {0.5}


def test_lanes_of_a_many_plan_are_built_once_each(
    tpch_db, tpch_stats, scalar_constructions
):
    query = PartCorrelationTemplate().instantiate(300)
    lanes = (0.5, 0.8, 0.95)
    optimizer = Optimizer(tpch_db, RobustCardinalityEstimator(tpch_stats))
    planned = optimizer.optimize_many(query, lanes)
    assert len(scalar_constructions) == planned[0].estimation_calls * len(lanes)


class _Forwarding:
    """An estimator proxy in the shape ``Session.estimator_decorator``
    takes: forwards the protocol, keeps what ``estimate_many`` returned."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.returned: list = []

    def estimate(self, tables, predicate, hint=None):
        return self.inner.estimate(tables, predicate, hint=hint)

    def estimate_many(self, tables, predicate, thresholds):
        self.returned.append(
            self.inner.estimate_many(tables, predicate, thresholds)
        )
        return self.returned[-1]

    def condition_selectivity(self, condition):
        return self.inner.condition_selectivity(condition)

    def describe(self):
        return self.inner.describe()


def test_wrappers_pass_the_value_through(tpch_db, tpch_stats):
    inner = RobustCardinalityEstimator(tpch_stats)
    tables, predicate = CASES[4]
    inner.estimate_many(tables, predicate, GRID)  # a first sight keeps nothing
    direct = inner.estimate_many(tables, predicate, GRID)
    faulty = FaultyEstimator(inner, np.random.default_rng(0))
    assert faulty.estimate_many(tables, predicate, GRID) is direct
    assert VectorCardinalityEstimate.from_estimates(direct) is direct

    proxies: list[_Forwarding] = []

    def decorate(estimator):
        proxies.append(_Forwarding(estimator))
        return proxies[-1]

    with Session(tpch_db, statistics=tpch_stats) as session:
        session.estimator_decorator = decorate
        prepared = session.prepare(
            "SELECT COUNT(*) AS n FROM lineitem, orders "
            "WHERE orders.o_totalprice > 100000",
            policy="cvar:0.9:32",
        )
    (proxy,) = proxies
    assert proxy.returned
    assert all(type(v) is VectorCardinalityEstimate for v in proxy.returned)
    # what the plan reports are lanes of those very values
    reported = {id(e) for e in prepared.planned.estimates.values()}
    assert reported == {id(v.at(0)) for v in proxy.returned}


def test_other_estimators_still_return_tuples(tpch_db, tpch_stats):
    from tests.test_estimator_contract import estimator_instances

    tables, predicate = CASES[1]
    for name, estimator in estimator_instances(tpch_db, tpch_stats).items():
        if name != "robust":
            many = estimator.estimate_many(tables, predicate, GRID[:3])
            assert type(many) is tuple, name
            bundled = VectorCardinalityEstimate.from_estimates(many)
            assert tuple(bundled) == many


@pytest.mark.parametrize("name", ["robust", *ROBUST_SHAPES])
def test_grid_spans_are_what_they_were(
    tpch_db, tpch_stats, shaped_statistics, name
):
    """One span per factor, each field a per-lane tuple of floats
    computed as before the lanes went lazy (quantile straight from the
    table row, point estimate ``float(q) * total``)."""
    estimator = consistency_estimator(tpch_db, tpch_stats, shaped_statistics, name)
    estimator.tracer = Tracer()
    tables, predicate = CASES[5]
    many = estimator.estimate_many(tables, predicate, GRID)
    spans = estimator.tracer.drain_estimations()
    assert spans
    total = tpch_db.table(many.root_table).num_rows
    product = np.ones(len(GRID))
    for span in spans:
        assert span["threshold"] == list(many.threshold)
        assert all(type(q) is float for q in span["quantile"])
        product = product * np.asarray(span["quantile"])
        if many.posterior is not None:
            assert span["point_estimate"] == [q * total for q in span["quantile"]]
        else:
            assert span["point_estimate"] is None
        assert span["lut_hit"] is (span["source"] != "magic")
    assert product.tobytes() == many.selectivity.tobytes()
    # the sight that keeps the value records the same spans again; a
    # memo hit records nothing new, and reading lanes records nothing
    estimator.estimate_many(tables, predicate, GRID)
    assert estimator.tracer.drain_estimations() == spans
    estimator.estimate_many(tables, predicate, GRID)
    list(many)
    assert estimator.tracer.drain_estimations() == []
