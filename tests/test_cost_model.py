"""Unit tests for the cost model, including counter/estimate consistency."""

import pytest

from repro.cost import CostModel
from repro.engine import ExecutionContext, SeqScan, IndexIntersect, WorkCounters
from repro.engine.scans import IndexCondition
from repro.expressions import col

from tests.conftest import make_two_table_db


@pytest.fixture
def model():
    return CostModel()


class TestCounters:
    def test_add(self):
        a = WorkCounters(seq_pages=1, random_ios=2)
        b = WorkCounters(seq_pages=10, cpu_rows=5)
        a.add(b)
        assert a.seq_pages == 11
        assert a.random_ios == 2
        assert a.cpu_rows == 5

    def test_copy_is_independent(self):
        a = WorkCounters(seq_pages=1)
        b = a.copy()
        b.seq_pages = 99
        assert a.seq_pages == 1

    def test_as_dict_roundtrip(self):
        a = WorkCounters(seq_pages=3, merge_rows=7)
        assert WorkCounters(**a.as_dict()).as_dict() == a.as_dict()


class TestTimeFromCounters:
    def test_zero_counters_zero_time(self, model):
        assert model.time_from_counters(WorkCounters()) == 0.0

    def test_linear_in_each_counter(self, model):
        single = model.time_from_counters(WorkCounters(random_ios=1))
        many = model.time_from_counters(WorkCounters(random_ios=1000))
        assert many == pytest.approx(1000 * single)

    def test_random_io_much_more_expensive_than_cpu(self, model):
        io = model.time_from_counters(WorkCounters(random_ios=1))
        cpu = model.time_from_counters(WorkCounters(cpu_rows=1))
        assert io > 100 * cpu


class TestFormulaMonotonicity:
    """Section 3.1.1 requires cost monotone in input cardinalities."""

    def test_seq_scan(self, model):
        assert model.seq_scan(2000, 20, 100) > model.seq_scan(1000, 10, 100)
        assert model.seq_scan(1000, 10, 200) > model.seq_scan(1000, 10, 100)

    def test_index_seek(self, model):
        low = model.index_seek(10, 10, False, 100, False)
        high = model.index_seek(100, 100, False, 100, False)
        assert high > low

    def test_clustered_seek_cheaper(self, model):
        clustered = model.index_seek(1000, 1000, True, 100, False)
        nonclustered = model.index_seek(1000, 1000, False, 100, False)
        assert clustered < nonclustered

    def test_index_intersect(self, model):
        low = model.index_intersect([100, 100], 10, 10, False)
        high = model.index_intersect([100, 100], 100, 100, False)
        assert high > low

    def test_hash_join(self, model):
        assert model.hash_join(10, 1000, 50) < model.hash_join(10, 2000, 50)
        assert model.hash_join(10, 1000, 50) < model.hash_join(20, 1000, 50)

    def test_merge_join(self, model):
        assert model.merge_join(100, 100, 10) < model.merge_join(200, 100, 10)

    def test_indexed_nl(self, model):
        low = model.indexed_nl_join(10, 100, 100, False, 100, False)
        high = model.indexed_nl_join(10, 1000, 1000, False, 100, False)
        assert high > low

    def test_aggregate(self, model):
        assert model.aggregate(100, 1, False) < model.aggregate(1000, 1, False)
        assert model.aggregate(100, 10, True) > model.aggregate(100, 10, False)


class TestCrossover:
    def test_crossover_location(self, model):
        """The scan-vs-RID crossover sits in the paper's sub-percent regime."""
        crossover = model.scan_vs_rid_crossover(rows_per_page=128)
        assert 0.001 < crossover < 0.006

    def test_crossover_semantics(self, model):
        """Below the crossover RID fetches win; above, scanning wins."""
        n, rpp = 100_000, 128
        pages = n // rpp
        crossover = model.scan_vs_rid_crossover(rpp)
        for factor, rid_wins in [(0.5, True), (2.0, False)]:
            k = n * crossover * factor
            scan = model.seq_scan(n, pages, k)
            rid = model.index_intersect([k], k, k, False)
            assert (rid < scan) == rid_wins


class TestEstimateMatchesExecution:
    """Estimated cost with exact cardinalities == simulated time."""

    def test_seq_scan(self, model):
        db = make_two_table_db()
        op = SeqScan("lineitem", col("lineitem.l_quantity") > 25)
        ctx = ExecutionContext(db)
        frame = op.execute(ctx)
        table = db.table("lineitem")
        estimated = model.seq_scan(table.num_rows, table.num_pages, frame.num_rows)
        assert model.time_from_counters(ctx.counters) == pytest.approx(estimated)

    def test_index_intersect(self, model):
        db = make_two_table_db()
        conditions = [
            IndexCondition("l_shipdate", 729100, 729200),
            IndexCondition("l_receiptdate", 729100, 729200),
        ]
        op = IndexIntersect("lineitem", conditions)
        ctx = ExecutionContext(db)
        frame = op.execute(ctx)
        entries = [
            len(db.sorted_index("lineitem", c.column).lookup_range(c.low, c.high))
            for c in conditions
        ]
        estimated = model.index_intersect(
            entries, frame.num_rows, frame.num_rows, False
        )
        assert model.time_from_counters(ctx.counters) == pytest.approx(estimated)
