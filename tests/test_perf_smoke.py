"""Fast tier-1 smoke of the perf benchmark harness.

Runs :func:`benchmarks.test_perf_runner.run_perf_comparison` at toy
scale so the tier-1 flow exercises the same arm comparison (and the
``BENCH_runner.json`` schema) that the full ``perf``-marked benchmark
records at benchmark scale.
"""

import json

import pytest

from benchmarks.test_perf_runner import run_perf_comparison
from repro.workloads import ShippingDatesTemplate

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def payload(tpch_db):
    """The comparison payload, round-tripped through JSON."""
    template = ShippingDatesTemplate()
    params = template.params_for_targets(tpch_db, [0.0, 0.003, 0.006], step=4)
    return json.loads(
        json.dumps(
            run_perf_comparison(
                tpch_db, template, params, seeds=(0, 1), sample_size=300, rounds=1
            )
        )
    )


def test_perf_comparison_smoke(payload, tmp_path):
    # The payload carries the schema later PRs diff against.
    assert payload["identical_records"] is True
    assert len(payload["grid"]["configs"]) == 6
    assert payload["grid"]["records"] == 6 * payload["grid"]["params"] * 2
    timers = {
        "stats_build_seconds",
        "optimize_seconds",
        "execute_seconds",
        "wall_seconds",
        "best_wall_seconds",
        "best_optimize_seconds",
    }
    # The reference keeps no caches: it reports its timers and nothing
    # it did not measure.
    assert set(payload["reference"]) == timers
    for arm in ("serial", "parallel"):
        assert set(payload[arm]) >= timers | {
            "workers",
            "exec_cache_hits",
            "exec_cache_misses",
            "exec_cache_hit_rate",
            "estimate_cache_hits",
            "estimate_cache_misses",
        }
    assert payload["serial"]["exec_cache_hit_rate"] > 0.0
    assert payload["wall_speedup"] > 0.0
    (tmp_path / "BENCH_runner.json").write_text(json.dumps(payload))


def test_vectorization_comparison_smoke(payload):
    # The reference plans every arm as a scalar; the runner plans the
    # five threshold arms in one pass per (seed, param).
    assert payload["serial"]["vector_passes"] == payload["grid"]["params"] * 2
    assert payload["serial"]["lut_hits"] > 0
    assert payload["planning_speedup"] > 0.0
