"""Smoke tests: every shipped example runs to completion."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))

EXPECTED_MARKERS = {
    "quickstart.py": "selectivity is a distribution",
    "tpch_correlated_dates.py": "histogram estimate never moves",
    "star_join_robustness.py": "SemiJoin",
    "threshold_tuning.py": "recommend",
    "plan_sensitivity.py": "Sensitivity sweep",
    "session_service.py": "plan cache",
    "sql_tour.py": "simulated",
    "multi_tenant_serving.py": "stale_served 0\nisolated True",
}


def test_all_examples_covered():
    """Every example file has an expectation registered here."""
    assert set(EXAMPLES) == set(EXPECTED_MARKERS)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert EXPECTED_MARKERS[name] in completed.stdout
