"""The metrics registry exports what the reference registry exports.

One script of calls drives ``repro.obs.registry.MetricsRegistry`` and
``tests/reference_registry.py`` side by side; ``to_json()`` and
``to_prometheus()`` must come out the same, byte for byte, except for
the reference's ``nan`` / ``-inf`` spellings in Prometheus text, which
the registry writes as the format's ``NaN`` / ``-Inf``.
"""

import json
import math
import random

import numpy as np
import pytest

from repro.obs import MetricsRegistry

from tests import reference_registry

BOUNDS = (0.1, 1.0, 10.0)

#: Observations on both sides of, exactly on, and beyond every bound.
VALUES = (
    -5.0, -1, 0, 0.05, 0.1, 0.5, 1, 1.0, 2.5, 10.0, 10, 11.0, 1e9,
    math.inf, -math.inf, math.nan, np.float64(0.1), np.float64(0.7),
)

#: Spellings of one label: ``x=1``, ``x=True`` and ``x=1.0`` are equal
#: as keys but are three series; ``x="1"`` is the same series as ``x=1``.
LABEL_VALUES = (1, True, 1.0, "1", "a", 'q"uote\\back\nline', None, 0, False)


def script(registry, rng: random.Random, steps: int) -> None:
    """A seeded mix of every call the registry takes."""
    requests = registry.counter("requests_total", "Requests, by labels.")
    depth = registry.gauge("depth", "A gauge.")
    latency = registry.histogram("latency_seconds", "Custom bounds.",
                                 buckets=BOUNDS)
    simulated = registry.histogram("simulated_seconds")
    registry.counter("never_used_total")
    for _ in range(steps):
        labels = rng.choice([
            {},
            {"tenant": rng.choice("ab")},
            {"tenant": rng.choice("ab"), "cache": rng.choice(["hit", "miss"])},
            {"cache": rng.choice(["hit", "miss"]), "tenant": rng.choice("ab")},
            {"x": rng.choice(LABEL_VALUES)},
            {"x": rng.choice(LABEL_VALUES), "tenant": "a"},
            {"tenant": "a", "x": rng.choice(LABEL_VALUES)},
        ])
        value = rng.choice(VALUES)
        call = rng.randrange(6)
        if call == 0:
            requests.inc(**labels)
        elif call == 1:
            requests.inc(rng.choice([0, 1, 2.5, 3]), **labels)
        elif call == 2:
            depth.set(value, **labels)
        elif call == 3:
            depth.inc(rng.choice([-1.5, 1, 2]), **labels)
        elif call == 4:
            latency.observe(value, **labels)
        else:
            simulated.observe(value, **labels)


def prometheus_spelling(text: str) -> str:
    """The reference's text with NaN and -Inf spelled as the format says."""
    return "\n".join(
        line.replace(" nan", " NaN").replace(" -inf", " -Inf")
        for line in text.split("\n")
    )


@pytest.mark.parametrize("seed", range(6))
def test_exports_match_the_reference(seed):
    registry = MetricsRegistry()
    reference = reference_registry.MetricsRegistry()
    for target in (registry, reference):
        script(target, random.Random(seed), steps=400)
    assert json.dumps(registry.to_json()) == json.dumps(reference.to_json())
    assert registry.to_prometheus() == prometheus_spelling(
        reference.to_prometheus()
    )


def test_equal_label_values_of_different_types_stay_separate_series():
    for target in (MetricsRegistry(), reference_registry.MetricsRegistry()):
        counter = target.counter("c")
        for value in (1, True, 1.0, "1", 1, True, 1.0):
            counter.inc(x=value)
        assert counter.snapshot() == {
            '{x="1"}': 3, '{x="1.0"}': 2, '{x="True"}': 2,
        }


def test_histogram_edges_match_the_reference():
    registry = MetricsRegistry()
    reference = reference_registry.MetricsRegistry()
    for target in (registry, reference):
        histogram = target.histogram("h", buckets=BOUNDS)
        for value in VALUES:
            histogram.observe(value)
    ours = registry.to_json()["h"]["series"][""]
    assert ours["buckets"] == {"0.1": 7, "1": 11, "10": 14}
    assert ours["count"] == len(VALUES)
    assert json.dumps(ours) == json.dumps(
        reference.to_json()["h"]["series"][""]
    )
