"""Machine-speed calibration: why and how timings are normalized.

The sandboxes this benchmark runs in share their cores: the same Python
loop runs 7.5 M to 12.8 M iterations a second within one minute, and a
20-second run of any workload repeats only within 13-28 % (quartile
distance over median, ten runs). A regression bound of 10-25 % means
nothing against that. The machine's speed can be observed, though: a
fixed kernel of pure-Python, small-array and large-array numpy work,
timed while the workload runs, slows down and speeds up with it.

So every run times that kernel in a short burst at each segment
boundary (outside the timed segments), turns each burst into a *machine
factor* (observed kernel seconds over :data:`NOMINAL_SECONDS`; above 1
when the machine is slow), and reports times divided, rates multiplied,
by the factor in force when they were measured. Reported times therefore
read "on a machine that runs the kernel in the nominal time". On this box
that brought the spread of the timed metrics from 13-28 % down to
2-10 %. The kernel never calls the program under test, so a change to
the program cannot move the factor. The median factor of a run is
printed with its results and kept in the history, so raw times can be
recovered. The correction is partial: the workloads slow down about 1.4
times as much (in log terms) as the kernel does, so medians taken an
hour apart still differ by up to 12 %.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel seconds on the reference machine (this repo's 2-core sandbox
#: in its usual state). Only scales reported times; ratios between two
#: commits do not depend on it.
NOMINAL_SECONDS = 0.0050
BURST = 5

_rng = np.random.default_rng(0)
_SMALL = _rng.random(500)
_SORTED = np.sort(_rng.random(500))
_LARGE = _rng.random(200_000)
_GATHER = _rng.integers(0, 200_000, 50_000)


def kernel() -> float:
    """Seconds one pass takes: interpreter-bound, numpy
    call-overhead-bound and memory-bound work (about 1 : 1.5 : 5 by
    time), the three kinds of work a request is made of."""
    started = perf_counter()
    table, total = {}, 0
    for i in range(8000):
        table[i & 255] = total
        total += i * 3 % 7
    for _ in range(150):
        mask = _SMALL > 0.5
        total += int(mask.sum()) + int(np.searchsorted(_SORTED, 0.3))
        total += _SMALL[mask][:10].sum()
    mask = (_LARGE > 0.2) & (_LARGE < 0.7)
    total += _LARGE[_GATHER].sum() + _LARGE[mask].sum()
    np.argsort(_LARGE[:20_000], kind="stable")
    return perf_counter() - started


class Calibrator:
    """Bursts of kernel timings and the factor they imply over time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []

    def burst(self) -> float:
        """Time the kernel :data:`BURST` times; record and return the
        machine factor (median, so one preempted pass does not count)."""
        samples = [kernel() for _ in range(BURST)]
        factor = float(np.median(samples)) / NOMINAL_SECONDS
        self.times.append(perf_counter())
        self.factors.append(factor)
        return factor

    def factor_at(self, times) -> np.ndarray:
        """The factor at each of ``times``, interpolated between bursts."""
        return np.interp(times, self.times, self.factors)

    def median(self) -> float:
        return float(np.median(self.factors))
