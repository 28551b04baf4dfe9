"""Penalty math: plan costs over posterior samples → one winner.

Pure ``numpy`` over a ``(plans, samples)`` cost matrix; no optimizer
or estimator imports, so the optimizer can call down into this module
without a cycle.

The *penalty* of plan ``p`` at sample ``s`` is
``cost[p, s] - min_q cost[q, s]`` — the regret against the plan an
oracle would have picked had sample ``s`` been the truth. Risk
functionals reduce each plan's penalty vector to one score:

* ``expected`` — the mean penalty across samples;
* ``cvar`` — the mean of the worst ``ceil(alpha * m)`` penalties
  (the α-tail average). ``alpha=1.0`` averages all samples, i.e.
  degenerates to ``expected``; with one sample both degenerate to
  plain cost minimization (the paper's threshold rule at that
  quantile).

Ties are broken deterministically: among score-tied plans the one
with the lexicographically smallest plan signature wins, so penalty
selection is reproducible across processes and worker counts even
when the cost model cannot separate two plans.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def penalty_matrix(costs: np.ndarray) -> np.ndarray:
    """Per-sample regret of every plan: ``costs - costs.min(axis=0)``.

    ``costs`` is ``(plans, samples)``; the result has the same shape,
    is everywhere non-negative, and has at least one zero per column
    (the per-sample optimum pays no penalty).
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[0] == 0 or costs.shape[1] == 0:
        raise ValueError(
            f"penalty_matrix needs a (plans, samples) matrix, "
            f"got shape {costs.shape}"
        )
    return costs - costs.min(axis=0, keepdims=True)


def cvar_tail_count(samples: int, alpha: float) -> int:
    """How many worst-case samples CVaR-α averages: ``ceil(α·m)``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"cvar alpha must lie in (0, 1], got {alpha}")
    return max(1, min(samples, math.ceil(alpha * samples)))


def risk_scores(
    penalties: np.ndarray, risk: str = "expected", alpha: float = 1.0
) -> np.ndarray:
    """Reduce ``(plans, samples)`` penalties to one score per plan."""
    penalties = np.asarray(penalties, dtype=float)
    if risk == "expected":
        return penalties.mean(axis=1)
    if risk == "cvar":
        tail = cvar_tail_count(penalties.shape[1], alpha)
        worst = np.sort(penalties, axis=1)[:, -tail:]
        return worst.mean(axis=1)
    raise ValueError(f"unknown risk {risk!r}; choose 'expected' or 'cvar'")


def select_index(
    scores: np.ndarray, signatures: Sequence[str] | Callable[[int], str]
) -> int:
    """The winning plan index: lowest score, ties to smallest signature.

    ``signatures`` maps a plan index to its deterministic
    :meth:`~repro.engine.PhysicalOperator.signature`; it may be a
    sequence or a callable (so callers only render signatures for the
    tied set, not every finalist).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("select_index needs at least one plan score")
    best = scores.min()
    tied = np.flatnonzero(scores == best)
    if tied.size == 1:
        return int(tied[0])
    lookup = signatures if callable(signatures) else signatures.__getitem__
    return int(min(tied.tolist(), key=lambda i: (lookup(i), i)))


def penalty_summary(penalties: np.ndarray) -> list[dict]:
    """JSON-ready per-plan penalty distributions for trace spans."""
    penalties = np.asarray(penalties, dtype=float)
    # Interpolating between two infinite penalties is ``inf - inf``. A
    # row that has any takes the sample above the percentile instead:
    # no arithmetic, and what interpolating towards ``inf`` gives.
    finite = np.isfinite(penalties).all(axis=1)
    p50, p90 = np.empty((2, len(penalties)))
    for rows, method in ((finite, "linear"), (~finite, "higher")):
        if rows.any():
            p50[rows], p90[rows] = np.percentile(
                penalties[rows], [50, 90], axis=1, method=method
            )
    return [
        {"mean": float(mean), "p50": float(q50), "p90": float(q90),
         "max": float(worst)}
        for mean, q50, q90, worst in zip(
            penalties.mean(axis=1), p50, p90, penalties.max(axis=1)
        )
    ]
