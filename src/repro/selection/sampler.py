"""Deterministic posterior sampling for penalty-aware selection.

The trick that makes penalty selection ride the existing machinery:
instead of sampling each predicate's Beta posterior directly, we draw
``m`` uniforms ``u_1..u_m`` in (0, 1) and hand them to the optimizer
as a *quantile grid*. Planning at confidence threshold ``u`` prices
every predicate at its posterior's ``u``-quantile — which is exactly
inverse-transform sampling (``posterior.ppf(U)`` with ``U ~ U(0,1)``
*is* a posterior draw). One threshold-vectorized
:meth:`~repro.optimizer.Optimizer.optimize_many`-style DP pass over
the grid therefore scores every candidate plan at ``m`` joint
posterior samples, reusing the Beta quantile LUT cache untouched.

The draws are *comonotone* across predicates: sample ``i`` uses the
same uniform for every predicate in the query, so "the world where
everything came out at its 90th percentile" is one sample. That is the
conservative coupling — it preserves the monotone cost structure the
threshold dial exploits and needs no joint posterior model.

Determinism contract (the worker-count fix): the uniforms are seeded
from ``(query_key, statistics_token, policy)`` through
:func:`repro.random_state.derive_rng`. Every component is content
derived — the query fingerprint, the statistics manager's
content-deterministic :meth:`~repro.stats.StatisticsManager.sampling_token`,
and the policy's ``cache_key`` — so one worker or eight, the same
query plans against byte-identical samples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.random_state import derive_rng

if TYPE_CHECKING:  # policy.py imports this module for PenaltyPolicy.plan
    from repro.selection.policy import PenaltyPolicy

#: Quantiles are clipped into the open unit interval;
#: ``SelectivityPosterior.ppf`` rejects 0 and 1 (infinite tails).
_EPS = 1e-9


def sample_quantiles(
    policy: "PenaltyPolicy",
    *,
    query_key: str,
    statistics_token: int,
) -> tuple[float, ...]:
    """The policy's deterministic quantile draws for one query.

    Returns ``policy.samples`` uniforms in the open interval (0, 1),
    sorted ascending. Sorting costs nothing (penalty scores are
    permutation-invariant) and makes the per-plan cost vectors read as
    monotone sweeps in traces.
    """
    rng = derive_rng(
        "penalty-selection",
        str(query_key),
        int(statistics_token),
        policy.cache_key(),
    )
    draws = rng.random(policy.samples)
    draws = np.clip(draws, _EPS, 1.0 - _EPS)
    draws.sort()
    return tuple(float(u) for u in draws)
