"""Plan selection policies: threshold, histogram, and penalty-aware.

The paper collapses the selectivity posterior to a single quantile
before planning; this package keeps the distribution on the table.
:class:`SelectionPolicy` is the one value object every entry surface
(session, serving tenants, experiment configs, CLI) accepts, and the
penalty machinery — deterministic posterior sampling plus regret
scoring over threshold-vectorized plan costs — implements the
PARQO-style "minimize expected penalty / CVaR over the posterior"
selection rule as a third mode beside the paper's threshold dial and
the histogram baseline.
"""

from repro.selection.penalty import (
    cvar_tail_count,
    penalty_matrix,
    penalty_summary,
    risk_scores,
    select_index,
)
from repro.selection.policy import (
    ExactPolicy,
    FixedPolicy,
    HistogramPolicy,
    PenaltyPolicy,
    PolicyError,
    SelectionPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from repro.selection.sampler import sample_quantiles

__all__ = [
    "SelectionPolicy",
    "ThresholdPolicy",
    "PenaltyPolicy",
    "HistogramPolicy",
    "ExactPolicy",
    "FixedPolicy",
    "PolicyError",
    "resolve_policy",
    "sample_quantiles",
    "penalty_matrix",
    "risk_scores",
    "cvar_tail_count",
    "select_index",
    "penalty_summary",
]
