"""The unified plan-selection policy surface.

One value object answers "how should the session pick a plan?": the
single ``policy=`` accepted by :class:`~repro.service.Session` /
:class:`~repro.service.SessionConfig`, the experiment arms, and the
CLI:

* :class:`ThresholdPolicy` — the paper's selection rule: collapse the
  selectivity posterior to one quantile ``q`` and plan against that
  number (Sections 3.1/6.2.5; ``q`` is the confidence threshold T).
* :class:`PenaltyPolicy` — the PARQO-style rule: keep the posterior,
  draw ``samples`` deterministic selectivity samples from it, score
  every candidate plan's cost across the sample set, and pick the plan
  minimizing *expected penalty* (regret vs. the per-sample optimum) or
  its CVaR-α tail average.
* :class:`HistogramPolicy` — the AVI baseline: plan from equi-depth
  histogram point estimates (no posterior, no threshold);
  :class:`ExactPolicy` is the ground-truth oracle arm, and
  :class:`FixedPolicy` the estimation-free strawman (one selectivity
  for every predicate).

Policies are frozen, hashable, and round-trip through a compact string
``spec`` (``"threshold:0.80"``, ``"cvar:0.9:32"``, ``"histogram"``)
understood by :func:`resolve_policy` — the one coercion point every
entry surface (kwargs, CLI flags, config fields) funnels through.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.confidence import MODERATE, resolve_threshold
from repro.errors import ReproError
from repro.selection.sampler import sample_quantiles

#: CVaR tail fractions and sample counts outside these bounds are
#: configuration errors, not estimation ones.
_MAX_SAMPLES = 4096


class PolicyError(ReproError):
    """A selection policy was specified inconsistently."""


@dataclass(frozen=True)
class SelectionPolicy:
    """Base class: one complete answer to "which plan do we pick?".

    Subclasses carry the selection mode in ``kind`` and the estimator
    family they require in ``estimator_kind``; ``cache_key()`` is the
    policy component of every plan-cache key, and ``spec()`` is the
    round-trippable string form (``resolve_policy(p.spec()) == p``).
    ``plan()`` is the one place a policy turns into an optimizer call.
    """

    @property
    def kind(self) -> str:
        raise NotImplementedError

    @property
    def estimator_kind(self) -> str:
        """The session estimator family this policy plans through."""
        raise NotImplementedError

    def cache_key(self) -> tuple:
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        return self.spec()

    def hinted(self, query):
        """``query`` carrying the confidence hint this policy plans a
        scalar ``optimize`` pass at (unchanged for point estimators)."""
        return query

    def plan(self, optimizer, query, *, query_key: str, statistics_token: int):
        """Plan ``query`` on ``optimizer`` the way this policy selects.

        ``query_key`` (the query fingerprint) and ``statistics_token``
        (:meth:`~repro.stats.StatisticsManager.sampling_token`) seed
        policies that sample; the others ignore them.
        """
        return optimizer.optimize(self.hinted(query))


@dataclass(frozen=True)
class ThresholdPolicy(SelectionPolicy):
    """Collapse the posterior to quantile ``q`` and plan against it.

    ``q`` accepts everything :func:`~repro.core.resolve_threshold`
    does — a fraction, a percentage, or a named level — and is
    normalized to a float at construction, so two policies built from
    ``"80"`` and ``0.8`` compare (and cache) as equal.
    """

    q: float | str = MODERATE

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", resolve_threshold(self.q))

    @property
    def kind(self) -> str:
        return "threshold"

    @property
    def estimator_kind(self) -> str:
        return "robust"

    def cache_key(self) -> tuple:
        return ("threshold", self.q)

    def hinted(self, query):
        return replace(query, hint=self.q)

    def spec(self) -> str:
        return f"threshold:{self.q:g}"

    def describe(self) -> str:
        return f"T={self.q:.0%}"


@dataclass(frozen=True)
class PenaltyPolicy(SelectionPolicy):
    """Keep the posterior; select by expected penalty or CVaR-α.

    ``samples`` deterministic selectivity samples are drawn from the
    Beta posterior (comonotone across predicates — one uniform per
    sample, inverted through every posterior), each candidate plan is
    costed at every sample in one vectorized DP pass, and the penalty
    of a plan at a sample is its cost minus the cheapest plan's cost
    at that sample (regret vs. the per-sample optimum).

    ``risk="expected"`` minimizes the mean penalty across samples.
    ``risk="cvar"`` minimizes the mean of the worst ``ceil(alpha *
    samples)`` penalties — the α-tail average, so ``alpha=1.0`` is
    exactly the expected penalty and smaller α focuses on the tail.
    """

    samples: int = 24
    risk: str = "expected"
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.risk not in ("expected", "cvar"):
            raise PolicyError(
                f"unknown penalty risk {self.risk!r}; "
                "choose 'expected' or 'cvar'"
            )
        if not 1 <= self.samples <= _MAX_SAMPLES:
            raise PolicyError(
                f"penalty samples must lie in [1, {_MAX_SAMPLES}], "
                f"got {self.samples}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha <= 1.0:
            raise PolicyError(
                f"cvar alpha must lie in (0, 1], got {self.alpha}"
            )

    @property
    def kind(self) -> str:
        return "penalty"

    @property
    def estimator_kind(self) -> str:
        return "robust"

    def cache_key(self) -> tuple:
        return ("penalty", self.samples, self.risk, self.alpha)

    def hinted(self, query):
        return replace(query, hint=None)

    def plan(self, optimizer, query, *, query_key: str, statistics_token: int):
        quantiles = sample_quantiles(
            self, query_key=query_key, statistics_token=statistics_token
        )
        return optimizer.optimize_penalty(
            self.hinted(query), quantiles, risk=self.risk, alpha=self.alpha
        )

    def spec(self) -> str:
        if self.risk == "cvar":
            return f"cvar:{self.alpha:g}:{self.samples}"
        return f"expected:{self.samples}"

    def describe(self) -> str:
        if self.risk == "cvar":
            return f"CVaR(α={self.alpha:g}, m={self.samples})"
        return f"E[penalty](m={self.samples})"


@dataclass(frozen=True)
class _PointPolicy(SelectionPolicy):
    """An arm without a posterior: one word (``NAME``) is its kind, its
    estimator family, its cache key and its spec."""

    NAME = ""

    @property
    def kind(self) -> str:
        return self.NAME

    @property
    def estimator_kind(self) -> str:
        return self.NAME

    def cache_key(self) -> tuple:
        return (self.NAME,)

    def spec(self) -> str:
        return self.NAME


@dataclass(frozen=True)
class HistogramPolicy(_PointPolicy):
    """Plan from equi-depth histogram point estimates (AVI baseline)."""

    NAME = "histogram"


@dataclass(frozen=True)
class ExactPolicy(_PointPolicy):
    """Plan from ground-truth cardinalities — the oracle arm; there is
    nothing to select *by* when estimates are exact."""

    NAME = "exact"


@dataclass(frozen=True)
class FixedPolicy(_PointPolicy):
    """Plan as if every predicate kept one fixed fraction of its rows —
    the estimation-free strawman arm (no statistics read)."""

    NAME = "fixed"


def resolve_policy(
    value: SelectionPolicy | float | str,
) -> SelectionPolicy:
    """Coerce any accepted policy spelling to a :class:`SelectionPolicy`.

    Accepted forms:

    * a :class:`SelectionPolicy` (returned unchanged);
    * a number or numeric/named threshold string (``0.8``, ``"80"``,
      ``"moderate"``) → :class:`ThresholdPolicy`;
    * ``"threshold[:Q]"`` → :class:`ThresholdPolicy`;
    * ``"histogram"`` → :class:`HistogramPolicy`;
    * ``"exact"`` → :class:`ExactPolicy`;
    * ``"fixed"`` → :class:`FixedPolicy`;
    * ``"penalty"`` / ``"expected[:SAMPLES]"`` →
      :class:`PenaltyPolicy` with ``risk="expected"``;
    * ``"cvar:ALPHA[:SAMPLES]"`` → :class:`PenaltyPolicy` with
      ``risk="cvar"``.
    """
    if isinstance(value, SelectionPolicy):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ThresholdPolicy(value)
    if not isinstance(value, str):
        raise PolicyError(
            "expected a SelectionPolicy, threshold number, or policy "
            f"spec string, got {type(value).__name__}"
        )
    text = value.strip()
    head, _, tail = text.partition(":")
    head = head.lower()
    try:
        point = {
            "histogram": HistogramPolicy,
            "exact": ExactPolicy,
            "fixed": FixedPolicy,
        }.get(head)
        if point is not None:
            if tail:
                raise PolicyError(f"{head} takes no arguments: {text!r}")
            return point()
        if head == "threshold":
            return ThresholdPolicy(tail) if tail else ThresholdPolicy()
        if head in ("penalty", "expected"):
            if not tail:
                return PenaltyPolicy()
            return PenaltyPolicy(samples=_parse_int(text, tail, "samples"))
        if head == "cvar":
            if not tail:
                raise PolicyError(
                    f"cvar needs an alpha, e.g. 'cvar:0.9': {text!r}"
                )
            alpha_text, _, samples_text = tail.partition(":")
            alpha = _parse_float(text, alpha_text, "alpha")
            if samples_text:
                return PenaltyPolicy(
                    samples=_parse_int(text, samples_text, "samples"),
                    risk="cvar",
                    alpha=alpha,
                )
            return PenaltyPolicy(risk="cvar", alpha=alpha)
    except PolicyError:
        raise
    # Anything else: a bare threshold spelling (named level, "80", "0.8").
    try:
        return ThresholdPolicy(text)
    except ReproError:
        raise PolicyError(
            f"cannot parse selection policy {value!r}; expected a "
            "threshold, 'histogram', 'exact', 'fixed', "
            "'expected[:SAMPLES]', 'cvar:ALPHA[:SAMPLES]', or 'threshold:Q'"
        ) from None


def _parse_int(spec: str, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PolicyError(f"bad {what} in policy spec {spec!r}") from None


def _parse_float(spec: str, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise PolicyError(f"bad {what} in policy spec {spec!r}") from None
