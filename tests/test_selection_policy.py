"""SelectionPolicy value objects and the resolve_policy coercion point."""

from __future__ import annotations

import pytest

from repro.core import AGGRESSIVE, MODERATE
from repro.selection import (
    BayesNetPolicy,
    ExactPolicy,
    HistogramPolicy,
    PenaltyPolicy,
    PolicyError,
    SelectionPolicy,
    ThresholdPolicy,
    resolve_policy,
)


class TestThresholdPolicy:
    def test_default_is_moderate(self):
        assert ThresholdPolicy().q == MODERATE

    def test_spellings_normalize_to_equal_policies(self):
        # "80", 80, and 0.8 are the same confidence level.
        assert ThresholdPolicy("80") == ThresholdPolicy(0.8)
        assert ThresholdPolicy("aggressive") == ThresholdPolicy(AGGRESSIVE)
        assert hash(ThresholdPolicy("80")) == hash(ThresholdPolicy(0.8))

    def test_kind_and_estimator(self):
        policy = ThresholdPolicy(0.8)
        assert policy.kind == "threshold"
        assert policy.estimator_kind == "robust"

    def test_cache_key_and_describe(self):
        policy = ThresholdPolicy(0.8)
        assert policy.cache_key() == ("threshold", 0.8)
        assert policy.describe() == "T=80%"

    def test_spec_roundtrip(self):
        policy = ThresholdPolicy(0.05)
        assert resolve_policy(policy.spec()) == policy


class TestPenaltyPolicy:
    def test_defaults(self):
        policy = PenaltyPolicy()
        assert policy.samples == 24
        assert policy.risk == "expected"
        assert policy.alpha == 1.0
        assert policy.kind == "penalty"
        assert policy.estimator_kind == "robust"

    def test_cache_keys_distinguish_risk_modes(self):
        expected = PenaltyPolicy(samples=16)
        cvar = PenaltyPolicy(samples=16, risk="cvar", alpha=0.9)
        assert expected.cache_key() != cvar.cache_key()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"risk": "variance"},
            {"samples": 0},
            {"samples": 5000},
            {"alpha": 0.0},
            {"alpha": 1.5},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            PenaltyPolicy(**kwargs)

    def test_spec_roundtrip(self):
        for policy in (
            PenaltyPolicy(samples=8),
            PenaltyPolicy(samples=32, risk="cvar", alpha=0.95),
        ):
            assert resolve_policy(policy.spec()) == policy

    def test_describe_names_the_risk(self):
        assert "CVaR" in PenaltyPolicy(risk="cvar", alpha=0.9).describe()
        assert "E[penalty]" in PenaltyPolicy().describe()


class TestHistogramPolicy:
    def test_surface(self):
        policy = HistogramPolicy()
        assert policy.kind == "histogram"
        assert policy.estimator_kind == "histogram"
        assert policy.cache_key() == ("histogram",)
        assert resolve_policy(policy.spec()) == policy

    @pytest.mark.parametrize("policy", [BayesNetPolicy(), ExactPolicy()])
    def test_other_point_estimate_arms(self, policy):
        """The other arms without a posterior name their estimator the
        same way: one word for kind, estimator family, key and spec."""
        name = policy.spec()
        assert policy.kind == policy.estimator_kind == name
        assert policy.cache_key() == (name,)


class TestResolvePolicy:
    def test_policy_passthrough(self):
        policy = PenaltyPolicy(samples=8)
        assert resolve_policy(policy) is policy

    def test_numbers_become_threshold_policies(self):
        assert resolve_policy(0.8) == ThresholdPolicy(0.8)

    @pytest.mark.parametrize(
        "spec, policy",
        [
            ("histogram", HistogramPolicy()),
            ("threshold", ThresholdPolicy()),
            ("threshold:0.2", ThresholdPolicy(0.2)),
            ("penalty", PenaltyPolicy()),
            ("expected", PenaltyPolicy()),
            ("expected:8", PenaltyPolicy(samples=8)),
            ("cvar:0.9", PenaltyPolicy(risk="cvar", alpha=0.9)),
            ("cvar:0.9:16", PenaltyPolicy(samples=16, risk="cvar", alpha=0.9)),
            ("80", ThresholdPolicy(0.8)),
            ("moderate", ThresholdPolicy(MODERATE)),
            ("bayes", BayesNetPolicy()),
            ("exact", ExactPolicy()),
        ],
    )
    def test_spec_strings(self, spec, policy):
        assert resolve_policy(spec) == policy
        assert resolve_policy(resolve_policy(spec).spec()) == policy

    @pytest.mark.parametrize(
        "spec",
        [
            "histogram:5",
            "exact:1",
            "cvar",
            "cvar:abc",
            "expected:many",
            "bogus:zzz",
            "",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(PolicyError):
            resolve_policy(spec)

    def test_non_string_non_number_rejected(self):
        with pytest.raises(PolicyError):
            resolve_policy(["cvar"])
        with pytest.raises(PolicyError):
            resolve_policy(True)

    def test_base_class_is_abstract_ish(self):
        base = SelectionPolicy()
        with pytest.raises(NotImplementedError):
            base.kind
