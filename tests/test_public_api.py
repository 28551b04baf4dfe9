"""API-surface snapshot: the public contract, pinned.

CI runs this file as its own job. If a change here is intentional,
update the snapshot constants in the same commit — that turns silent
API drift into an explicit, reviewable diff.
"""

import importlib
import inspect

import pytest

import repro


#: The exported surface of ``import repro``. Additions and removals
#: must update this list deliberately.
PUBLIC_API = sorted(
    [
        # facade
        "Session",
        "SessionConfig",
        "PreparedQuery",
        "QueryResult",
        "PlanCache",
        "query_fingerprint",
        # multi-tenant serving
        "AdmissionConfig",
        "QueryServer",
        "ServedQuery",
        "TenantSpec",
        # catalog
        "Column",
        "ColumnType",
        "Database",
        "ForeignKey",
        "Schema",
        "Table",
        "date_ordinal",
        "ordinal_date",
        # estimation
        "CardinalityEstimate",
        "CardinalityEstimator",
        "ExactCardinalityEstimator",
        "HistogramCardinalityEstimator",
        "Prior",
        "RobustCardinalityEstimator",
        "resolve_threshold",
        # plan selection policies
        "SelectionPolicy",
        "ThresholdPolicy",
        "PenaltyPolicy",
        "HistogramPolicy",
        "resolve_policy",
        # optimization & costing
        "CostModel",
        "Optimizer",
        "PlannedQuery",
        "SPJQuery",
        # SQL front-end
        "parse_predicate",
        "parse_query",
        "query_to_sql",
        # statistics lifecycle
        "StatisticsManager",
        "load_statistics",
        "save_statistics",
        # estimation feedback loop
        "FeedbackConfig",
        "FeedbackStore",
        "SessionFeedback",
        # experiments & observability
        "EstimatorConfig",
        "ExperimentRunner",
        "MetricsRegistry",
        "Tracer",
        # expression building
        "col",
        "lit",
        "__version__",
    ]
)

#: Former top-level names: served by a deprecation shim for its release
#: of grace, now importable from ``repro.core`` only.
DEPRECATED = sorted(
    [
        "AGGRESSIVE",
        "CONSERVATIVE",
        "MODERATE",
        "JEFFREYS",
        "UNIFORM",
        "SelectivityPosterior",
    ]
)


def _params(func) -> list:
    """(name, kind, has_default) per parameter, self excluded."""
    return [
        (p.name, p.kind.name, p.default is not inspect.Parameter.empty)
        for p in inspect.signature(func).parameters.values()
        if p.name != "self"
    ]


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_dir_covers_exports_and_deprecated(self):
        listing = dir(repro)
        for name in PUBLIC_API:
            assert name in listing
        for name in DEPRECATED:
            assert name not in listing

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestDeprecatedShims:
    """The shim is retired; the test ids are those of its grace release."""

    @pytest.mark.parametrize("name", DEPRECATED)
    def test_warns_and_resolves(self, name):
        # No warning left to give: the top level no longer has the name,
        # which resolves from its home package alone.
        with pytest.raises(AttributeError, match=name):
            getattr(repro, name)
        core = importlib.import_module("repro.core")
        assert getattr(core, name) is not None

    def test_deprecated_names_stay_out_of_all(self):
        assert not set(DEPRECATED) & set(repro.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestSessionSignatures:
    """The facade's call shapes, pinned parameter by parameter."""

    def test_session_init(self):
        assert _params(repro.Session.__init__) == [
            ("database", "POSITIONAL_OR_KEYWORD", False),
            ("statistics", "KEYWORD_ONLY", True),
            ("config", "KEYWORD_ONLY", True),
            ("cost_model", "KEYWORD_ONLY", True),
            ("metrics", "KEYWORD_ONLY", True),
            ("overrides", "VAR_KEYWORD", False),
        ]

    def test_prepare(self):
        assert _params(repro.Session.prepare) == [
            ("query", "POSITIONAL_OR_KEYWORD", False),
            ("policy", "KEYWORD_ONLY", True),
        ]

    def test_prepare_many(self):
        assert _params(repro.Session.prepare_many) == [
            ("query", "POSITIONAL_OR_KEYWORD", False),
            ("thresholds", "POSITIONAL_OR_KEYWORD", False),
        ]

    def test_execute(self):
        assert _params(repro.Session.execute) == [
            ("query", "POSITIONAL_OR_KEYWORD", False),
            ("policy", "KEYWORD_ONLY", True),
        ]

    def test_explain(self):
        assert _params(repro.Session.explain) == [
            ("query", "POSITIONAL_OR_KEYWORD", False),
            ("analyze", "KEYWORD_ONLY", True),
            ("policy", "KEYWORD_ONLY", True),
        ]

    def test_trace_query(self):
        assert _params(repro.Session.trace_query) == [
            ("query", "POSITIONAL_OR_KEYWORD", False),
            ("execute", "KEYWORD_ONLY", True),
            ("label", "KEYWORD_ONLY", True),
            ("policy", "KEYWORD_ONLY", True),
        ]

    def test_session_config_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.SessionConfig)]
        assert fields == [
            "prior",
            "sample_size",
            "histogram_buckets",
            "statistics_seed",
            "plan_cache_size",
            "cache_stripes",
            "policy",
        ]


class TestExperimentsSurface:
    """``repro.experiments`` names that changed shape, pinned."""

    def test_audit_plan(self):
        from repro.experiments import audit_plan

        assert _params(audit_plan) == [
            ("prepared", "POSITIONAL_OR_KEYWORD", False),
        ]

    def test_no_plan_execution_cache(self):
        import repro.experiments

        assert "PlanExecutionCache" not in repro.experiments.__all__
        assert not hasattr(repro.experiments, "PlanExecutionCache")


class TestServingSignatures:
    """The serving layer's call shapes, pinned like the facade's."""

    def test_query_server_init(self):
        assert _params(repro.QueryServer.__init__) == [
            ("tenants", "POSITIONAL_OR_KEYWORD", False),
            ("worker_threads", "KEYWORD_ONLY", True),
            ("admission", "KEYWORD_ONLY", True),
            ("metrics", "KEYWORD_ONLY", True),
        ]

    def test_serve(self):
        assert _params(repro.QueryServer.serve) == [
            ("tenant", "POSITIONAL_OR_KEYWORD", False),
            ("query", "POSITIONAL_OR_KEYWORD", False),
            ("policy", "KEYWORD_ONLY", True),
            ("execute", "KEYWORD_ONLY", True),
            ("max_retries", "KEYWORD_ONLY", True),
            ("backoff_seconds", "KEYWORD_ONLY", True),
            ("backoff_cap", "KEYWORD_ONLY", True),
        ]

    def test_swap_statistics(self):
        assert _params(repro.QueryServer.swap_statistics) == [
            ("tenant", "POSITIONAL_OR_KEYWORD", False),
            ("source", "POSITIONAL_OR_KEYWORD", False),
        ]

    def test_tenant_spec_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.TenantSpec)]
        assert fields == [
            "name",
            "database",
            "config",
            "statistics",
            "feedback",
        ]

    def test_admission_config_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.AdmissionConfig)]
        assert fields == ["global_limit", "tenant_queue_depth"]

    def test_served_query_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.ServedQuery)]
        assert fields == [
            "tenant",
            "latency_seconds",
            "plan_cached",
            "statistics_version",
            "degraded_reason",
            "rows",
            "simulated_seconds",
            "stale",
        ]


class TestPreparedQuerySurface:
    REQUIRED = {
        "sql",
        "plan",
        "estimated_cost",
        "estimated_rows",
        "threshold",
        "policy",
        "selection",
        "statistics_version",
        "from_cache",
        "fingerprint",
        "is_stale",
        "execute",
        "explain",
    }

    def test_prepared_query_members(self):
        members = set(dir(repro.PreparedQuery))
        missing = self.REQUIRED - members - {
            # instance attributes assigned in __init__
            "threshold",
            "policy",
            "statistics_version",
            "from_cache",
            "fingerprint",
        }
        assert not missing, missing

    def test_query_result_members(self):
        members = set(dir(repro.QueryResult))
        assert {"num_rows", "column", "column_names"} <= members
