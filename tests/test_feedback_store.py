"""Feedback store: aggregation, persistence, the namespace fence.

The store's two contracts under test here:

* **Determinism** — aggregation is commutative and serialization is
  canonical, so recording the same observations in any order (from
  any worker count) produces byte-identical store contents;
* **The fence** — a provider bound to one namespace never serves
  observations from another, and there is no way around it.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core import JEFFREYS
from repro.feedback import (
    FEEDBACK_FORMAT_VERSION,
    FeedbackError,
    FeedbackProvider,
    FeedbackStore,
    feedback_key,
)
from repro.feedback.store import MAX_OBSERVATIONS

OBSERVATIONS = [
    ("epoch=1", ("lineitem",), "k1", 100.0, 80.0),
    ("epoch=1", ("lineitem",), "k1", 120.0, 90.0),
    ("epoch=1", ("lineitem", "part"), "k2", 5.0, 50.0),
    ("epoch=2", ("lineitem",), "k1", 200.0, 150.0),
    ("epoch=1", ("part",), "k3", 7.0, None),
]


def fill(store: FeedbackStore, observations=OBSERVATIONS) -> FeedbackStore:
    for namespace, tables, key, observed, estimated in observations:
        store.record(
            namespace,
            tables=tables,
            predicate_key=key,
            observed_rows=observed,
            estimated_rows=estimated,
        )
    return store


class TestRecordAndAggregate:
    def test_key_is_sorted_tables_plus_predicate(self):
        assert feedback_key(("b", "a"), "pred") == "a+b|pred"

    def test_observation_aggregates(self):
        store = fill(FeedbackStore())
        obs = store.observation("epoch=1", ("lineitem",), "k1")
        assert obs.observations == 2
        assert obs.mean_rows == pytest.approx(110.0)
        assert obs.rows_min == 100.0
        assert obs.rows_max == 120.0
        # q-errors: 100/80 = 1.25 and 120/90 = 1.333...
        assert obs.geomean_q_error == pytest.approx(
            (1.25 * (120 / 90)) ** 0.5
        )

    def test_missing_key_and_namespace_are_none(self):
        store = fill(FeedbackStore())
        assert store.observation("epoch=1", ("orders",), "k9") is None
        assert store.observation("epoch=9", ("lineitem",), "k1") is None

    def test_estimate_free_record_has_unit_qerror(self):
        store = fill(FeedbackStore())
        obs = store.observation("epoch=1", ("part",), "k3")
        assert obs.geomean_q_error == pytest.approx(1.0)
        assert obs.qerr_max == 1.0

    def test_generation_counts_every_mutation(self):
        store = FeedbackStore()
        assert store.generation == 0
        fill(store)
        assert store.generation == len(OBSERVATIONS)
        store.reset("epoch=2")
        assert store.generation == len(OBSERVATIONS) + 1
        # Resetting a namespace that is already gone is not a mutation.
        store.reset("epoch=2")
        assert store.generation == len(OBSERVATIONS) + 1

    def test_empty_namespace_or_tables_rejected(self):
        store = FeedbackStore()
        with pytest.raises(FeedbackError, match="namespace"):
            store.record(
                "", tables=("t",), predicate_key="k", observed_rows=1.0
            )
        with pytest.raises(FeedbackError, match="table"):
            store.record(
                "ns", tables=(), predicate_key="k", observed_rows=1.0
            )


class TestDeterminism:
    def test_bytes_identical_for_any_record_order(self):
        baseline = fill(FeedbackStore()).to_bytes()
        rng = random.Random(13)
        for _ in range(5):
            shuffled = list(OBSERVATIONS)
            rng.shuffle(shuffled)
            assert fill(FeedbackStore(), shuffled).to_bytes() == baseline

    def test_bytes_identical_across_worker_partitions(self):
        # Two workers harvesting disjoint partitions into one store
        # (in either interleaving) match the single-worker bytes.
        single = fill(FeedbackStore()).to_bytes()
        a, b = OBSERVATIONS[::2], OBSERVATIONS[1::2]
        assert fill(fill(FeedbackStore(), a), b).to_bytes() == single
        assert fill(fill(FeedbackStore(), b), a).to_bytes() == single

    def test_save_load_roundtrip_is_byte_identical(self, tmp_path):
        store = fill(FeedbackStore())
        path = store.save(tmp_path / "fb.json")
        assert FeedbackStore.load(path).to_bytes() == store.to_bytes()


class TestPersistenceValidation:
    def test_save_is_atomic_no_staging_left(self, tmp_path):
        store = fill(FeedbackStore())
        path = store.save(tmp_path / "fb.json")
        assert path.exists()
        assert not list(tmp_path.glob(".fb.json.staging-*"))

    def test_unreadable_file_raises(self, tmp_path):
        path = tmp_path / "fb.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(FeedbackError, match="unreadable"):
            FeedbackStore.load(path)

    def test_non_object_raises(self, tmp_path):
        path = tmp_path / "fb.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FeedbackError, match="not an object"):
            FeedbackStore.load(path)

    def test_wrong_format_version_raises(self, tmp_path):
        path = tmp_path / "fb.json"
        path.write_text(
            json.dumps(
                {"format_version": FEEDBACK_FORMAT_VERSION + 1,
                 "namespaces": {}}
            ),
            encoding="utf-8",
        )
        with pytest.raises(FeedbackError, match="format version"):
            FeedbackStore.load(path)

    def test_missing_record_fields_raise(self, tmp_path):
        path = tmp_path / "fb.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": FEEDBACK_FORMAT_VERSION,
                    "namespaces": {"epoch=1": {"k": {"tables": ["t"]}}},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(FeedbackError, match="missing fields"):
            FeedbackStore.load(path)

    def test_invalid_values_raise(self, tmp_path):
        store = fill(FeedbackStore())
        raw = json.loads(store.to_bytes())
        slot = raw["namespaces"]["epoch=1"]
        slot[next(iter(slot))]["rows_sum"] = "not-a-number"
        path = tmp_path / "fb.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(FeedbackError, match="invalid values"):
            FeedbackStore.load(path)

    def test_zero_observations_raise(self, tmp_path):
        store = fill(FeedbackStore())
        raw = json.loads(store.to_bytes())
        slot = raw["namespaces"]["epoch=1"]
        slot[next(iter(slot))]["observations"] = 0
        path = tmp_path / "fb.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(FeedbackError, match="no observations"):
            FeedbackStore.load(path)


class TestProviderFence:
    def test_bound_namespace_folds(self):
        store = fill(FeedbackStore())
        provider = FeedbackProvider(store, "epoch=1", weight=10.0)
        result = provider.pseudo_counts(("lineitem",), "k1", 1000.0)
        assert result is not None
        alpha, beta, attribution = result
        # mean_rows=110 over total=1000 -> s=0.11; 2 observations at
        # weight 10 -> mass 20.
        assert alpha == pytest.approx(20 * 0.11)
        assert beta == pytest.approx(20 * 0.89)
        assert attribution["namespace"] == "epoch=1"
        assert attribution["observations"] == 2
        assert provider.counters()["folds"] == 1

    def test_foreign_namespace_refused_and_counted(self):
        store = fill(FeedbackStore())
        provider = FeedbackProvider(store, "epoch=3")
        assert provider.pseudo_counts(("lineitem",), "k1", 1000.0) is None
        assert provider.counters() == {
            "folds": 0, "misses": 0, "stale_refused": 1, "stale_hits": 0,
        }

    def test_unknown_key_is_a_miss_not_a_refusal(self):
        store = fill(FeedbackStore())
        provider = FeedbackProvider(store, "epoch=1")
        assert provider.pseudo_counts(("orders",), "k9", 1000.0) is None
        assert provider.counters()["misses"] == 1
        assert provider.counters()["stale_refused"] == 0

    def test_has_key_tracks_record_reset_and_load(self, tmp_path):
        """The one-probe miss classifier agrees with the scan of every
        namespace after each kind of mutation."""
        probes = [
            (("lineitem",), "k1"), (("lineitem", "part"), "k2"),
            (("part",), "k3"), (("orders",), "k9"),
        ]

        def agrees(store):
            for tables, key in probes:
                scanned = any(
                    store.observation(namespace, tables, key) is not None
                    for namespace in store.namespaces()
                )
                assert store.has_key(tables, key) == scanned, (tables, key)

        store = FeedbackStore()
        agrees(store)
        fill(store)
        agrees(store)
        assert store.has_key(("lineitem",), "k1")
        store.reset("epoch=1")  # k1 survives in epoch=2; k2, k3 do not
        agrees(store)
        assert store.has_key(("lineitem",), "k1")
        assert not store.has_key(("part",), "k3")
        store.reset("epoch=2")
        agrees(store)
        assert not store.has_key(("lineitem",), "k1")
        reloaded = FeedbackStore.load(fill(store).save(tmp_path / "fb.json"))
        agrees(reloaded)
        reloaded.reset()
        agrees(reloaded)
        assert not reloaded.has_key(("lineitem",), "k1")

    def test_refusal_ends_when_the_foreign_namespace_is_dropped(self):
        store = fill(FeedbackStore())
        provider = FeedbackProvider(store, "epoch=3")
        provider.pseudo_counts(("part",), "k3", 1000.0)
        store.reset("epoch=1")
        provider.pseudo_counts(("part",), "k3", 1000.0)
        assert provider.counters() == {
            "folds": 0, "misses": 1, "stale_refused": 1, "stale_hits": 0,
        }

    def test_selectivity_clamped_to_unit_interval(self):
        store = FeedbackStore()
        store.record(
            "ns", tables=("t",), predicate_key="k", observed_rows=500.0
        )
        provider = FeedbackProvider(store, "ns", weight=8.0)
        alpha, beta, attribution = provider.pseudo_counts(("t",), "k", 100.0)
        assert attribution["observed_selectivity"] == 1.0
        assert beta == 0.0

    def test_mass_caps_at_max_observations(self):
        store = FeedbackStore()
        for _ in range(20):
            store.record(
                "ns", tables=("t",), predicate_key="k", observed_rows=10.0
            )
        provider = FeedbackProvider(store, "ns", weight=4.0)
        _, _, attribution = provider.pseudo_counts(("t",), "k", 100.0)
        assert attribution["observations"] == 20
        assert attribution["pseudo_mass"] == 4.0 * MAX_OBSERVATIONS == 32.0

    def test_adjusted_prior_folds_counts_and_renames(self):
        provider = FeedbackProvider(FeedbackStore(), "ns")
        prior = provider.adjusted_prior(JEFFREYS, (3.0, 5.0))
        assert prior.alpha == pytest.approx(JEFFREYS.alpha + 3.0)
        assert prior.beta == pytest.approx(JEFFREYS.beta + 5.0)
        assert prior.name.endswith("+feedback")

    def test_nonpositive_total_or_weight_rejected(self):
        store = fill(FeedbackStore())
        provider = FeedbackProvider(store, "epoch=1")
        assert provider.pseudo_counts(("lineitem",), "k1", 0.0) is None
        with pytest.raises(FeedbackError, match="weight"):
            FeedbackProvider(store, "epoch=1", weight=0.0)


class TestFeedbackCli:
    def test_report_prints_namespaces(self, tmp_path, capsys):
        path = fill(FeedbackStore()).save(tmp_path / "fb.json")
        assert main(["feedback", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epoch=1: 3 keys, 4 observations" in out
        assert "lineitem|k1" in out

    def test_report_json_is_parseable(self, tmp_path, capsys):
        path = fill(FeedbackStore()).save(tmp_path / "fb.json")
        assert main(["feedback", "report", "--json", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epoch=1"]["keys"] == 3

    def test_report_unknown_namespace_fails(self, tmp_path, capsys):
        path = fill(FeedbackStore()).save(tmp_path / "fb.json")
        code = main(
            ["feedback", "report", "--namespace", "epoch=9", str(path)]
        )
        assert code == 1
        assert "epoch=9" in capsys.readouterr().err

    def test_reset_namespace_saves_back(self, tmp_path, capsys):
        path = fill(FeedbackStore()).save(tmp_path / "fb.json")
        code = main(
            ["feedback", "reset", "--namespace", "epoch=1", str(path)]
        )
        assert code == 0
        assert "dropped 3 keys" in capsys.readouterr().out
        assert FeedbackStore.load(path).namespaces() == ["epoch=2"]

    def test_reset_everything(self, tmp_path, capsys):
        path = fill(FeedbackStore()).save(tmp_path / "fb.json")
        assert main(["feedback", "reset", str(path)]) == 0
        assert FeedbackStore.load(path).namespaces() == []

    def test_corrupt_store_reports_error(self, tmp_path, capsys):
        path = tmp_path / "fb.json"
        path.write_text("nope", encoding="utf-8")
        assert main(["feedback", "report", str(path)]) == 1
        assert "error" in capsys.readouterr().err
