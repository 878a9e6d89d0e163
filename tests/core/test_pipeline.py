import numpy as np
import pytest

from repro.core import DLInfMA, DLInfMAConfig, LocMatcherConfig
from repro.eval import evaluate

FAST_LM = LocMatcherConfig(max_epochs=30, patience=8, lr_step=10)


class TestBuildArtifacts:
    def test_artifact_contents(self, tiny_workload, tiny_artifacts):
        assert len(tiny_artifacts.pool) > 0
        assert len(tiny_artifacts.examples) > 0
        assert set(tiny_artifacts.context.timings) == {
            "stay_point_extraction_s",
            "pool_construction_s",
            "profile_build_s",
            "feature_extraction_s",
        }
        delivered = {a for t in tiny_workload.trips for a in t.address_ids}
        assert set(tiny_artifacts.examples) <= delivered

    def test_examples_have_features(self, tiny_artifacts):
        for example in tiny_artifacts.examples.values():
            assert example.n_candidates >= 1
            assert example.features.shape[0] == example.n_candidates
            assert np.isfinite(example.features).all()


class TestDLInfMAPipeline:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_workload, tiny_artifacts):
        m = DLInfMA(DLInfMAConfig(locmatcher=FAST_LM))
        m.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            tiny_workload.val_ids,
            projection=tiny_workload.projection,
            artifacts=tiny_artifacts,
        )
        return m

    def test_predictions_cover_test_set(self, fitted, tiny_workload):
        preds = fitted.predict(tiny_workload.test_ids)
        assert set(preds) == set(tiny_workload.test_ids)

    def test_better_than_geocoding(self, fitted, tiny_workload):
        preds = fitted.predict(tiny_workload.test_ids)
        ours = evaluate(preds, tiny_workload.ground_truth)
        geo = evaluate(
            {a: tiny_workload.addresses[a].geocode for a in tiny_workload.test_ids},
            tiny_workload.ground_truth,
        )
        assert ours.mae < geo.mae

    def test_timings_recorded(self, fitted):
        assert set(fitted.timings) == {
            "stay_point_extraction_s",
            "pool_construction_s",
            "profile_build_s",
            "feature_extraction_s",
            "training_s",
        }
        assert all(v >= 0 for v in fitted.timings.values())

    def test_engine_context_attached(self, fitted):
        assert fitted.context is not None
        assert fitted.timings == fitted.context.timings
        assert fitted.counters.get("training.train_examples", 0) > 0

    def test_batched_predict_matches_serial(self, fitted, tiny_workload):
        # LocMatcher has predict_index_batch: the batched branch must agree
        # with address-by-address prediction exactly.
        ids = tiny_workload.test_ids + ["does-not-exist"]
        batched = fitted.predict(ids)
        serial = {a: p for a in ids if (p := fitted.predict_one(a)) is not None}
        assert batched == serial

    def test_unknown_address_returns_none(self, fitted):
        assert fitted.predict_one("does-not-exist") is None

    def test_geocode_fallback_for_candidate_less_address(self, fitted, tiny_workload):
        # An address known to the book but absent from every trip.
        from tests.core.helpers import make_address

        fitted.addresses["ghost"] = make_address("ghost", "bX", (0.0, 0.0))
        point = fitted.predict_one("ghost")
        assert point == fitted.addresses["ghost"].geocode

    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DLInfMA().predict(["a"])

    def test_heuristic_selector_pipeline(self, tiny_workload, tiny_artifacts):
        m = DLInfMA(DLInfMAConfig(selector="mindist"))
        m.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
            artifacts=tiny_artifacts,
        )
        assert len(m.predict(tiny_workload.test_ids)) == len(tiny_workload.test_ids)

    def test_predict_without_batch_selector_matches_serial(
        self, tiny_workload, tiny_artifacts
    ):
        # Heuristic selectors lack predict_index_batch; the regression here
        # is that predict() must still return exactly what per-address
        # prediction does (including the geocode fallback).
        m = DLInfMA(DLInfMAConfig(selector="maxtc"))
        m.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
            artifacts=tiny_artifacts,
        )
        assert not hasattr(m.selector, "predict_index_batch")
        ids = list(tiny_workload.test_ids) + ["does-not-exist"]
        batched = m.predict(ids)
        serial = {a: p for a in ids if (p := m.predict_one(a)) is not None}
        assert batched == serial

    def test_grid_pool_variant_runs(self, tiny_workload):
        m = DLInfMA(DLInfMAConfig(selector="maxtc", pool_method="grid"))
        m.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
        )
        assert len(m.pool) > 0

    def test_artifacts_shared_between_pipelines(self, tiny_workload, tiny_artifacts):
        a = DLInfMA(DLInfMAConfig(selector="mindist"))
        b = DLInfMA(DLInfMAConfig(selector="maxtc"))
        for m in (a, b):
            m.fit(
                tiny_workload.trips,
                tiny_workload.addresses,
                tiny_workload.ground_truth,
                tiny_workload.train_ids,
                projection=tiny_workload.projection,
                artifacts=tiny_artifacts,
            )
        assert a.pool is b.pool
        assert a.extractor is b.extractor
