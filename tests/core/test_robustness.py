"""Failure injection and invariance properties for the DLInfMA pipeline."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    DLInfMA,
    DLInfMAConfig,
    build_candidate_pool,
    extract_trip_stay_points,
)
from repro.core.features import FeatureExtractor
from repro.core.locmatcher import LocMatcherConfig, LocMatcherSelector
from repro.trajectory import DeliveryTrip, Trajectory, Waybill
from tests.core.helpers import PROJ, make_address, make_trip, retrieved
from tests.core.test_locmatcher import synthetic_examples


class TestFailureInjection:
    def test_trip_with_no_stays_is_tolerated(self):
        """A trip whose courier never stops yields no candidates but must
        not crash candidate generation or retrieval."""
        # Fast pass-through: fixes 150 m apart every 10 s -> no stays.
        moving = make_trip(
            "fast", "c1", stops=[(2000.0, 0.0, 400.0, 120.0)], waybills=[("a1", 450.0)]
        )
        # Strip the dwell by slicing the trajectory to the moving prefix.
        lng, lat, t = moving.trajectory.lng, moving.trajectory.lat, moving.trajectory.t
        head = (t >= 0.0) & (t <= 300.0)
        prefix = Trajectory.from_arrays("c1", lng[head], lat[head], t[head])
        trip = DeliveryTrip("fast", "c1", 0.0, 300.0, prefix, moving.waybills)
        stays = extract_trip_stay_points([trip])
        assert stays["fast"] == []
        pool = build_candidate_pool([], PROJ)
        extractor = FeatureExtractor(
            [trip], stays, pool, {"a1": make_address("a1", "b1", (0.0, 0.0))}
        )
        assert retrieved(extractor, "a1") == []
        assert extractor.build_examples(["a1"]) == {}

    def test_waybill_for_unknown_address_is_skipped(self):
        trip = make_trip("t1", "c1", stops=[(0.0, 0.0, 100.0, 120.0)], waybills=[("ghost", 200.0)])
        stays = extract_trip_stay_points([trip])
        all_stays = [sp for v in stays.values() for sp in v]
        pool = build_candidate_pool(all_stays, PROJ, 40.0)
        extractor = FeatureExtractor([trip], stays, pool, {})
        assert extractor.build_examples(["ghost"]) == {}

    def test_pipeline_with_some_corrupt_trips(self, tiny_workload, tiny_artifacts):
        """Mixing in empty-trajectory trips must not break fitting."""
        corrupt = DeliveryTrip(
            "corrupt", "cX", 0.0, 1.0, Trajectory("cX", []),
            waybills=[Waybill("w", "a-none", 0.0, 1.0)],
        )
        trips = tiny_workload.trips + [corrupt]
        model = DLInfMA(DLInfMAConfig(selector="mindist"))
        model.fit(
            trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
        )
        preds = model.predict(tiny_workload.test_ids)
        assert set(preds) == set(tiny_workload.test_ids)

    def test_all_confirmations_at_trip_end(self):
        """Worst-case batch confirmation: every waybill recorded at the
        end; candidates are then everything visited — still functional."""
        trip = make_trip(
            "t1", "c1",
            stops=[(0.0, 0.0, 100.0, 120.0), (300.0, 0.0, 400.0, 120.0)],
            waybills=[("a1", 5_000.0), ("a2", 5_000.0)],
        )
        stays = extract_trip_stay_points([trip])
        all_stays = [sp for v in stays.values() for sp in v]
        pool = build_candidate_pool(all_stays, PROJ, 40.0)
        addresses = {
            "a1": make_address("a1", "b1", (5.0, 0.0)),
            "a2": make_address("a2", "b2", (295.0, 0.0)),
        }
        extractor = FeatureExtractor([trip], stays, pool, addresses)
        assert len(retrieved(extractor, "a1")) == 2


class TestPaddingInvariance:
    def test_scores_independent_of_batch_padding(self):
        """An example's scores must be identical whether it is scored alone
        or padded inside a batch with much larger candidate sets — the
        attention mask has to fully isolate padded slots."""
        cfg = LocMatcherConfig(max_epochs=10, patience=5, dropout=0.1)
        train = synthetic_examples(30, seed=0, n_cands=(3, 12))
        selector = LocMatcherSelector(config=cfg).fit(train)

        small = synthetic_examples(1, seed=5, n_cands=(2, 3))[0]
        alone = selector.scores(small)
        big = synthetic_examples(1, seed=6, n_cands=(11, 12))[0]
        scalars, hist, mask, poi, deliv, _ = selector._make_batch([small, big])
        logits = selector.net(scalars, hist, mask, poi, deliv)
        from repro.nn.functional import masked_softmax

        batched = masked_softmax(logits.data[None][0], mask).data[0][: small.n_candidates]
        np.testing.assert_allclose(batched, alone, rtol=1e-8, atol=1e-10)


class TestRetrievalProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=150.0, max_value=5_000.0))
    def test_retrieval_monotone_in_recorded_time(self, bound):
        """Later recorded times can only grow the candidate set."""
        def build(recorded):
            trip = make_trip(
                "t1", "c1",
                stops=[(0.0, 0.0, 100.0, 120.0), (300.0, 0.0, 400.0, 120.0),
                       (600.0, 0.0, 700.0, 120.0)],
                waybills=[("a1", recorded)],
            )
            stays = extract_trip_stay_points([trip])
            all_stays = [sp for v in stays.values() for sp in v]
            pool = build_candidate_pool(all_stays, PROJ, 40.0)
            extractor = FeatureExtractor(
                [trip], stays, pool, {"a1": make_address("a1", "b1", (0.0, 0.0))}
            )
            return set(retrieved(extractor, "a1"))

        earlier = build(bound)
        later = build(bound + 300.0)
        assert earlier <= later

    def test_feature_ranges(self, tiny_artifacts):
        """TC and LC are fractions; distances and durations non-negative."""
        from repro.core.features import COL_DIST, COL_DURATION, COL_LC_ADDRESS, COL_LC_BUILDING, COL_TC

        for example in tiny_artifacts.examples.values():
            f = example.features
            assert ((0.0 <= f[:, COL_TC]) & (f[:, COL_TC] <= 1.0)).all()
            assert ((0.0 <= f[:, COL_LC_BUILDING]) & (f[:, COL_LC_BUILDING] <= 1.0)).all()
            assert ((0.0 <= f[:, COL_LC_ADDRESS]) & (f[:, COL_LC_ADDRESS] <= 1.0)).all()
            assert (f[:, COL_DIST] >= 0).all()
            assert (f[:, COL_DURATION] >= 0).all()
            # True candidate of every trip-involved address: TC > 0 for at
            # least one candidate.
            assert f[:, COL_TC].max() > 0
