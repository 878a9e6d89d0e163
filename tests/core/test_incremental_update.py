"""Incremental :meth:`DLInfMA.update` semantics (Section VI-A).

The handcrafted scenario aligns batch boundaries with the pool builder's
bi-weekly periods, so an incremental update and a full refit on the union
see *exactly* the same batch sequence — with a deterministic selector the
two must agree bit-for-bit (pool, features, predictions).  The counters
show stay points are extracted only for the new trips.
"""

import numpy as np
import pytest

from repro.core import (
    CandidatePoolBuilder,
    DLInfMA,
    DLInfMAConfig,
    LocMatcherConfig,
    extract_trip_stay_points,
    project_stays,
)
from repro.core.features import FeatureExtractor
from repro.eval import Workload, evaluate
from repro.synth import downbj_config, generate_dataset
from tests.core.helpers import PROJ, make_address, make_trip, point_at

PERIOD = 14 * 86_400.0

# Four well-separated delivery spots (>> the 40 m merge threshold).
A, B, C, D = (0.0, 0.0), (300.0, 0.0), (600.0, 0.0), (900.0, 0.0)

ADDRESSES = {
    "a1": make_address("a1", "b1", (10.0, 0.0)),
    "a2": make_address("a2", "b2", (290.0, 0.0)),
    "a3": make_address("a3", "b3", (610.0, 0.0)),
    "a4": make_address("a4", "b4", (890.0, 0.0)),
}
GROUND_TRUTH = {"a1": point_at(*A), "a2": point_at(*B), "a3": point_at(*C), "a4": point_at(*D)}
TRAIN_IDS = ["a1", "a2", "a3", "a4"]


def batch_one():
    return [
        make_trip("t1", "c1", stops=[(*A, 100.0, 120.0), (*B, 400.0, 120.0)],
                  waybills=[("a1", 250.0), ("a2", 600.0)]),
        make_trip("t2", "c2", stops=[(*A, 100.0, 120.0), (*B, 400.0, 120.0)],
                  waybills=[("a1", 600.0), ("a2", 600.0)]),
        make_trip("t3", "c1", stops=[(*C, 100.0, 120.0)], waybills=[("a3", 300.0)]),
    ]


def batch_two():
    t0 = PERIOD  # lands exactly one bi-weekly period later
    return [
        make_trip("t4", "c2",
                  stops=[(*C, t0 + 100.0, 120.0), (*D, t0 + 400.0, 120.0)],
                  waybills=[("a3", t0 + 300.0), ("a4", t0 + 600.0)], t_start=t0),
        make_trip("t5", "c3", stops=[(*D, t0 + 100.0, 120.0)],
                  waybills=[("a4", t0 + 300.0)], t_start=t0),
    ]


def fit_model(trips, config=None):
    model = DLInfMA(config or DLInfMAConfig(selector="maxtc"))
    model.fit(trips, ADDRESSES, GROUND_TRUTH, TRAIN_IDS, projection=PROJ)
    return model


@pytest.fixture()
def updated():
    model = fit_model(batch_one())
    model.update(batch_two(), GROUND_TRUTH, TRAIN_IDS)
    return model


@pytest.fixture()
def refit():
    return fit_model(batch_one() + batch_two())


class TestUpdateEquivalence:
    def test_pool_identical_to_full_refit(self, updated, refit):
        ours = [(c.candidate_id, c.x, c.y, c.weight) for c in updated.pool.candidates]
        theirs = [(c.candidate_id, c.x, c.y, c.weight) for c in refit.pool.candidates]
        assert ours == theirs

    def test_examples_identical_to_full_refit(self, updated, refit):
        assert set(updated.examples) == set(refit.examples) == {"a1", "a2", "a3", "a4"}
        for address_id in updated.examples:
            ours = updated.examples[address_id]
            theirs = refit.examples[address_id]
            assert ours.candidate_ids == theirs.candidate_ids
            assert np.array_equal(ours.features, theirs.features)

    def test_predictions_identical_to_full_refit(self, updated, refit):
        ids = list(ADDRESSES)
        assert updated.predict(ids) == refit.predict(ids)

    def test_second_update_still_matches(self, updated):
        t0 = 2 * PERIOD
        batch_three = [
            make_trip("t6", "c1", stops=[(*B, t0 + 100.0, 120.0)],
                      waybills=[("a2", t0 + 300.0)], t_start=t0),
        ]
        updated.update(batch_three, GROUND_TRUTH, TRAIN_IDS)
        full = fit_model(batch_one() + batch_two() + batch_three)
        assert updated.predict(list(ADDRESSES)) == full.predict(list(ADDRESSES))


class TestUpdateIsIncremental:
    def test_extraction_runs_only_over_new_trips(self, updated):
        assert updated.counters["stay_point_extraction.trips"] == 2

    def test_update_timings_cover_all_stages(self, updated):
        assert set(updated.timings) == {
            "stay_point_extraction_s",
            "pool_construction_s",
            "profile_build_s",
            "feature_extraction_s",
            "training_s",
        }

    def test_known_trips_are_skipped(self):
        model = fit_model(batch_one())
        before = model.predict(list(ADDRESSES))
        model.update(batch_one())  # pure overlap: nothing new
        assert model.counters["stay_point_extraction.trips"] == 0
        assert model.predict(list(ADDRESSES)) == before


class TestUpdateEdgeCases:
    def test_update_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DLInfMA().update(batch_two())

    @pytest.mark.parametrize("pool_method", ["hierarchical", "grid"])
    def test_update_without_labels_keeps_serving(self, pool_method):
        model = fit_model(batch_one(), DLInfMAConfig(selector="gbdt", pool_method=pool_method))
        selector = model.selector
        model.update(batch_two())  # no ground truth: selector untouched
        assert model.selector is selector
        assert set(model.predict(list(ADDRESSES))) == set(ADDRESSES)

    def test_grid_pool_update_matches_full_refit(self):
        config = DLInfMAConfig(selector="maxtc", pool_method="grid")
        model = fit_model(batch_one(), config)
        model.update(batch_two(), GROUND_TRUTH, TRAIN_IDS)
        full = fit_model(batch_one() + batch_two(), config)
        assert model.predict(list(ADDRESSES)) == full.predict(list(ADDRESSES))


FAST_LM = LocMatcherConfig(max_epochs=30, patience=8, lr_step=10)


class TestWarmStart:
    def test_locmatcher_warm_start_reuses_net(self):
        config = DLInfMAConfig(locmatcher=FAST_LM)
        model = fit_model(batch_one(), config)
        net = model.selector.net
        model.update(batch_two(), GROUND_TRUTH, TRAIN_IDS)
        assert model.selector.net is net  # continued, not rebuilt

    def test_warm_start_accuracy_close_to_refit(self):
        config = DLInfMAConfig(locmatcher=FAST_LM)
        model = fit_model(batch_one(), config)
        model.update(batch_two(), GROUND_TRUTH, TRAIN_IDS)
        full = fit_model(batch_one() + batch_two(), config)
        ours = evaluate(model.predict(list(ADDRESSES)), GROUND_TRUTH)
        theirs = evaluate(full.predict(list(ADDRESSES)), GROUND_TRUTH)
        assert ours.mae <= theirs.mae + 150.0


def _pool_rows(pool):
    return [(c.candidate_id, c.x, c.y, c.weight) for c in pool.candidates]


@pytest.fixture(scope="module")
def time_split_updates():
    """DowBJ-like scale 1, trips by start time: fit on the first half, then
    update at the cuts 2/3, 5/6, n-3 and n.

    Each step pairs update's pool and examples with a reference written out
    here: one persistent builder seeded from the fit pool and fed each
    batch's projected stays, and a fresh extractor over the union of trips
    on the updated pool.
    """
    workload = Workload.from_dataset(generate_dataset(downbj_config()))
    trips = sorted(workload.trips, key=lambda t: t.t_start)
    n = len(trips)
    config = DLInfMAConfig(selector="maxtc-ilc")
    stays = extract_trip_stay_points(trips, config.extraction)
    model = DLInfMA(config).fit(
        trips[: n // 2], workload.addresses, workload.ground_truth,
        workload.train_ids, workload.val_ids, projection=workload.projection,
    )
    builder = CandidatePoolBuilder.from_pool(model.pool, config.cluster_distance_m)
    steps = []
    prev = n // 2
    for cut in (2 * n // 3, 5 * n // 6, n - 3, n):
        batch = trips[prev:cut]
        model.update(batch, workload.ground_truth, workload.train_ids, workload.val_ids)
        builder.add_batch(project_stays(
            [sp for t in batch for sp in stays[t.trip_id]], workload.projection
        ))
        union = trips[:cut]
        union_stays = {t.trip_id: stays[t.trip_id] for t in union}
        extractor = FeatureExtractor(union, union_stays, model.pool, workload.addresses)
        delivered = sorted({a for t in union for a in t.address_ids})
        steps.append((
            cut,
            _pool_rows(model.pool),
            _pool_rows(builder.build()),
            dict(model.examples),
            extractor.build_examples(delivered),
        ))
        prev = cut
    return steps


class TestTimeSplitParity:
    def test_pool_equals_persistent_builder(self, time_split_updates):
        for cut, ours, reference, _, _ in time_split_updates:
            assert ours == reference, f"pool differs after the update at {cut}"

    def test_examples_equal_fresh_build_over_union(self, time_split_updates):
        for cut, _, _, ours, reference in time_split_updates:
            assert set(ours) == set(reference), cut
            for address_id, example in reference.items():
                mine = ours[address_id]
                assert mine.candidate_ids == example.candidate_ids, (cut, address_id)
                assert np.array_equal(mine.features, example.features), (cut, address_id)
