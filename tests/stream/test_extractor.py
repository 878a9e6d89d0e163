"""Online extractor: batch parity, late/duplicate handling, eviction."""

import numpy as np
import pytest

from repro.geo import LocalProjection, Point
from repro.stream import (
    GpsFix,
    IngestOutcome,
    OnlineExtractorConfig,
    OnlineStayExtractor,
)
from repro.stream import extractor as extractor_mod
from repro.trajectory import TrajPoint, Trajectory, detect_stay_points, stay_points_of


def walk_fixes(courier="c0", seed=0, n_dwells=5):
    """A dwell-travel-dwell trajectory with noisy fixes (meters-level)."""
    rng = np.random.default_rng(seed)
    proj = LocalProjection(Point(116.0, 39.9))
    fixes = []
    t = 0.0
    x, y = 0.0, 0.0
    for _ in range(n_dwells):
        dwell_end = t + float(rng.uniform(40.0, 140.0))
        while t < dwell_end:
            lng, lat = proj.to_lnglat(
                x + float(rng.normal(0, 4.0)), y + float(rng.normal(0, 4.0))
            )
            fixes.append(GpsFix(courier, float(lng), float(lat), t))
            t += float(rng.uniform(4.0, 9.0))
        # Travel leg: a few fast fixes well past d_max.
        for _ in range(4):
            x += float(rng.uniform(40.0, 90.0))
            y += float(rng.uniform(-60.0, 60.0))
            lng, lat = proj.to_lnglat(x, y)
            fixes.append(GpsFix(courier, float(lng), float(lat), t))
            t += float(rng.uniform(4.0, 9.0))
    return fixes


def batch_stays(fixes):
    by_courier = {}
    for f in fixes:
        by_courier.setdefault(f.courier_id, []).append(f)
    stays = []
    for courier_id in sorted(by_courier):
        pts = sorted(by_courier[courier_id], key=lambda f: f.t)
        lng, lat, t = np.array([(f.lng, f.lat, f.t) for f in pts]).T
        stays.extend(stay_points_of(lng, lat, t, courier_id))
    return stays


def stay_key(s):
    return (s.courier_id, s.lng, s.lat, s.t_arrive, s.t_leave, s.n_points)


def run_online(fixes, lateness_s=30.0):
    extractor = OnlineStayExtractor(
        OnlineExtractorConfig(lateness_s=lateness_s)
    )
    outcomes = []
    emitted = []
    for f in fixes:
        outcome, stays = extractor.ingest(f)
        outcomes.append(outcome)
        emitted.extend(stays)
    emitted.extend(extractor.flush_all())
    return extractor, outcomes, emitted


class TestBatchParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_in_order_parity_is_bit_exact(self, seed):
        fixes = walk_fixes(seed=seed)
        _, outcomes, emitted = run_online(fixes)
        assert all(o is IngestOutcome.ACCEPTED for o in outcomes)
        online = sorted(stay_key(e.stay) for e in emitted)
        reference = sorted(stay_key(s) for s in batch_stays(fixes))
        assert reference, "walk must contain stays for the test to bite"
        assert online == reference  # exact floats, not approx

    @pytest.mark.parametrize("seed", range(5))
    def test_out_of_order_and_duplicate_parity(self, seed):
        fixes = walk_fixes(seed=seed)
        rng = np.random.default_rng(seed + 1000)
        # Bounded disorder: arrival = event order jittered < lateness.
        jitter = rng.uniform(0.0, 25.0, len(fixes))
        order = np.argsort(np.array([f.t for f in fixes]) + jitter,
                           kind="stable")
        arrivals = [fixes[i] for i in order]
        # Sprinkle duplicates shortly after their originals.
        with_dups = []
        for i, f in enumerate(arrivals):
            with_dups.append(f)
            if rng.random() < 0.1:
                with_dups.append(f)
        _, outcomes, emitted = run_online(with_dups, lateness_s=30.0)
        n_dup = sum(1 for o in outcomes if o is IngestOutcome.DUPLICATE)
        assert n_dup == len(with_dups) - len(fixes)
        assert not any(o is IngestOutcome.LATE for o in outcomes)
        online = sorted(stay_key(e.stay) for e in emitted)
        reference = sorted(stay_key(s) for s in batch_stays(fixes))
        assert online == reference

    def test_multiple_couriers_are_independent(self):
        fixes = walk_fixes("c0", seed=1) + walk_fixes("c1", seed=2)
        fixes.sort(key=lambda f: f.t)
        _, _, emitted = run_online(fixes)
        online = sorted(stay_key(e.stay) for e in emitted)
        reference = sorted(stay_key(s) for s in batch_stays(fixes))
        assert online == reference
        assert {k[0] for k in online} == {"c0", "c1"}

    def test_nan_fix_inside_a_dwell_matches_batch(self):
        """A NaN coordinate breaks the window in batch; online must agree
        instead of treating the NaN distance as within the radius."""
        fixes = walk_fixes(seed=0)
        f = fixes[2]  # inside the first dwell
        fixes[2] = GpsFix(f.courier_id, float("nan"), f.lat, f.t)
        _, _, emitted = run_online(fixes)
        online = sorted(stay_key(e.stay) for e in emitted)
        reference = sorted(stay_key(s) for s in batch_stays(fixes))
        assert reference
        assert online == reference
        assert all(np.isfinite([e.stay.lng, e.stay.lat]).all() for e in emitted)


class TestWorkBound:
    """Each open fix is checked against its anchor once, not per release."""

    def test_long_dwell_reads_each_fix_a_bounded_number_of_times(self, monkeypatch):
        reads = [0]

        class CountingColumn:
            def __init__(self, column):
                self.column = column

            def __len__(self):
                return len(self.column)

            def __getitem__(self, k):
                reads[0] += 1
                return self.column[k]

        kernel = extractor_mod.stay_spans
        monkeypatch.setattr(
            extractor_mod, "stay_spans",
            lambda xs, *args: kernel(CountingColumn(xs), *args),
        )
        rng = np.random.default_rng(7)
        proj = LocalProjection(Point(116.0, 39.9))
        # 2,000 fixes within 8 m of the first (so within 20 m of each
        # other), then a walk away in 100 m steps.
        r, a = rng.uniform(0.0, 8.0, 2000), rng.uniform(0.0, 2 * np.pi, 2000)
        xy = list(zip(r * np.cos(a), r * np.sin(a))) + [(100.0 * k, 0.0) for k in range(1, 51)]
        fixes = []
        for k, (x, y) in enumerate(xy):
            lng, lat = proj.to_lnglat(float(x), float(y))
            fixes.append(GpsFix("c0", float(lng), float(lat), float(k)))
        _, outcomes, emitted = run_online(fixes)
        assert all(o is IngestOutcome.ACCEPTED for o in outcomes)
        assert reads[0] <= 4 * len(fixes)
        trajectory = Trajectory("c0", [TrajPoint(f.lng, f.lat, f.t) for f in fixes])
        reference = detect_stay_points(trajectory)
        assert reference[0].n_points == 2000
        assert [e.stay for e in emitted] == reference


class TestLateAndDuplicate:
    def test_fix_behind_watermark_is_late(self):
        extractor = OnlineStayExtractor(
            OnlineExtractorConfig(lateness_s=10.0)
        )
        for t in (0.0, 5.0, 30.0):  # watermark advances to 20
            outcome, _ = extractor.ingest(GpsFix("c0", 116.0, 39.9, t))
            assert outcome is IngestOutcome.ACCEPTED
        outcome, _ = extractor.ingest(GpsFix("c0", 116.0, 39.9, 3.0))
        assert outcome is IngestOutcome.LATE

    def test_duplicate_of_flushed_fix_is_duplicate_not_late(self):
        extractor = OnlineStayExtractor(
            OnlineExtractorConfig(lateness_s=10.0)
        )
        extractor.ingest(GpsFix("c0", 116.0, 39.9, 0.0))
        extractor.ingest(GpsFix("c0", 116.0, 39.9, 5.0))
        extractor.ingest(GpsFix("c0", 116.0, 39.9, 30.0))
        outcome, _ = extractor.ingest(GpsFix("c0", 116.0, 39.9, 5.0))
        assert outcome is IngestOutcome.DUPLICATE

    def test_duplicate_while_pending_is_duplicate(self):
        extractor = OnlineStayExtractor()
        extractor.ingest(GpsFix("c0", 116.0, 39.9, 0.0))
        outcome, _ = extractor.ingest(GpsFix("c0", 116.0, 39.9, 0.0))
        assert outcome is IngestOutcome.DUPLICATE

    def test_wall_t_is_latest_contributing_arrival(self):
        extractor = OnlineStayExtractor(
            OnlineExtractorConfig(lateness_s=0.0)
        )
        emitted = []
        for i in range(10):
            _, stays = extractor.ingest(
                GpsFix("c0", 116.0, 39.9, float(i * 10), wall_t=100.0 + i)
            )
            emitted.extend(stays)
        emitted.extend(extractor.flush_all())
        assert emitted
        assert emitted[0].wall_t == max(
            100.0 + i for i in range(emitted[0].stay.n_points)
        )


class TestEviction:
    def test_idle_state_is_evicted_and_memory_bounded(self):
        """Couriers that go silent are finalized and freed."""
        extractor = OnlineStayExtractor(
            OnlineExtractorConfig(lateness_s=0.0, idle_timeout_s=100.0)
        )
        # 50 couriers each dwell briefly, staggered in event time.
        for k in range(50):
            base = k * 1000.0
            for i in range(12):
                extractor.ingest(
                    GpsFix(f"c{k}", 116.0, 39.9, base + i * 5.0)
                )
            evicted = extractor.evict_idle(now_event_t=base)
            # Every earlier courier is >100s idle by now.
            assert extractor.n_states <= 1
            for e in evicted:
                assert e.stay.courier_id != f"c{k}"
        assert extractor.n_evicted == 49

    def test_eviction_emits_the_open_window(self):
        extractor = OnlineStayExtractor(
            OnlineExtractorConfig(lateness_s=0.0, idle_timeout_s=50.0)
        )
        for i in range(10):  # 90s dwell, never closed by a travel fix
            extractor.ingest(GpsFix("c0", 116.0, 39.9, i * 10.0))
        emitted = extractor.evict_idle(now_event_t=1000.0)
        assert len(emitted) == 1
        assert emitted[0].stay.n_points == 10
        assert extractor.n_states == 0

    def test_fresh_state_after_eviction(self):
        extractor = OnlineStayExtractor(
            OnlineExtractorConfig(lateness_s=0.0, idle_timeout_s=50.0)
        )
        extractor.ingest(GpsFix("c0", 116.0, 39.9, 0.0))
        extractor.evict_idle(now_event_t=1000.0)
        outcome, _ = extractor.ingest(GpsFix("c0", 116.0, 39.9, 0.5))
        # A post-eviction fix starts a fresh state: accepted, not late.
        assert outcome is IngestOutcome.ACCEPTED
        assert extractor.n_states == 1
