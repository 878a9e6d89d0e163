"""The array stay-extraction kernels against the per-fix implementations
they replaced, kept verbatim below as oracles.

``filter_noise`` must keep exactly the oracle's fixes and
``detect_stay_points`` / ``extract_trip_stay_points`` must return equal
``StayPoint``s (float fields compared with ``==``).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import extract_trip_stay_points
from repro.core.staypoints import ExtractionConfig
from repro.geo import LocalProjection, Point, haversine_m
from repro.trajectory import (
    NoiseFilterConfig,
    StayPoint,
    StayPointConfig,
    TrajPoint,
    Trajectory,
    detect_stay_points,
    filter_noise,
    stay_spans,
)
from tests.trajectory.trip_reference import fixes_of, same_trajectory


def oracle_filter_noise(
    trajectory: Trajectory, config: NoiseFilterConfig | None = None
) -> Trajectory:
    """The per-fix speed filter, kept verbatim as the oracle."""
    config = config or NoiseFilterConfig()
    points = fixes_of(trajectory)
    if len(points) < 2:
        return Trajectory(trajectory.courier_id, list(points))
    kept = [points[0]]
    for cur in points[1:]:
        prev = kept[-1]
        dt = cur.t - prev.t
        if dt < config.min_dt_s:
            continue
        dist = haversine_m(prev.lng, prev.lat, cur.lng, cur.lat)
        if dist / dt <= config.max_speed_mps:
            kept.append(cur)
    return Trajectory(trajectory.courier_id, kept)


def oracle_detect_stay_points(
    trajectory: Trajectory, config: StayPointConfig | None = None
) -> list[StayPoint]:
    """The numpy-scalar anchor loop, kept verbatim as the oracle."""
    config = config or StayPointConfig()
    n = len(trajectory)
    if n == 0:
        return []
    lng, lat, t = trajectory.lng, trajectory.lat, trajectory.t
    proj = LocalProjection(Point(float(lng[0]), float(lat[0])))
    x, y = proj.to_xy(lng, lat)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))

    stays: list[StayPoint] = []
    d2_max = config.d_max_m * config.d_max_m
    i = 0
    while i < n - 1:
        j = i + 1
        while j < n and (x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2 <= d2_max:
            j += 1
        # fixes i .. j-1 are within d_max of the anchor
        if t[j - 1] - t[i] >= config.t_min_s:
            cx = float(np.mean(x[i:j]))
            cy = float(np.mean(y[i:j]))
            clng, clat = proj.to_lnglat(cx, cy)
            stays.append(
                StayPoint(
                    lng=float(clng),
                    lat=float(clat),
                    t_arrive=float(t[i]),
                    t_leave=float(t[j - 1]),
                    courier_id=trajectory.courier_id,
                    n_points=j - i,
                )
            )
            i = j
        else:
            i += 1
    return stays


#: Origin of the test plane.  At (0, 0) a degree offset projects with
#: sub-ulp resolution, so a fix can sit at an exact metre distance.
ORIGIN = Point(0.0, 0.0)
PROJ = LocalProjection(ORIGIN)


def exact_lng(x_m: float) -> float:
    """A longitude that projects to exactly ``x_m`` metres east of ORIGIN."""
    lng = float(PROJ.to_lnglat(x_m, 0.0)[0])
    for _ in range(64):
        x = float(PROJ.to_xy(lng, 0.0)[0])
        if x == x_m:
            return lng
        lng = float(np.nextafter(lng, np.inf if x < x_m else -np.inf))
    raise AssertionError(f"no longitude projects to {x_m} m")


def traj(points, courier="c1"):
    return Trajectory(courier, [TrajPoint(float(a), float(b), float(t)) for a, b, t in points])


def from_xy(xyts, courier="c1"):
    lng, lat = PROJ.to_lnglat(np.array([p[0] for p in xyts], dtype=float),
                              np.array([p[1] for p in xyts], dtype=float))
    return traj(zip(lng, lat, [p[2] for p in xyts]), courier)


def noisy_walk(rng, n, jump_rate=0.03, burst=4):
    """Stops and moves with GPS jumps, some in runs of up to ``burst``."""
    xs, ys, ts = [0.0], [0.0], [0.0]
    jumping = 0
    for _ in range(n - 1):
        ts.append(ts[-1] + float(rng.choice([1.0, 5.0, 10.0, 20.0])))
        if rng.random() < 0.5:  # dwell: jitter around the last true fix
            x, y = xs[-1] + rng.normal(0, 4), ys[-1] + rng.normal(0, 4)
        else:
            x, y = xs[-1] + rng.normal(0, 40), ys[-1] + rng.normal(0, 40)
        if jumping == 0 and rng.random() < jump_rate:
            jumping = int(rng.integers(1, burst + 1))
        if jumping:
            jumping -= 1
            x, y = x + rng.choice([-1, 1]) * 3000.0, y + rng.normal(0, 500)
        xs.append(x)
        ys.append(y)
    return from_xy(list(zip(xs, ys, ts)))


def assert_same(trajectory, noise=None, stay=None):
    cleaned = filter_noise(trajectory, noise)
    expected = oracle_filter_noise(trajectory, noise)
    assert same_trajectory(cleaned, expected)
    assert detect_stay_points(expected, stay) == oracle_detect_stay_points(expected, stay)
    assert detect_stay_points(trajectory, stay) == oracle_detect_stay_points(trajectory, stay)


class TestNoiseFilterParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_noisy_walks(self, seed):
        rng = np.random.default_rng(seed)
        walk = noisy_walk(rng, int(rng.integers(50, 400)))
        assert len(oracle_filter_noise(walk)) < len(walk)  # some fixes are noise
        assert_same(walk)

    def test_speed_exactly_at_the_limit_is_kept(self):
        a, b = (0.0, 0.0, 0.0), (exact_lng(123.0), 0.0, 7.0)
        speed = haversine_m(a[0], a[1], b[0], b[1]) / (b[2] - a[2])
        for limit in (speed, float(np.nextafter(speed, 0.0)), float(np.nextafter(speed, 1e9))):
            config = NoiseFilterConfig(max_speed_mps=limit)
            kept = filter_noise(traj([a, b]), config)
            assert same_trajectory(kept, oracle_filter_noise(traj([a, b]), config))
            assert len(kept) == (2 if limit >= speed else 1)

    def test_limit_hit_after_a_rejection(self):
        # Fix 2 is judged against fix 0 (fix 1 is a jump) at exactly the
        # limit: the scalar rule, not the neighbour speed, decides.
        a, jump, c = (0.0, 0.0, 0.0), (1.0, 0.0, 5.0), (exact_lng(90.0), 0.0, 10.0)
        limit = haversine_m(a[0], a[1], c[0], c[1]) / (c[2] - a[2])
        config = NoiseFilterConfig(max_speed_mps=limit)
        kept = filter_noise(traj([a, jump, c]), config)
        assert kept.t.tolist() == [0.0, 10.0]
        assert same_trajectory(kept, oracle_filter_noise(traj([a, jump, c]), config))

    def test_chains_of_consecutive_rejections(self):
        far = 5000.0
        xyts = [(0, 0, 0), (5, 0, 10), (far, 0, 20), (far, 10, 30), (far, 20, 40),
                (10, 0, 50), (far, 0, 60), (15, 0, 70), (-far, 0, 80), (far, 0, 90),
                (-far, 5, 100), (20, 0, 110), (25, 0, 120)]
        walk = from_xy(xyts)
        assert filter_noise(walk).t.tolist() == [0.0, 10.0, 50.0, 70.0, 110.0, 120.0]
        assert_same(walk)

    def test_every_fix_after_the_first_rejected(self):
        walk = from_xy([(0, 0, 0)] + [(3000.0 * (k % 2 * 2 - 1), 0, 10 * k) for k in range(1, 8)])
        assert len(filter_noise(walk)) == 1
        assert_same(walk)

    def test_gaps_below_min_dt(self):
        # Timestamps 1e-10 s apart are dropped by the min_dt rule.
        walk = traj([(0.0, 0.0, 0.0), (0.0, 0.0, 1e-10), (1e-6, 0.0, 2e-10), (2e-6, 0.0, 10.0)])
        assert filter_noise(walk).t.tolist() == [0.0, 10.0]
        assert_same(walk)

    @pytest.mark.parametrize("points", [[], [(0.0, 0.0, 0.0)]])
    def test_empty_and_one_fix(self, points):
        walk = traj(points)
        assert same_trajectory(filter_noise(walk), walk)
        assert not np.shares_memory(filter_noise(walk).t, walk.t)
        assert_same(walk)


class TestStayDetectionParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_walks(self, seed):
        walk = noisy_walk(np.random.default_rng(100 + seed), 300, jump_rate=0.0)
        assert oracle_detect_stay_points(walk)  # the walk has stays
        assert_same(walk)
        assert_same(walk, stay=StayPointConfig(d_max_m=7.5, t_min_s=15.0))

    def test_fix_exactly_at_d_max(self):
        at = exact_lng(20.0)
        beyond = float(np.nextafter(at, 1.0))
        assert PROJ.to_xy(beyond, 0.0)[0] > 20.0
        for edge, n_points in ((at, 3), (beyond, 2)):
            walk = traj([(0.0, 0.0, 0.0), (exact_lng(5.0), 0.0, 30.0), (edge, 0.0, 40.0),
                         (0.01, 0.0, 60.0)])
            stays = detect_stay_points(walk)
            assert [s.n_points for s in stays] == [n_points]
            assert stays == oracle_detect_stay_points(walk)

    def test_stay_ending_at_the_last_fix(self):
        walk = from_xy([(0, 0, 0), (300, 0, 20), (301, 1, 40), (300, 2, 60), (299, 0, 80)])
        stays = detect_stay_points(walk)
        assert [(s.t_arrive, s.t_leave, s.n_points) for s in stays] == [(20.0, 80.0, 4)]
        assert stays == oracle_detect_stay_points(walk)

    @pytest.mark.parametrize("points", [[], [(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0), (0.0, 0.0, 60.0)]])
    def test_short_trajectories(self, points):
        walk = traj(points)
        assert detect_stay_points(walk) == oracle_detect_stay_points(walk)


class TestResumeContract:
    """``stay_spans`` cut anywhere and resumed equals one final pass."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_cut_resumes_to_the_full_spans(self, seed):
        walk = noisy_walk(np.random.default_rng(100 + seed), 300, jump_rate=0.0)
        lng, lat, t = walk.lng, walk.lat, walk.t
        x, y = LocalProjection(Point(float(lng[0]), float(lat[0]))).to_xy(lng, lat)
        xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
        config = StayPointConfig()
        full, end = stay_spans(xs, ys, ts, config, final=True)
        assert full and end == len(ts)
        for k in range(len(ts) + 1):
            head, resume = stay_spans(xs[:k], ys[:k], ts[:k], config, final=False)
            assert all(j <= resume for _, j in head) and resume <= k
            tail, _ = stay_spans(xs[resume:], ys[resume:], ts[resume:], config, final=True)
            assert head + [(i + resume, j + resume) for i, j in tail] == full, k

        # One fix at a time, as the online extractor feeds it: trim at
        # ``resume`` and carry how far the open window is scanned.  After
        # the walk, 1 km east: a dwell broken by a NaN fix, then a dwell
        # whose second fix lies exactly d_max (20 m) from its anchor.
        x0, t0 = float(round(xs[-1])) + 1000.0, ts[-1] + 10.0
        extra = [(x0, 0.0), (x0 + 3.0, 1.0), (float("nan"), 0.0), (x0 - 2.0, 1.0),
                 (x0, 0.0), (x0 + 20.0, 0.0), (x0 + 5.0, 4.0), (x0 - 3.0, -2.0),
                 (x0 + 1.0, 1.0), (x0 + 500.0, 0.0)]
        anchor = len(ts) + 4
        xs += [p[0] for p in extra]
        ys += [p[1] for p in extra]
        ts += [t0 + 10.0 * k for k in range(len(extra))]
        full, _ = stay_spans(xs, ys, ts, config, final=True)
        assert (anchor, anchor + 5) in full  # the exact-d_max fix is inside
        wx, wy, wt, scanned, offset, fed = [], [], [], 0, 0, []
        for k in range(len(ts)):
            wx.append(xs[k])
            wy.append(ys[k])
            wt.append(ts[k])
            spans, resume = stay_spans(wx, wy, wt, config, False, scanned)
            assert (spans, resume) == stay_spans(wx, wy, wt, config, False), k
            fed += [(i + offset, j + offset) for i, j in spans]
            for column in (wx, wy, wt):
                del column[:resume]
            offset += resume
            scanned = len(wt)
        tail, end = stay_spans(wx, wy, wt, config, True, scanned)
        assert (tail, end) == stay_spans(wx, wy, wt, config, True)
        assert fed + [(i + offset, j + offset) for i, j in tail] == full


class TestExtractionParity:
    """``extract_trip_stay_points`` filters and detects on arrays only."""

    def test_tiny_preset_trips(self, tiny_workload):
        got = extract_trip_stay_points(tiny_workload.trips)
        for trip in tiny_workload.trips:
            expected = oracle_detect_stay_points(oracle_filter_noise(trip.trajectory))
            assert got[trip.trip_id] == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_trips_and_custom_thresholds(self, tiny_workload, seed):
        rng = np.random.default_rng(seed)
        config = ExtractionConfig(noise=NoiseFilterConfig(max_speed_mps=12.0),
                                  stay=StayPointConfig(d_max_m=15.0, t_min_s=45.0))
        trips = []
        for trip in tiny_workload.trips[:6]:
            lng, lat, t = trip.trajectory.lng, trip.trajectory.lat, trip.trajectory.t
            hit = rng.random(len(t)) < 0.05
            lng = np.where(hit, lng + rng.normal(0, 0.05, len(t)), lng)
            noisy = Trajectory.from_arrays(trip.courier_id, lng, lat, t)
            trips.append(dataclasses.replace(trip, trajectory=noisy))
        got = extract_trip_stay_points(trips, config)
        for trip in trips:
            cleaned = oracle_filter_noise(trip.trajectory, config.noise)
            assert got[trip.trip_id] == oracle_detect_stay_points(cleaned, config.stay)
