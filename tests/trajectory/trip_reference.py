"""Reference trip plumbing: the per-fix loops, written out.

This module keeps the per-fix implementations of raw-stream segmentation
(``repro.trajectory.segment_trips``), day-stream assembly
(``repro.synth.build_day_streams``) and the event stream's per-courier
templates, seam guard and arrivals (``repro.synth.FixEventStream``).  The
library computes the same things over ``(lng, lat, t)`` arrays; the parity
tests and the scale-3 script below assert both give bit-equal fixes, and
that a trips file survives save -> load -> save byte for byte.

Run as a script for the large-corpus check (not part of tier 1)::

    PYTHONPATH=src:. python -m tests.trajectory.trip_reference --scale 3
"""

from __future__ import annotations

import argparse
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.geo import Point, haversine_m
from repro.stream.events import GpsFix
from repro.trajectory import SegmentationConfig, TrajPoint, Trajectory


def columns(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trajectory's ``(lng, lat, t)`` arrays."""
    return trajectory.lng, trajectory.lat, trajectory.t


def fixes_of(trajectory: Trajectory) -> list[TrajPoint]:
    """The trajectory's fixes, one :class:`TrajPoint` each."""
    return [TrajPoint(*p) for p in zip(*(c.tolist() for c in columns(trajectory)))]


def same_trajectory(a: Trajectory, b: Trajectory) -> bool:
    """Same courier and bit-equal ``lng``, ``lat`` and ``t``."""
    return a.courier_id == b.courier_id and all(
        x.tobytes() == y.tobytes() for x, y in zip(columns(a), columns(b))
    )


def trajectory_mismatches(reference: dict, ours: dict, what: str) -> list[str]:
    if reference.keys() != ours.keys():
        return [f"{what} keys differ"]
    return [f"{what} {key}" for key in reference if not same_trajectory(reference[key], ours[key])]


def fix_key(fix: GpsFix) -> tuple:
    """An event as a tuple with its floats in hex, for bit comparison."""
    return (fix.courier_id, fix.lng.hex(), fix.lat.hex(), fix.t.hex(), fix.wall_t.hex())


# ----------------------------------------------------------------------
# Segmentation
# ----------------------------------------------------------------------
def reference_segment_trips(
    trajectory: Trajectory, config: SegmentationConfig | None = None
) -> list[Trajectory]:
    """The per-fix gap and station-dwell cuts of ``segment_trips``."""
    config = config or SegmentationConfig()
    points = fixes_of(trajectory)
    if not points:
        return []

    cut_after: set[int] = set()
    for i in range(len(points) - 1):
        if points[i + 1].t - points[i].t > config.max_gap_s:
            cut_after.add(i)

    dwell_ranges: list[tuple[int, int]] = []
    if config.station is not None:
        at_station = [
            haversine_m(p.lng, p.lat, config.station.lng, config.station.lat)
            <= config.station_radius_m
            for p in points
        ]
        i = 0
        while i < len(points):
            if not at_station[i]:
                i += 1
                continue
            j = i
            while j + 1 < len(points) and at_station[j + 1]:
                j += 1
            if points[j].t - points[i].t >= config.min_station_dwell_s:
                if i > 0:
                    cut_after.add(i - 1)
                cut_after.add(j)
                dwell_ranges.append((i, j))
            i = j + 1

    def inside_dwell(start: int, stop: int) -> bool:
        return any(ds <= start and stop <= de for ds, de in dwell_ranges)

    segments: list[Trajectory] = []
    start = 0
    boundaries = sorted(cut_after) + [len(points) - 1]
    for boundary in boundaries:
        chunk = points[start : boundary + 1]
        chunk_range = (start, boundary)
        start = boundary + 1
        if len(chunk) < config.min_trip_points:
            continue
        if chunk[-1].t - chunk[0].t < config.min_trip_duration_s:
            continue
        if inside_dwell(*chunk_range):
            continue
        segments.append(Trajectory(trajectory.courier_id, list(chunk)))
    return segments


def station_of(city) -> Point:
    lng, lat = city.projection.to_lnglat(*city.station_xy)
    return Point(float(lng), float(lat))


def segmentation_configs(city) -> dict[str, SegmentationConfig]:
    """Gap cuts only, the station dwells of a day stream, and tight cuts."""
    station = station_of(city)
    return {
        "gaps": SegmentationConfig(),
        "station": SegmentationConfig(max_gap_s=3_600.0, station=station),
        "tight": SegmentationConfig(
            max_gap_s=15.0, station=station, station_radius_m=40.0,
            min_station_dwell_s=60.0, min_trip_points=2, min_trip_duration_s=0.0,
        ),
    }


def segmentation_mismatches(streams: dict, configs: dict, segment) -> list[str]:
    out = []
    for name, config in configs.items():
        for key, stream in streams.items():
            reference = reference_segment_trips(stream, config)
            ours = segment(stream, config)
            if len(reference) != len(ours) or not all(map(same_trajectory, reference, ours)):
                out.append(f"segments {name} {key}")
    return out


# ----------------------------------------------------------------------
# Day streams and event templates
# ----------------------------------------------------------------------
def reference_day_streams(
    sim_trips,
    city,
    station_dwell_s: float = 1_200.0,
    sampling_s: float = 13.5,
    gps_sigma_m: float = 6.0,
    rng: np.random.Generator | None = None,
) -> dict[tuple[str, int], Trajectory]:
    """The per-fix day-stream assembly of ``build_day_streams``."""
    rng = rng or np.random.default_rng(0)
    sx, sy = city.station_xy

    by_day = defaultdict(list)
    for sim in sim_trips:
        day = int(sim.trip.t_start // 86_400.0)
        by_day[(sim.trip.courier_id, day)].append(sim)

    def station_fixes(t_from: float, t_to: float) -> list[TrajPoint]:
        points = []
        t = t_from
        while t < t_to:
            x = sx + float(rng.normal(0, gps_sigma_m))
            y = sy + float(rng.normal(0, gps_sigma_m))
            lng, lat = city.projection.to_lnglat(x, y)
            points.append(TrajPoint(float(lng), float(lat), t))
            t += sampling_s * float(rng.uniform(0.8, 1.2))
        return points

    streams: dict[tuple[str, int], Trajectory] = {}
    for key, sims in by_day.items():
        sims = sorted(sims, key=lambda s: s.trip.t_start)
        points: list[TrajPoint] = []
        first_start = fixes_of(sims[0].trip.trajectory)[0].t
        points.extend(station_fixes(first_start - station_dwell_s, first_start - 1.0))
        for sim in sims:
            trip_points = fixes_of(sim.trip.trajectory)
            # Guard monotonicity at the seam.
            while points and trip_points and points[-1].t >= trip_points[0].t:
                points.pop()
            points.extend(trip_points)
        last_end = points[-1].t if points else first_start
        points.extend(station_fixes(last_end + 1.0, last_end + station_dwell_s))
        streams[key] = Trajectory(key[0], points)
    return streams


def reference_templates(day_streams: dict) -> dict[str, list[TrajPoint]]:
    """Per-courier day streams concatenated with the per-fix seam guard."""
    by_courier = defaultdict(list)
    for (courier_id, _day), traj in sorted(
        day_streams.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        by_courier[courier_id].append(traj)
    templates: dict[str, list[TrajPoint]] = {}
    for courier_id, trajs in by_courier.items():
        points: list[TrajPoint] = []
        for traj in trajs:
            for p in fixes_of(traj):
                if points and p.t <= points[-1].t:
                    continue  # seam guard: drop non-monotone overlap
                points.append(p)
        if points:
            templates[courier_id] = points
    return templates


def reference_period_s(templates: dict, cycle_gap_s: float) -> float:
    all_t = [p.t for pts in templates.values() for p in pts]
    return (max(all_t) - min(all_t)) + cycle_gap_s


def reference_expected_trajectory(
    templates: dict, courier_id: str, period_s: float, n_cycles: int
) -> Trajectory:
    points: list[TrajPoint] = []
    for cycle in range(n_cycles):
        shift = cycle * period_s
        points.extend(TrajPoint(p.lng, p.lat, p.t + shift) for p in templates[courier_id])
    return Trajectory(courier_id, points)


def reference_events_for_cycle(templates: dict, seed: int, config, period_s: float, cycle: int):
    """All arrivals of one cycle, built fix by fix from the templates."""
    rng = np.random.default_rng([seed, int(cycle)])
    shift = cycle * period_s
    flat: list[GpsFix] = []
    for courier_id, points in templates.items():
        for p in points:
            flat.append(GpsFix(courier_id, p.lng, p.lat, p.t + shift))
    flat.sort(key=lambda f: (f.t, f.courier_id))
    jitter = rng.uniform(0.0, config.disorder_s, len(flat))
    order = np.argsort(np.array([f.t for f in flat]) + jitter, kind="stable")
    arrivals = [flat[i] for i in order]
    if config.p_duplicate <= 0.0:
        return arrivals
    out: list[GpsFix] = []
    pending: list[tuple[int, GpsFix]] = []
    for i, fix in enumerate(arrivals):
        while pending and pending[0][0] <= i:
            out.append(pending.pop(0)[1])
        out.append(fix)
        if rng.random() < config.p_duplicate:
            gap = int(rng.integers(1, config.dup_gap_events + 1))
            pending.append((i + gap, fix))
    out.extend(f for _, f in pending)
    return out


def event_stream_mismatches(day_streams: dict, seed: int = 0, n_cycles: int = 2) -> list[str]:
    """``FixEventStream`` against the per-fix templates: bounds, the
    expected trajectories and the arrivals of the first ``n_cycles``."""
    from repro.synth import FixEventStream

    stream = FixEventStream(day_streams, seed=seed)
    templates = reference_templates(day_streams)
    period_s = reference_period_s(templates, stream.config.cycle_gap_s)
    out = []
    if list(stream.templates) != list(templates) or stream.period_s != period_s:
        out.append("templates or period differ")
        return out
    for courier_id in templates:
        reference = reference_expected_trajectory(templates, courier_id, period_s, n_cycles)
        if not same_trajectory(reference, stream.expected_trajectory(courier_id, n_cycles)):
            out.append(f"expected trajectory {courier_id}")
    for cycle in range(n_cycles):
        reference = reference_events_for_cycle(templates, seed, stream.config, period_s, cycle)
        if list(map(fix_key, reference)) != list(map(fix_key, stream.events_for_cycle(cycle))):
            out.append(f"events of cycle {cycle}")
    return out


# ----------------------------------------------------------------------
# Trips file
# ----------------------------------------------------------------------
def round_trip_mismatches(trips, directory: Path) -> list[str]:
    """save -> load -> save must write the same bytes, and the loaded
    trips must carry the saved trips' fixes bit for bit."""
    from repro.synth.io import load_trips, save_trips

    first, second = directory / "trips.jsonl", directory / "again.jsonl"
    save_trips(trips, first)
    loaded = load_trips(first)
    save_trips(loaded, second)
    out = []
    if first.read_bytes() != second.read_bytes():
        out.append("trips file bytes differ after save -> load -> save")
    if len(loaded) != len(trips):
        return out + ["trip count differs"]
    for trip, again in zip(trips, loaded):
        if not (
            same_trajectory(trip.trajectory, again.trajectory)
            and (trip.trip_id, trip.t_start, trip.t_end, trip.waybills)
            == (again.trip_id, again.t_start, again.t_end, again.waybills)
        ):
            out.append(f"trip {trip.trip_id}")
    return out


# ----------------------------------------------------------------------
# Large-corpus check
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    from repro.core import extract_trip_stay_points
    from repro.synth import build_day_streams, downbj_config, generate_dataset, subbj_config
    from repro.trajectory import segment_trips
    from tests.trajectory.test_extraction_parity import (
        oracle_detect_stay_points,
        oracle_filter_noise,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=3.0)
    args = parser.parse_args(argv)
    failed = False
    for name, make in (("DowBJ-like", downbj_config), ("SubBJ-like", subbj_config)):
        dataset = generate_dataset(make(scale=args.scale))
        n_fixes = sum(len(trip.trajectory) for trip in dataset.trips)
        seconds: dict[str, dict[str, float]] = {"reference": {}, "library": {}}
        mismatches = []
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            mismatches += round_trip_mismatches(dataset.trips, Path(tmp))
            seconds["library"]["round trip"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ours = extract_trip_stay_points(dataset.trips)
        t1 = time.perf_counter()
        for trip in dataset.trips:
            if ours[trip.trip_id] != oracle_detect_stay_points(
                oracle_filter_noise(trip.trajectory)
            ):
                mismatches.append(f"stays of {trip.trip_id}")
        t2 = time.perf_counter()
        seconds["library"]["stays"], seconds["reference"]["stays"] = t1 - t0, t2 - t1

        t0 = time.perf_counter()
        streams = build_day_streams(dataset.sim_trips, dataset.city, rng=np.random.default_rng(0))
        t1 = time.perf_counter()
        reference = reference_day_streams(
            dataset.sim_trips, dataset.city, rng=np.random.default_rng(0)
        )
        t2 = time.perf_counter()
        mismatches += trajectory_mismatches(reference, streams, "day stream")
        seconds["library"]["day streams"], seconds["reference"]["day streams"] = t1 - t0, t2 - t1

        configs = segmentation_configs(dataset.city)
        t0 = time.perf_counter()
        for config in configs.values():
            for stream in streams.values():
                segment_trips(stream, config)
        t1 = time.perf_counter()
        for config in configs.values():
            for stream in streams.values():
                reference_segment_trips(stream, config)
        t2 = time.perf_counter()
        seconds["library"]["segments"], seconds["reference"]["segments"] = t1 - t0, t2 - t1
        mismatches += segmentation_mismatches(streams, configs, segment_trips)

        for side in ("reference", "library"):
            stages = ", ".join(f"{k} {v:.3f} s" for k, v in seconds[side].items())
            print(f"{name} scale {args.scale:g} {side}: {stages}")
        status = "bit-equal" if not mismatches else f"{len(mismatches)} MISMATCHES"
        print(f"{name} scale {args.scale:g}: {len(dataset.trips)} trips, {n_fixes} fixes, "
              f"{len(streams)} day streams: round trip, stays and segments {status}")
        for line in mismatches[:10]:
            print("  ", line)
        failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
