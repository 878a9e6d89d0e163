"""Raw day-stream assembly and unbounded event-stream generation.

Production GPS arrives as continuous per-courier day streams, not
pre-segmented trips.  This module glues a courier's simulated trips into a
day stream (with station dwells between trips), giving
:func:`repro.trajectory.segment_trips` a realistic end-to-end consumer:
stream -> segmentation -> the pipeline's trip inputs.

:class:`FixEventStream` takes the same day streams one step further, to
the *arrival* domain: an unbounded, seeded generator of individual
:class:`~repro.stream.events.GpsFix` events with bounded out-of-order
arrival and duplicated fixes — the honest input shape for the
``repro.stream`` ingest path.  :func:`build_day_streams` itself is
untouched: the disorder lives entirely in the event generator.

Day streams and the per-courier event templates are trajectories, so both
are assembled from ``(lng, lat, t)`` arrays; only the station fixes are
drawn one at a time, to keep the generator's draw order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.stream.events import GpsFix
from repro.synth.city import City
from repro.synth.simulate import SimulatedTrip
from repro.trajectory import Trajectory


def build_day_streams(
    sim_trips: list[SimulatedTrip],
    city: City,
    station_dwell_s: float = 1_200.0,
    sampling_s: float = 13.5,
    gps_sigma_m: float = 6.0,
    rng: np.random.Generator | None = None,
) -> dict[tuple[str, int], Trajectory]:
    """One raw stream per (courier, day): trips plus station dwells.

    The courier sits at the station for ``station_dwell_s`` before the
    first trip and after the last one (emitting noisy fixes), so station
    dwells are available as segmentation cut points.
    """
    if station_dwell_s <= 0 or sampling_s <= 0:
        raise ValueError("station_dwell_s and sampling_s must be positive")
    rng = rng or np.random.default_rng(0)
    sx, sy = city.station_xy

    by_day: dict[tuple[str, int], list[SimulatedTrip]] = defaultdict(list)
    for sim in sim_trips:
        day = int(sim.trip.t_start // 86_400.0)
        by_day[(sim.trip.courier_id, day)].append(sim)

    def station_fixes(t_from: float, t_to: float) -> list[np.ndarray]:
        xs, ys, ts = [], [], []
        t = t_from
        while t < t_to:
            xs.append(sx + float(rng.normal(0, gps_sigma_m)))
            ys.append(sy + float(rng.normal(0, gps_sigma_m)))
            ts.append(t)
            t += sampling_s * float(rng.uniform(0.8, 1.2))
        lng, lat = city.projection.to_lnglat(np.array(xs), np.array(ys))
        return [lng, lat, np.array(ts)]

    streams: dict[tuple[str, int], Trajectory] = {}
    for key, sims in by_day.items():
        sims = sorted(sims, key=lambda s: s.trip.t_start)
        first_start = float(sims[0].trip.trajectory.t[0])
        fixes = station_fixes(first_start - station_dwell_s, first_start - 1.0)
        for sim in sims:
            trip = sim.trip.trajectory
            # Guard monotonicity at the seam: drop the fixes so far that
            # are not older than the trip's first fix.
            n = np.searchsorted(fixes[2], trip.t[0]) if len(trip) else len(fixes[2])
            fixes = [np.concatenate((a[:n], b)) for a, b in zip(fixes, (trip.lng, trip.lat, trip.t))]
        last_end = float(fixes[2][-1]) if len(fixes[2]) else first_start
        tail = station_fixes(last_end + 1.0, last_end + station_dwell_s)
        streams[key] = Trajectory.from_arrays(key[0], *map(np.concatenate, zip(fixes, tail)))
    return streams


@dataclass(frozen=True)
class EventStreamConfig:
    """Arrival-process knobs for :class:`FixEventStream`.

    ``disorder_s`` bounds how far a fix's arrival position may lag newer
    fixes in *event time* — an ingest watermark with
    ``lateness_s >= disorder_s`` therefore loses nothing.
    ``p_duplicate`` re-emits a fix (same courier, same timestamp) within
    the next ``dup_gap_events`` arrivals.  ``cycle_gap_s`` is idle event
    time between replays of the day-stream template, giving idle-state
    eviction something real to evict.
    """

    disorder_s: float = 30.0
    p_duplicate: float = 0.02
    dup_gap_events: int = 8
    cycle_gap_s: float = 3_600.0

    def __post_init__(self) -> None:
        if self.disorder_s < 0:
            raise ValueError("disorder_s must be >= 0")
        if not 0.0 <= self.p_duplicate < 1.0:
            raise ValueError("p_duplicate must be in [0, 1)")
        if self.dup_gap_events < 1:
            raise ValueError("dup_gap_events must be >= 1")
        if self.cycle_gap_s < 0:
            raise ValueError("cycle_gap_s must be >= 0")


class FixEventStream:
    """Unbounded seeded GPS-fix event stream with ground truth.

    Day streams (from :func:`build_day_streams`) are the template; the
    generator replays them forever, time-shifting each *cycle* by the
    template span plus ``cycle_gap_s``.  Within a cycle, arrival order
    is a seeded jitter of event order (disorder bounded by
    ``disorder_s``) and a seeded fraction of fixes is duplicated — so
    the ingest path's watermark, dedup, and eviction machinery is
    exercised honestly, with everything reproducible from ``seed``.

    Ground truth: :meth:`expected_trajectory` returns the exact
    per-courier trajectory a correct consumer reconstructs after
    ``n_cycles`` (running :func:`repro.trajectory.detect_stay_points`
    over it yields the reference stays the online extractor must match
    bit for bit), and every cycle's events are regenerable in isolation
    via :meth:`events_for_cycle`.
    """

    def __init__(
        self,
        day_streams: dict[tuple[str, int], Trajectory],
        seed: int = 0,
        config: EventStreamConfig | None = None,
    ) -> None:
        if not day_streams:
            raise ValueError("day_streams must not be empty")
        self.seed = int(seed)
        self.config = config or EventStreamConfig()
        # Per-courier template: day streams concatenated chronologically
        # with the same seam guard as build_day_streams, so the template
        # itself is a valid strictly-chronological trajectory.
        by_courier: dict[str, list[Trajectory]] = defaultdict(list)
        for (courier_id, _day), traj in sorted(
            day_streams.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            by_courier[courier_id].append(traj)
        self.templates: dict[str, Trajectory] = {}
        for courier_id, trajs in by_courier.items():
            lng, lat, t = (np.concatenate(c) for c in zip(*((s.lng, s.lat, s.t) for s in trajs)))
            # Seam guard: drop non-monotone overlap, each fix not later
            # than every fix before it.
            keep = np.ones(len(t), dtype=bool)
            keep[1:] = t[1:] > np.maximum.accumulate(t)[:-1]
            if keep.any():
                self.templates[courier_id] = Trajectory.from_arrays(
                    courier_id, lng[keep], lat[keep], t[keep]
                )
        self.t_min = min(float(tpl.t[0]) for tpl in self.templates.values())
        self.t_max = max(float(tpl.t[-1]) for tpl in self.templates.values())
        self.period_s = (self.t_max - self.t_min) + self.config.cycle_gap_s

    @property
    def n_couriers(self) -> int:
        return len(self.templates)

    def events_per_cycle(self) -> int:
        """Template fixes per cycle (duplicates come on top)."""
        return sum(len(tpl) for tpl in self.templates.values())

    # -- generation ------------------------------------------------------
    def events_for_cycle(self, cycle: int) -> list[GpsFix]:
        """All arrivals of one cycle, in arrival order.  Deterministic:
        ``(seed, cycle)`` fully determines the output."""
        rng = np.random.default_rng([self.seed, int(cycle)])
        shift = cycle * self.period_s
        flat: list[GpsFix] = []
        for courier_id, tpl in self.templates.items():
            flat.extend(
                GpsFix(courier_id, lng, lat, t)
                for lng, lat, t in zip(tpl.lng.tolist(), tpl.lat.tolist(), (tpl.t + shift).tolist())
            )
        # Event-time order first, then bounded arrival jitter: sorting by
        # t + U(0, disorder_s) can demote a fix past at most disorder_s
        # of newer event time.
        flat.sort(key=lambda f: (f.t, f.courier_id))
        jitter = rng.uniform(0.0, self.config.disorder_s, len(flat))
        order = np.argsort(
            np.array([f.t for f in flat]) + jitter, kind="stable"
        )
        arrivals = [flat[i] for i in order]
        if self.config.p_duplicate <= 0.0:
            return arrivals
        out: list[GpsFix] = []
        pending: list[tuple[int, GpsFix]] = []  # (emit_at_index, fix)
        for i, fix in enumerate(arrivals):
            while pending and pending[0][0] <= i:
                out.append(pending.pop(0)[1])
            out.append(fix)
            if rng.random() < self.config.p_duplicate:
                gap = int(rng.integers(1, self.config.dup_gap_events + 1))
                pending.append((i + gap, fix))
        out.extend(f for _, f in pending)
        return out

    def __iter__(self) -> Iterator[GpsFix]:
        """Unbounded: cycles forever."""
        cycle = 0
        while True:
            yield from self.events_for_cycle(cycle)
            cycle += 1

    def take(self, n: int) -> list[GpsFix]:
        """The first ``n`` arrivals of the stream."""
        out: list[GpsFix] = []
        for fix in self:
            out.append(fix)
            if len(out) >= n:
                break
        return out

    # -- ground truth ----------------------------------------------------
    def expected_trajectory(self, courier_id: str, n_cycles: int) -> Trajectory:
        """The deduplicated, event-time-ordered trajectory after
        ``n_cycles`` full cycles — the batch-parity reference."""
        tpl = self.templates[courier_id]
        shifts = np.arange(n_cycles)[:, None] * self.period_s
        return Trajectory.from_arrays(
            courier_id, np.tile(tpl.lng, n_cycles), np.tile(tpl.lat, n_cycles),
            (tpl.t + shifts).ravel(),
        )

    def expected_trajectories(self, n_cycles: int) -> dict[str, Trajectory]:
        return {
            courier_id: self.expected_trajectory(courier_id, n_cycles)
            for courier_id in self.templates
        }
