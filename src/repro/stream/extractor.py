"""Online windowed stay-point extraction over an unbounded fix stream.

Stays are emitted incrementally, per courier, by the batch kernel of
:func:`repro.trajectory.detect_stay_points` (Definition 4 / Li et al.
2008); the stream adds only what an unbounded, disordered feed needs:

* **Reorder buffer + watermark.**  Fixes may arrive out of order within
  a bounded lateness ``lateness_s``.  Per courier, arriving fixes sit in
  a small sorted buffer; the courier's watermark is
  ``max_event_time_seen - lateness_s``, and only fixes at or behind the
  watermark are released, in event-time order.  A fix arriving behind an
  already-advanced watermark is *late* (dropped, counted); a fix whose
  ``(courier, t)`` was already seen is a *duplicate* (dropped, counted,
  not loss).
* **One kernel.**  Released fixes are projected into the plane anchored
  at the courier's first in-order fix (the batch anchor) and appended to
  the courier's open fixes.  Each watermark advance runs
  :func:`~repro.trajectory.stay_spans` over them with ``final=False``:
  windows closed by a fix outside the radius are decided and emitted, the
  window still open at the end is kept, and the fixes before its anchor
  are dropped.  The open window's fixes are known to lie within the
  radius of its anchor, so the next call resumes the anchor's scan after
  them: each open fix is checked against its anchor once, not on every
  release.  Flush and eviction run the kernel with ``final=True``, as a
  batch trajectory ending there.  Centroids come from the same
  :func:`~repro.trajectory.stays_of_spans`, so replaying a finite stream
  reproduces :func:`detect_stay_points` bit for bit (the parity tests
  assert equality, not closeness).
* **Idle eviction.**  A courier silent for ``idle_timeout_s`` of event
  time is flushed and its state freed, bounding memory by the *active*
  courier count, not the all-time one.  A later fix from an evicted
  courier starts a fresh state; parity with a single batch trajectory
  therefore holds whenever the courier's largest silent gap is shorter
  than ``idle_timeout_s``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter

from repro.geo import LocalProjection, Point
from repro.stream.events import GpsFix, IngestOutcome
from repro.trajectory import StayPoint, StayPointConfig, stay_spans, stays_of_spans

#: Minimum recently-flushed timestamps retained per courier for
#: duplicate detection, regardless of the lateness horizon.
_RECENT_MIN = 64

_event_t = attrgetter("t")


@dataclass(frozen=True)
class OnlineExtractorConfig:
    """Thresholds for :class:`OnlineStayExtractor`.

    ``lateness_s`` is the out-of-order tolerance (watermark distance);
    ``idle_timeout_s`` bounds courier-state lifetime in *event* time.
    """

    stay: StayPointConfig = field(default_factory=StayPointConfig)
    lateness_s: float = 60.0
    idle_timeout_s: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.lateness_s < 0:
            raise ValueError("lateness_s must be >= 0")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")


@dataclass(frozen=True)
class EmittedStay:
    """A stay plus the arrival wall-clock anchor for freshness lag.

    ``wall_t`` is the *latest* arrival time among the fixes the stay
    contains — the earliest instant the pipeline could possibly have
    known the stay, so ``servable_wall - wall_t`` honestly charges the
    watermark dwell and every downstream hop to the freshness budget.
    """

    stay: StayPoint
    wall_t: float


class _CourierState:
    """Reorder buffer, projection, and open fixes of one courier."""

    __slots__ = (
        "courier_id", "projection", "pending", "pending_ts",
        "xs", "ys", "ts", "walls", "scanned",
        "max_t", "last_flushed_t", "recent_flushed",
    )

    def __init__(self, courier_id: str) -> None:
        self.courier_id = courier_id
        self.projection: LocalProjection | None = None
        #: Not-yet-released fixes, kept sorted by event time.
        self.pending: list[GpsFix] = []
        self.pending_ts: set[float] = set()
        #: Released fixes from the open window's anchor on: projected
        #: coordinates, event times and arrival wall clocks.
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.ts: list[float] = []
        self.walls: list[float] = []
        #: Open fixes before this index lie within d_max of the anchor.
        self.scanned = 0
        self.max_t = float("-inf")
        self.last_flushed_t = float("-inf")
        #: Recently released event times, for duplicate-vs-late telling.
        self.recent_flushed: list[float] = []


class OnlineStayExtractor:
    """Per-courier incremental stay-point detection with watermarks."""

    def __init__(
        self,
        config: OnlineExtractorConfig | None = None,
        on_stay=None,
    ) -> None:
        self.config = config or OnlineExtractorConfig()
        self.on_stay = on_stay
        self._states: dict[str, _CourierState] = {}
        self.n_evicted = 0

    # -- introspection ---------------------------------------------------
    @property
    def n_states(self) -> int:
        return len(self._states)

    # -- ingest ----------------------------------------------------------
    def ingest(self, fix: GpsFix) -> tuple[IngestOutcome, list[EmittedStay]]:
        """Classify one fix and return any stays its arrival finalized."""
        state = self._states.get(fix.courier_id)
        if state is None:
            state = self._states[fix.courier_id] = _CourierState(
                fix.courier_id
            )
        if fix.t in state.pending_ts:
            return IngestOutcome.DUPLICATE, []
        if fix.t <= state.last_flushed_t:
            if fix.t in state.recent_flushed:
                return IngestOutcome.DUPLICATE, []
            return IngestOutcome.LATE, []
        bisect.insort(state.pending, fix, key=_event_t)
        state.pending_ts.add(fix.t)
        state.max_t = max(state.max_t, fix.t)
        emitted = self._flush_watermarked(state)
        return IngestOutcome.ACCEPTED, emitted

    def _flush_watermarked(self, state: _CourierState) -> list[EmittedStay]:
        """Release fixes at or behind the watermark to the kernel."""
        watermark = state.max_t - self.config.lateness_s
        emitted = self._release(state, watermark, final=False)
        # Prune the duplicate-detection memory to the lateness horizon,
        # but always keep a fixed tail: a duplicate re-sent a few events
        # after its original can straddle an arbitrarily large event-time
        # jump (end of a courier's day), and it must still read as
        # DUPLICATE, not LATE.
        horizon = watermark - self.config.lateness_s
        if state.recent_flushed and state.recent_flushed[0] < horizon:
            keep = bisect.bisect_left(state.recent_flushed, horizon)
            keep = min(keep, max(0, len(state.recent_flushed) - _RECENT_MIN))
            del state.recent_flushed[:keep]
        return emitted

    def _release(
        self, state: _CourierState, upto: float, final: bool
    ) -> list[EmittedStay]:
        """Move buffered fixes at or behind ``upto`` to the open fixes and
        run the stay kernel over them."""
        k = bisect.bisect_right(state.pending, upto, key=_event_t)
        if k == 0 and not final:
            return []
        for fix in state.pending[:k]:
            if state.projection is None:
                # Same plane as the batch path: anchored at the trajectory's
                # first fix.  Scalar to_xy runs the identical float64 ops as
                # the vectorized call, so coordinates match bit for bit.
                state.projection = LocalProjection(Point(fix.lng, fix.lat))
            x, y = state.projection.to_xy(fix.lng, fix.lat)
            state.xs.append(x)
            state.ys.append(y)
            state.ts.append(float(fix.t))
            state.walls.append(fix.wall_t)
            state.pending_ts.discard(fix.t)
            state.recent_flushed.append(fix.t)
            state.last_flushed_t = fix.t
        del state.pending[:k]

        spans, resume = stay_spans(
            state.xs, state.ys, state.ts, self.config.stay, final,
            state.scanned,
        )
        state.scanned = len(state.ts) - resume  # 0 after a final call
        if not spans and not resume:
            return []
        stays = stays_of_spans(
            spans, state.xs, state.ys, state.ts, state.projection,
            state.courier_id,
        )
        emitted = [
            EmittedStay(stay, max(state.walls[i:j]))
            for stay, (i, j) in zip(stays, spans)
        ]
        for column in (state.xs, state.ys, state.ts, state.walls):
            del column[:resume]
        if self.on_stay is not None:
            for record in emitted:
                self.on_stay(record)
        return emitted

    # -- flush / eviction -----------------------------------------------
    def _finalize(self, state: _CourierState) -> list[EmittedStay]:
        """Drain a courier as if its trajectory ended here."""
        return self._release(state, float("inf"), final=True)

    def flush(self, courier_id: str) -> list[EmittedStay]:
        """Finalize one courier's stream, keeping an empty state behind."""
        state = self._states.get(courier_id)
        if state is None:
            return []
        return self._finalize(state)

    def flush_all(self) -> list[EmittedStay]:
        """Finalize every courier (stream end / shutdown)."""
        emitted: list[EmittedStay] = []
        for state in self._states.values():
            emitted.extend(self._finalize(state))
        return emitted

    def evict_idle(self, now_event_t: float) -> list[EmittedStay]:
        """Finalize and drop couriers idle past ``idle_timeout_s``.

        ``now_event_t`` is the stream's global event-time high mark; a
        courier whose newest fix is older than the timeout has its open
        window closed (stays emitted) and its state freed.
        """
        cutoff = now_event_t - self.config.idle_timeout_s
        emitted: list[EmittedStay] = []
        for courier_id in [
            cid for cid, s in self._states.items() if s.max_t < cutoff
        ]:
            emitted.extend(self._finalize(self._states.pop(courier_id)))
            self.n_evicted += 1
        return emitted


__all__ = [
    "EmittedStay",
    "OnlineExtractorConfig",
    "OnlineStayExtractor",
]
