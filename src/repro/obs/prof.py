"""Sampling wall-clock profiler and opt-in memory snapshots.

The profiler answers "where does the time go?" in production without
touching the profiled code: a dedicated daemon thread wakes at a fixed
frequency (100 Hz by default), walks every live thread's stack via
:func:`sys._current_frames`, and counts collapsed stacks.  No signals
(so it works off the main thread and under the serve tier's worker
pools), no per-call hooks (so overhead is bounded by the sampling rate
rather than the call rate — a few percent at 100 Hz), and no
dependencies.  Results export as collapsed-stack text (flamegraph.pl /
speedscope both ingest it) and as a speedscope JSON document.

Memory is the other half: :class:`MemoryProfiler` wraps
:mod:`tracemalloc` behind the same opt-in, snapshot-labeled surface.  The
pipeline's :meth:`~repro.core.run.RunContext.stage` consults the active
global memory profiler after every stage, so ``--memory`` on the
CLI yields a per-stage current/peak/top-allocations report with zero
plumbing through the pipeline.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Union

from repro.durable import write_text

PathLike = Union[str, pathlib.Path]

#: Default sampling frequency (samples per second).
DEFAULT_HZ = 100.0

#: Stacks deeper than this are truncated at the root end.
MAX_STACK_DEPTH = 128


def _format_frame(frame: Any) -> str:
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


@dataclass
class StackProfile:
    """What a profiling run captured: weighted collapsed stacks.

    ``samples`` maps a root-first frame tuple to the number of ticks it
    was observed; multiplying by ``interval_s`` converts to seconds.
    """

    hz: float
    duration_s: float = 0.0
    n_ticks: int = 0
    samples: dict[tuple[str, ...], int] = field(default_factory=dict)

    @property
    def interval_s(self) -> float:
        return 1.0 / self.hz if self.hz > 0 else 0.0

    def top(self, n: int = 15) -> list[tuple[str, float, float]]:
        """``(frame, self_seconds, total_seconds)`` rows, heaviest first.

        *Self* counts ticks where the frame was the leaf; *total* counts
        ticks where it appeared anywhere in the stack.
        """
        self_ticks: dict[str, int] = {}
        total_ticks: dict[str, int] = {}
        for stack, count in self.samples.items():
            if not stack:
                continue
            self_ticks[stack[-1]] = self_ticks.get(stack[-1], 0) + count
            for frame in set(stack):
                total_ticks[frame] = total_ticks.get(frame, 0) + count
        rows = [
            (frame, self_ticks.get(frame, 0) * self.interval_s,
             ticks * self.interval_s)
            for frame, ticks in total_ticks.items()
        ]
        rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
        return rows[:n]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_collapsed(self) -> str:
        """Collapsed-stack text: ``root;child;leaf <ticks>`` per line."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.samples.items())
            if stack
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro") -> dict[str, Any]:
        """A speedscope ``sampled``-type profile document."""
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        sample_rows: list[list[int]] = []
        weights: list[float] = []
        for stack, count in sorted(self.samples.items()):
            row = []
            for frame in stack:
                idx = frame_index.get(frame)
                if idx is None:
                    idx = frame_index[frame] = len(frames)
                    frames.append({"name": frame})
                row.append(idx)
            sample_rows.append(row)
            weights.append(count * self.interval_s)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "activeProfileIndex": 0,
            "exporter": "repro.obs.prof",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": total,
                    "samples": sample_rows,
                    "weights": weights,
                }
            ],
        }

    def save(self, path: PathLike, name: str = "repro") -> pathlib.Path:
        """Write the profile — collapsed text for ``.txt``/``.collapsed``
        suffixes, speedscope JSON otherwise."""
        path = pathlib.Path(path)
        if path.suffix in (".txt", ".collapsed"):
            return write_text(path, self.to_collapsed())
        return write_text(path, json.dumps(self.to_speedscope(name)) + "\n")


class SamplingProfiler:
    """Signal-free sampling profiler driven by a dedicated thread.

    .. code-block:: python

        profiler = SamplingProfiler(hz=100).start()
        ...  # workload
        profile = profiler.stop()
        profile.save("run.speedscope.json")

    Every live thread except the sampler itself is walked at each tick;
    stacks from all threads are merged (wall-clock semantics: a stack
    observed on two threads simultaneously counts twice).
    """

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = MAX_STACK_DEPTH) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be > 0: {hz}")
        self.hz = float(hz)
        self.max_depth = max_depth
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._counts: dict[tuple[str, ...], int] = {}
        self._n_ticks = 0
        self._t0 = 0.0
        self._duration = 0.0

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop_event.clear()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> StackProfile:
        if self._thread is None:
            raise RuntimeError("profiler is not running")
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        self._duration = time.perf_counter() - self._t0
        return self.profile()

    def profile(self) -> StackProfile:
        """The samples collected so far (complete after :meth:`stop`)."""
        return StackProfile(
            hz=self.hz,
            duration_s=self._duration or (time.perf_counter() - self._t0),
            n_ticks=self._n_ticks,
            samples=dict(self._counts),
        )

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        if self._thread is not None:
            self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        next_tick = time.perf_counter() + interval
        while not self._stop_event.wait(max(0.0, next_tick - time.perf_counter())):
            next_tick += interval
            self._sample(own_ident)
            # If we fell behind (a long GC pause, a busy box), skip the
            # missed ticks rather than bursting to catch up.
            now = time.perf_counter()
            if next_tick < now:
                next_tick = now + interval

    def _sample(self, own_ident: int) -> None:
        frames = sys._current_frames()
        self._n_ticks += 1
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack: list[str] = []
            f = frame
            while f is not None and len(stack) < self.max_depth:
                stack.append(_format_frame(f))
                f = f.f_back
            stack.reverse()
            key = tuple(stack)
            self._counts[key] = self._counts.get(key, 0) + 1


# ----------------------------------------------------------------------
# Memory snapshots (tracemalloc)
# ----------------------------------------------------------------------
@dataclass
class MemorySnapshot:
    """One labeled point-in-time memory reading."""

    label: str
    t_s: float                       # seconds since profiler start
    current_bytes: int
    peak_bytes: int                  # peak since the previous snapshot
    top: list[tuple[str, int, int]]  # (file:line, size_bytes, n_blocks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "t_s": self.t_s,
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "top": [list(row) for row in self.top],
        }


class MemoryProfiler:
    """Opt-in :mod:`tracemalloc` wrapper producing labeled snapshots.

    ``snapshot(label)`` records current/peak traced memory (peak is reset
    per snapshot, so each reading covers the interval since the previous
    one) plus the top allocation sites.  If tracemalloc was already
    tracing when :meth:`start` ran, :meth:`stop` leaves it running.
    """

    def __init__(self, top_n: int = 10, trace_frames: int = 1) -> None:
        self.top_n = top_n
        self.trace_frames = trace_frames
        self.snapshots: list[MemorySnapshot] = []
        self._t0 = 0.0
        self._owns_tracing = False
        self._started = False

    def start(self) -> "MemoryProfiler":
        if self._started:
            raise RuntimeError("memory profiler already started")
        self._started = True
        self._t0 = time.perf_counter()
        if not tracemalloc.is_tracing():
            tracemalloc.start(self.trace_frames)
            self._owns_tracing = True
        tracemalloc.reset_peak()
        return self

    def snapshot(self, label: str) -> MemorySnapshot:
        if not self._started:
            raise RuntimeError("memory profiler is not started")
        current, peak = tracemalloc.get_traced_memory()
        top: list[tuple[str, int, int]] = []
        if self.top_n > 0:
            stats = tracemalloc.take_snapshot().statistics("lineno")[: self.top_n]
            top = [
                (
                    f"{os.path.basename(stat.traceback[0].filename)}:"
                    f"{stat.traceback[0].lineno}",
                    stat.size,
                    stat.count,
                )
                for stat in stats
            ]
        snap = MemorySnapshot(
            label=label,
            t_s=time.perf_counter() - self._t0,
            current_bytes=current,
            peak_bytes=peak,
            top=top,
        )
        self.snapshots.append(snap)
        tracemalloc.reset_peak()
        return snap

    def stop(self) -> list[MemorySnapshot]:
        if not self._started:
            return list(self.snapshots)
        self._started = False
        if self._owns_tracing:
            tracemalloc.stop()
            self._owns_tracing = False
        return list(self.snapshots)

    def report(self) -> dict[str, Any]:
        """JSON-safe document of every snapshot."""
        return {
            "top_n": self.top_n,
            "snapshots": [snap.to_dict() for snap in self.snapshots],
        }

    def save(self, path: PathLike) -> pathlib.Path:
        return write_text(path, json.dumps(self.report(), indent=2) + "\n")


# ----------------------------------------------------------------------
# Global memory-profiler switchboard (mirrors configure_tracing)
# ----------------------------------------------------------------------
_MEMORY: MemoryProfiler | None = None


def configure_memory_profiling(top_n: int = 10, trace_frames: int = 1) -> MemoryProfiler:
    """Install (and start) a global memory profiler.

    While active, every pipeline stage run through
    :meth:`~repro.core.run.RunContext.stage` appends a labeled
    snapshot, giving per-stage memory deltas without plumbing.
    """
    global _MEMORY
    disable_memory_profiling()
    _MEMORY = MemoryProfiler(top_n=top_n, trace_frames=trace_frames).start()
    return _MEMORY


def disable_memory_profiling() -> MemoryProfiler | None:
    """Stop and uninstall the global memory profiler (returns it)."""
    global _MEMORY
    previous = _MEMORY
    if previous is not None:
        previous.stop()
    _MEMORY = None
    return previous


def active_memory_profiler() -> MemoryProfiler | None:
    """The installed global memory profiler, or None."""
    return _MEMORY
