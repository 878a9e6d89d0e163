"""Run-level instrumentation shared by every pipeline stage.

A :class:`RunContext` travels through one engine run (a full fit or an
incremental update): it carries the pipeline configuration, accumulates
per-stage wall-clock timings (the Section V-F numbers), item counters
(how much work each stage actually did — the evidence that an incremental
run is O(new data)).

Timing is a thin consumer of the :mod:`repro.obs` span API: every
:meth:`RunContext.timed` block opens a tracing span (a no-op unless
tracing is configured), so the ``timings`` dict, the trace file, and the
metrics registry all describe the same measured intervals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.obs import span as obs_span
from repro.obs.prof import active_memory_profiler
from repro.obs.trace import Span


@dataclass
class StageRecord:
    """What one stage execution did: duration and volume."""

    name: str
    seconds: float
    items_in: int | None = None
    items_out: int | None = None


class RunContext:
    """Mutable state threaded through one engine run.

    ``timings`` maps ``"<stage>_s"`` to wall-clock seconds — the key
    convention every consumer (benchmarks, ``repro evaluate --timings``,
    ``repro update --timings``) relies on.  ``counters``
    holds ``"<stage>.<metric>"`` item counts.  ``records`` keeps one
    :class:`StageRecord` per stage *execution*, in execution order — the
    authoritative ordering for reports.
    """

    def __init__(self, config: Any = None, label: str = "run") -> None:
        self.config = config
        self.label = label
        self.timings: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.records: list[StageRecord] = []

    # ------------------------------------------------------------------
    @contextmanager
    def timed(self, name: str, **attributes: Any) -> Iterator[Span | None]:
        """Time a block as stage ``name`` (accumulates on repeats).

        Opens a tracing span of the same name (yielded so callers can
        attach attributes mid-flight; ``None`` when tracing is off), so
        trace durations and ``timings`` agree.
        """
        t0 = time.perf_counter()
        with obs_span(name, run=self.label, **attributes) as sp:
            try:
                yield sp
            finally:
                key = f"{name}_s"
                self.timings[key] = self.timings.get(key, 0.0) + (time.perf_counter() - t0)
                memory = active_memory_profiler()
                if memory is not None:
                    # Opt-in per-stage memory capture (--memory): one
                    # labeled tracemalloc reading per timed stage.
                    memory.snapshot(f"{self.label}:{name}")

    def count(self, stage: str, metric: str, n: int) -> None:
        """Record an item counter for a stage (accumulates on repeats)."""
        key = f"{stage}.{metric}"
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def record(
        self,
        name: str,
        seconds: float,
        items_in: int | None = None,
        items_out: int | None = None,
    ) -> StageRecord:
        """Append a :class:`StageRecord` (kept in execution order)."""
        rec = StageRecord(name, seconds, items_in, items_out)
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------
    def merge_timings(
        self,
        timings: dict[str, float],
        records: Iterable[StageRecord] = (),
    ) -> None:
        """Adopt timings produced elsewhere (e.g. shared artifacts).

        Pass the producing context's ``records`` too so the adopted stages
        keep their execution order in :meth:`timing_rows` instead of
        appearing after locally-run stages.
        """
        merged = list(records)
        if merged:
            self.records = merged + self.records
        for key, value in timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + float(value)

    def timing_rows(self) -> list[tuple[str, float]]:
        """``(stage, seconds)`` rows in execution order.

        Ordering follows ``records`` (first execution wins); timings with
        no record — e.g. merged from artifacts built elsewhere without
        records — are appended afterwards in insertion order.
        """
        rows: list[tuple[str, float]] = []
        seen: set[str] = set()
        for rec in self.records:
            if rec.name in seen:
                continue
            seen.add(rec.name)
            rows.append((rec.name, self.timings.get(f"{rec.name}_s", rec.seconds)))
        for key, value in self.timings.items():
            name = key[: -len("_s")] if key.endswith("_s") else key
            if name not in seen:
                seen.add(name)
                rows.append((name, value))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = ", ".join(f"{k}={v:.3f}" for k, v in self.timings.items())
        return f"RunContext({self.label!r}, {stages})"
