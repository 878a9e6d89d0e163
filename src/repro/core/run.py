"""Per-stage accounting for one DLInfMA run (the Section V-F numbers).

A :class:`RunContext` travels through one run — :func:`build_artifacts`,
:meth:`DLInfMA.fit` or :meth:`DLInfMA.update` — and every pipeline stage
runs inside :meth:`RunContext.stage`, which does all the per-stage
bookkeeping in one place: the tracing span, the ``engine_stage_seconds``
histogram, the opt-in ``--memory`` snapshot, the ``stage.complete`` debug
event and one :class:`StageRecord`.  ``counters`` holds
``"<stage>.<metric>"`` item counts, e.g. how many trips an update
extracted and how many examples it built.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs import event, get_registry
from repro.obs import span as obs_span
from repro.obs.prof import active_memory_profiler


@dataclass
class StageRecord:
    """One stage execution and its wall-clock seconds."""

    name: str
    seconds: float


class RunContext:
    """Stage records (in execution order) and item counters of one run."""

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self.records: list[StageRecord] = []
        self.counters: dict[str, int] = {}

    @property
    def timings(self) -> dict[str, float]:
        """``"<stage>_s"`` → seconds, in first-run order (repeats add up)."""
        out: dict[str, float] = {}
        for rec in self.records:
            key = f"{rec.name}_s"
            out[key] = out.get(key, 0.0) + rec.seconds
        return out

    def count(self, stage: str, metric: str, n: int) -> None:
        """Add ``n`` to the ``"<stage>.<metric>"`` counter."""
        key = f"{stage}.{metric}"
        self.counters[key] = self.counters.get(key, 0) + int(n)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Run the block as stage ``name`` and account for it once.

        A block that raises is traced (the span records the error) but not
        recorded.
        """
        t0 = time.perf_counter()
        with obs_span(name, run=self.label):
            yield
        seconds = time.perf_counter() - t0
        get_registry().histogram(
            "engine_stage_seconds", "Wall-clock seconds per engine stage execution"
        ).observe(seconds, stage=name)
        memory = active_memory_profiler()
        if memory is not None:
            memory.snapshot(f"{self.label}:{name}")
        event(
            "stage.complete", level="debug", component="engine",
            stage=name, run=self.label, seconds=seconds,
        )
        self.records.append(StageRecord(name, seconds))
