"""Glue between bus, extractor, and metrics: the ingest loop.

:class:`StreamIngestor` owns the single consumer thread of a
:class:`~repro.stream.bus.StreamBus`.  Producers offer fixes through
:meth:`offer` (which folds bus shedding into the event accounting);
the consumer thread drains the bus in arrival order, runs each fix
through the :class:`~repro.stream.extractor.OnlineStayExtractor`, and
buffers emitted stays for the scheduler to drain.

Accounting is exhaustive by construction: every offered fix is counted
exactly once under its terminal outcome —

* not admitted by the bus, or displaced by ``SHED_OLDEST`` → ``shed``
  (counted at the offer edge, because only the producer sees it);
* admitted and processed → ``accepted`` / ``duplicate`` / ``late``
  (counted at the extractor edge, once per outcome for each batch the
  consumer takes off the bus).

so ``offered == accepted + duplicate + late + shed`` holds once the
consumer has finished the batch it took — with the ingestor idle (bus
empty, no batch in hand) or closed — and the stream-bench's zero-loss
gate is a simple counter identity, not a heuristic.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.stream.bus import StreamBus
from repro.stream.events import GpsFix, IngestOutcome
from repro.stream.extractor import EmittedStay, OnlineStayExtractor
from repro.stream.metrics import StreamMetrics

#: Idle couriers are evicted once every this many consumed batches.
EVICT_EVERY_N_BATCHES = 32


class StreamIngestor:
    """Single-consumer ingest loop over a bounded bus."""

    def __init__(
        self,
        bus: StreamBus,
        extractor: OnlineStayExtractor,
        metrics: StreamMetrics,
        record_fixes: bool = False,
    ) -> None:
        self.bus = bus
        self.extractor = extractor
        self.metrics = metrics
        self.record_fixes = record_fixes
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending: list[EmittedStay] = []
        self._recorded: list[GpsFix] = []
        self._max_event_t = float("-inf")
        self._batches_since_evict = 0
        self.n_offered = 0

    # -- producer edge ---------------------------------------------------
    def offer(self, fix: GpsFix, timeout_s: float | None = None) -> bool:
        """Publish one fix, folding shed outcomes into the accounting.

        Returns True if the fix was admitted (its accepted/duplicate/
        late classification happens later, on the consumer thread).
        """
        self.n_offered += 1
        result = self.bus.publish(fix, timeout_s=timeout_s)
        if not result.admitted:
            self.metrics.count_event(IngestOutcome.SHED)
        for _victim in result.shed:
            # Displaced by SHED_OLDEST: admitted once, never processed.
            self.metrics.count_event(IngestOutcome.SHED)
        return result.admitted

    # -- consumer edge ---------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("ingestor already started")
        self._thread = threading.Thread(
            target=self._run, name="stream-ingest", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            batch = self.bus.take_batch()
            if not batch:
                if self.bus.closed and len(self.bus) == 0:
                    return
                continue
            self._process(batch)

    def _process(self, batch: list[GpsFix]) -> None:
        emitted: list[EmittedStay] = []
        outcomes: Counter[IngestOutcome] = Counter()
        for fix in batch:
            outcome, stays = self.extractor.ingest(fix)
            outcomes[outcome] += 1
            if outcome is IngestOutcome.ACCEPTED:
                self._max_event_t = max(self._max_event_t, fix.t)
                if self.record_fixes:
                    self._recorded.append(fix)
            emitted.extend(stays)
        for outcome, n in outcomes.items():
            self.metrics.count_event(outcome, n)
        self._batches_since_evict += 1
        if self._batches_since_evict >= EVICT_EVERY_N_BATCHES:
            self._batches_since_evict = 0
            before = self.extractor.n_evicted
            emitted.extend(self.extractor.evict_idle(self._max_event_t))
            self.metrics.count_evictions(self.extractor.n_evicted - before)
        if emitted:
            self.metrics.count_stays(len(emitted))
            with self._lock:
                self._pending.extend(emitted)
        self.metrics.set_gauge("bus_depth", len(self.bus))
        self.metrics.set_gauge("courier_states", self.extractor.n_states)

    # -- scheduler edge --------------------------------------------------
    def drain_stays(self) -> list[EmittedStay]:
        """Take everything emitted since the last drain (FIFO order)."""
        with self._lock:
            out = self._pending
            self._pending = []
        return out

    def recorded_fixes(self) -> list[GpsFix]:
        """Accepted fixes in arrival order (``record_fixes=True`` only);
        the parity check replays these through the batch detector."""
        return list(self._recorded)

    # -- lifecycle -------------------------------------------------------
    def close(self, flush: bool = True) -> None:
        """Stop admission, drain the queue, optionally flush open windows.

        ``flush=True`` finalizes every courier as if its trajectory
        ended — this is what makes a finite replayed stream reproduce
        the batch detector's trailing-window stays.
        """
        self.bus.close()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if flush:
            emitted = self.extractor.flush_all()
            if emitted:
                self.metrics.count_stays(len(emitted))
                with self._lock:
                    self._pending.extend(emitted)
        self.metrics.set_gauge("bus_depth", len(self.bus))
        self.metrics.set_gauge("courier_states", self.extractor.n_states)


__all__ = ["StreamIngestor"]
