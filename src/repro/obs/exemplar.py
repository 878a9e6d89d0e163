"""OpenMetrics-style exemplars for histogram buckets.

An exemplar ties one concrete observation back to the trace and
provenance record that produced it: a latency histogram bucket stops
being an anonymous count and becomes a pivot point into the evidence
chain for a real request.  The model mirrors OpenMetrics: at most one
exemplar per bucket, the most recent observation wins.  An exemplar
passed to ``Histogram.observe`` is always stored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Exemplar",
    "EXEMPLAR_TRACE_ID_BYTES",
    "EXEMPLAR_KEY_BYTES",
]

# Fixed field widths for the shm-plane encoding (see repro.obs.shm).
# Trace ids are 32 hex chars (W3C traceparent); provenance keys are
# "<origin>:<seq:08d>" and comfortably fit 24 bytes.
EXEMPLAR_TRACE_ID_BYTES = 32
EXEMPLAR_KEY_BYTES = 24

@dataclass(frozen=True)
class Exemplar:
    """One traced observation attached to a histogram bucket."""

    value: float
    trace_id: str = ""
    provenance_key: str = ""
    ts_unix: float = 0.0

    @classmethod
    def now(
        cls,
        value: float,
        trace_id: str = "",
        provenance_key: str = "",
    ) -> "Exemplar":
        return cls(
            value=float(value),
            trace_id=str(trace_id or ""),
            provenance_key=str(provenance_key or ""),
            ts_unix=time.time(),
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "trace_id": self.trace_id,
            "provenance_key": self.provenance_key,
            "ts_unix": self.ts_unix,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Exemplar":
        return cls(
            value=float(doc.get("value", 0.0)),
            trace_id=str(doc.get("trace_id", "")),
            provenance_key=str(doc.get("provenance_key", "")),
            ts_unix=float(doc.get("ts_unix", 0.0)),
        )

    def labels_text(self) -> str:
        """OpenMetrics exemplar label set, e.g. ``{trace_id="..."}``."""

        parts = []
        if self.trace_id:
            parts.append(f'trace_id="{self.trace_id}"')
        if self.provenance_key:
            parts.append(f'provenance_key="{self.provenance_key}"')
        return "{" + ",".join(parts) + "}"


def pick_latest(
    a: Optional[Exemplar], b: Optional[Exemplar]
) -> Optional[Exemplar]:
    """Merge rule for cross-process folds: most recent exemplar wins."""

    if a is None:
        return b
    if b is None:
        return a
    return b if b.ts_unix >= a.ts_unix else a
