"""Flight recorder: an always-on black box for the serving/stream tier.

A bounded in-memory ring continuously absorbs the most recent spans and
events at near-zero cost (one deque append under a lock).  When
something goes wrong — a
:class:`~repro.stream.scheduler.RefreshScheduler` gate refusal, an
``slo_violation`` event, a worker crash — the
recorder :meth:`~FlightRecorder.trigger`\\ s and writes an **atomic
black-box dump** through :func:`repro.durable.atomic_write`, so a reader
never sees a torn file.

The dump bundles everything a post-mortem needs in one artifact: the
ring contents, the merged fleet metrics registry, the SLO verdicts at
trigger time, and the implicated provenance records.  ``repro blackbox
<dump>`` renders it.

``max_dumps`` caps disk usage — a flapping gate cannot fill the volume.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import deque
from typing import Any, Mapping, Optional, Union

from repro.durable import to_jsonable, write_text

PathLike = Union[str, pathlib.Path]

BLACKBOX_VERSION = 1

__all__ = [
    "BLACKBOX_VERSION",
    "FlightRecorder",
    "get_recorder",
    "configure_recorder",
    "reset_recorder",
    "load_blackbox",
    "render_blackbox",
]


class FlightRecorder:
    """Bounded ring of recent telemetry + atomic anomaly dumps."""

    def __init__(
        self,
        capacity: int = 1024,
        dump_dir: PathLike | None = None,
        max_dumps: int = 16,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.dump_dir = pathlib.Path(dump_dir) if dump_dir is not None else None
        self.max_dumps = int(max_dumps)
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._dump_seq = 0

    # ------------------------------------------------------------------
    # Recording (hot path: one append under a lock)
    # ------------------------------------------------------------------
    def _note(self, entry: dict[str, Any]) -> None:
        entry.setdefault("ts_unix", time.time())
        with self._lock:
            self._ring.append(entry)

    def note_span(self, span_doc: Mapping[str, Any]) -> None:
        self._note(
            {
                "kind": "span",
                "name": span_doc.get("name", ""),
                "trace_id": span_doc.get("trace_id", ""),
                "duration_s": span_doc.get("duration_s"),
                "error": span_doc.get("error"),
            }
        )

    def note_event(
        self, name: str, level: str = "info", fields: Mapping[str, Any] | None = None
    ) -> None:
        self._note(
            {
                "kind": "event",
                "name": str(name),
                "level": str(level),
                "fields": dict(fields or {}),
            }
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """Ring contents, oldest first."""

        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------
    # The black box
    # ------------------------------------------------------------------
    def trigger(
        self,
        trigger: str,
        context: Mapping[str, Any] | None = None,
        registry_doc: Mapping[str, Any] | None = None,
        slo: Any = None,
        provenance: Any = None,
    ) -> Optional[pathlib.Path]:
        """Record an anomaly; dump the black box when a dir is configured.

        Returns the dump path, or ``None`` when no ``dump_dir`` is set
        or the ``max_dumps`` cap was reached (the ring still notes it).
        """

        self.note_event(f"flightrecorder_{trigger}", level="warning",
                        fields=dict(context or {}))
        if self.dump_dir is None:
            return None
        with self._lock:
            if self._dump_seq >= self.max_dumps:
                return None
            seq = self._dump_seq
            self._dump_seq += 1
        payload = {
            "version": BLACKBOX_VERSION,
            "trigger": str(trigger),
            "ts_unix": time.time(),
            "context": dict(context or {}),
            "ring": self.entries(),
            "registry": registry_doc,
            "slo": slo,
            "provenance": provenance,
        }
        path = self.dump_dir / f"blackbox-{trigger}-{seq:04d}.json"
        return write_text(
            path, json.dumps(to_jsonable(payload), sort_keys=True) + "\n"
        )


# ----------------------------------------------------------------------
# Global default recorder (always on)
# ----------------------------------------------------------------------
_RECORDER: FlightRecorder | None = None
_RECORDER_LOCK = threading.Lock()


def get_recorder() -> FlightRecorder:
    global _RECORDER
    with _RECORDER_LOCK:
        if _RECORDER is None:
            _RECORDER = FlightRecorder()
        return _RECORDER


def configure_recorder(
    capacity: int = 1024,
    dump_dir: PathLike | None = None,
    max_dumps: int = 16,
) -> FlightRecorder:
    """Install a fresh global recorder (e.g. with a dump dir) and return it."""

    global _RECORDER
    recorder = FlightRecorder(
        capacity=capacity, dump_dir=dump_dir, max_dumps=max_dumps
    )
    with _RECORDER_LOCK:
        _RECORDER = recorder
    return recorder


def reset_recorder() -> None:
    global _RECORDER
    with _RECORDER_LOCK:
        _RECORDER = None


# ----------------------------------------------------------------------
# Reading / rendering (``repro blackbox``)
# ----------------------------------------------------------------------
def load_blackbox(path: PathLike) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a black-box dump")
    return payload


def render_blackbox(payload: Mapping[str, Any]) -> str:
    """Human rendering of a dump: header, SLO verdicts, provenance, ring."""

    lines = [
        f"black box  trigger={payload.get('trigger', '?')}  "
        f"version={payload.get('version', '?')}",
    ]
    ts = payload.get("ts_unix")
    if isinstance(ts, (int, float)) and ts:
        lines.append(
            "  at         "
            + time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))
            + " UTC"
        )
    context = payload.get("context")
    if isinstance(context, Mapping) and context:
        lines.append("  context:")
        for key in sorted(context):
            lines.append(f"    {key:<24} {context[key]}")
    slo = payload.get("slo")
    if isinstance(slo, Mapping) and slo.get("results"):
        lines.append("  slo verdicts:")
        for result in slo["results"]:
            if not isinstance(result, Mapping):
                continue
            ok = result.get("ok", result.get("healthy"))
            status = "OK " if ok else "VIOLATED"
            lines.append(
                f"    {status:<9} {result.get('name', '?')}  "
                f"value={result.get('value', '?')}  "
                f"objective={result.get('objective', '?')}"
            )
    provenance = payload.get("provenance")
    if isinstance(provenance, list) and provenance:
        lines.append(f"  implicated provenance ({len(provenance)}):")
        for doc in provenance[:10]:
            if not isinstance(doc, Mapping):
                continue
            lines.append(
                f"    {doc.get('key', '?')}  address={doc.get('address_id', '?')}  "
                f"status={doc.get('status', '?')}  "
                f"snapshot=v{doc.get('snapshot_version', '?')}"
            )
        if len(provenance) > 10:
            lines.append(f"    ... {len(provenance) - 10} more")
    registry = payload.get("registry")
    if isinstance(registry, Mapping):
        metrics = registry.get("metrics")
        n = len(metrics) if isinstance(metrics, list) else 0
        lines.append(f"  fleet registry: {n} metric families")
    ring = payload.get("ring")
    if isinstance(ring, list):
        lines.append(f"  ring ({len(ring)} entries, newest last):")
        for entry in ring[-20:]:
            if not isinstance(entry, Mapping):
                continue
            kind = entry.get("kind", "?")
            if kind == "span":
                dur = entry.get("duration_s")
                dur_s = f"{dur:.6f}s" if isinstance(dur, (int, float)) else "-"
                detail = f"{entry.get('name', '?')} {dur_s}"
                if entry.get("error"):
                    detail += f" error={entry['error']}"
            elif kind == "event":
                detail = f"{entry.get('level', '?')}: {entry.get('name', '?')}"
            else:
                detail = str(entry)
            lines.append(f"    [{kind:<10}] {detail}")
    return "\n".join(lines)
