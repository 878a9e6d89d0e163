"""Leveled, structured event logging (JSON-lines, stdlib-bridged).

Library code emits *events* — named facts with structured fields — rather
than formatted strings.  Each event is one JSON object per line when a
sink file is configured, and is always forwarded through the stdlib
:mod:`logging` hierarchy (logger ``repro.<component>``), so existing
handlers, level filtering, and third-party log shippers keep working.

Like tracing, the event log defaults to the cheapest possible off state:
without a configured sink and without stdlib handlers attached, an
:func:`event` call is a level check and an early return.
"""

from __future__ import annotations

import json
import logging
import pathlib
import time
from typing import Any, Union

from repro.durable import LineAppender, read_jsonl, to_jsonable

from .recorder import get_recorder

PathLike = Union[str, pathlib.Path]

#: Event names that double as flight-recorder anomaly triggers: seeing
#: one of these means something a post-mortem will ask about just
#: happened, so the black box snapshots itself (when a dump dir is
#: configured).
ANOMALY_EVENTS = frozenset({"slo_violation"})

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_ROOT_LOGGER = "repro"


class EventLog:
    """Writes structured events to an optional JSON-lines sink + stdlib."""

    def __init__(self, path: PathLike | None = None, level: str = "info") -> None:
        self.level = LEVELS[level]
        self._sink = LineAppender(path) if path is not None else None

    def emit(self, level: str, event: str, component: str = "core", **fields: Any) -> None:
        levelno = LEVELS.get(level, 20)
        if levelno < self.level and self._sink is None:
            return
        logger = logging.getLogger(f"{_ROOT_LOGGER}.{component}")
        if logger.isEnabledFor(levelno):
            logger.log(levelno, "%s %s", event, fields if fields else "")
        if self._sink is None or levelno < self.level:
            return
        record = {
            "ts_unix": time.time(),
            "level": level,
            "component": component,
            "event": event,
        }
        record.update({k: to_jsonable(v) for k, v in fields.items()})
        self._sink.append(json.dumps(record, separators=(",", ":")))

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


_EVENT_LOG = EventLog()


def configure_events(path: PathLike | None = None, level: str = "info") -> EventLog:
    """Install the global event log (optionally sinking to ``path``)."""
    global _EVENT_LOG
    _EVENT_LOG.close()
    _EVENT_LOG = EventLog(path, level)
    return _EVENT_LOG


def get_event_log() -> EventLog:
    return _EVENT_LOG


def event(name: str, level: str = "info", component: str = "core", **fields: Any) -> None:
    """Emit one structured event through the global log.

    Every event also lands in the always-on flight recorder ring (even
    with no sink configured — the ring is how a black-box dump can show
    what preceded an anomaly); :data:`ANOMALY_EVENTS` additionally
    trigger a dump.
    """
    _EVENT_LOG.emit(level, name, component=component, **fields)
    recorder = get_recorder()
    recorder.note_event(name, level=level, fields=fields)
    if name in ANOMALY_EVENTS:
        recorder.trigger(name, context={"component": component, **fields})


def read_events(path: PathLike) -> list[dict[str, Any]]:
    """Parse a JSON-lines event file back into dicts (file order),
    skipping a line a crash truncated (see :func:`repro.durable.read_jsonl`)."""
    events, _ = read_jsonl(path)
    return events
