"""Leveled, structured events (stdlib-bridged, flight-recorded).

Library code emits *events* — named facts with structured fields — rather
than formatted strings.  Each event has two outlets: the stdlib
:mod:`logging` hierarchy (logger ``repro.<component>``, from ``info`` up),
so existing handlers, level filtering and third-party log shippers keep
working, and the always-on flight recorder ring, which a black-box dump
shows.  Without stdlib handlers attached the logging outlet is a level
check.
"""

from __future__ import annotations

import logging
from typing import Any

from .recorder import get_recorder

#: Event names that double as flight-recorder anomaly triggers: seeing
#: one of these means something a post-mortem will ask about just
#: happened, so the black box snapshots itself (when a dump dir is
#: configured).
ANOMALY_EVENTS = frozenset({"slo_violation"})

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def event(name: str, level: str = "info", component: str = "core", **fields: Any) -> None:
    """Emit one structured event.

    It goes to the stdlib logger ``repro.<component>`` when it is ``info``
    or above and that logger is enabled for its level, and always to the
    flight recorder ring (the ring is how a black-box dump can show what
    preceded an anomaly); :data:`ANOMALY_EVENTS` additionally trigger a
    dump.
    """
    levelno = LEVELS.get(level, logging.INFO)
    if levelno >= logging.INFO:
        logger = logging.getLogger(f"repro.{component}")
        if logger.isEnabledFor(levelno):
            logger.log(levelno, "%s %s", name, fields if fields else "")
    recorder = get_recorder()
    recorder.note_event(name, level=level, fields=fields)
    if name in ANOMALY_EVENTS:
        recorder.trigger(name, context={"component": component, **fields})
