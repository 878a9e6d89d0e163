"""Hierarchical tracing spans emitted as JSON-lines trace files.

A :class:`Span` covers one timed operation (a pipeline stage, a model fit,
a store query).  Spans nest through a :mod:`contextvars` variable, so the
parent/child structure follows the call stack without any explicit
plumbing.  Finished spans are appended to a JSON-lines sink, one object
per line, carrying ids, wall-clock bounds, attributes, and captured
exceptions; the file reconstructs into a span tree via
:func:`read_trace` / :func:`span_tree`.

Tracing is *off* by default: :func:`span` is a near-free no-op until
:func:`configure_tracing` installs a tracer, so hot paths can be
instrumented unconditionally.
"""

from __future__ import annotations

import atexit
import contextvars
import json
import pathlib
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Union

from repro.durable import LineAppender, read_jsonl, to_jsonable, write_jsonl

from .health import percentile
from .recorder import get_recorder

PathLike = Union[str, pathlib.Path]

_CURRENT_SPAN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One node of a trace: a named, timed, attributed operation."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "end_unix",
        "_t0",
        "duration_s",
        "attributes",
        "status",
        "error",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str | None, attributes: dict) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_unix = time.time()
        self.end_unix: float | None = None
        self._t0 = time.perf_counter()
        self.duration_s: float | None = None
        self.attributes: dict[str, Any] = dict(attributes)
        self.status = "ok"
        self.error: dict[str, str] | None = None

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute."""
        self.attributes[key] = value

    def finish(self, exc: BaseException | None = None) -> None:
        self.duration_s = time.perf_counter() - self._t0
        self.end_unix = time.time()
        if exc is not None:
            self.status = "error"
            self.error = {"type": type(exc).__name__, "message": str(exc)}

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "end_unix": self.end_unix,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": to_jsonable(self.attributes),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class JsonlTraceSink(LineAppender):
    """Appends finished spans to a JSON-lines file (one object per line)."""

    def write(self, span: Span) -> None:
        self.append(json.dumps(span.to_dict(), separators=(",", ":")))


#: Sentinel: inherit the parent span from the ambient contextvar.
INHERIT = object()


class RemoteSpanContext:
    """A span handle that crossed a process boundary as a traceparent.

    Carries just the identity a child span needs (`trace_id`,
    `span_id`) — :meth:`Tracer.start` duck-types its ``parent``
    argument, so a remote context parents exactly like a live
    :class:`Span`.  ``sampled`` propagates the head-sampling decision.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled


def make_traceparent(span: Any, sampled: bool = True) -> str:
    """Serialize a span (or remote context) as a W3C-style traceparent:
    ``00-<trace_id>-<span_id>-<flags>`` where flags bit 0 is "sampled"."""
    return f"00-{span.trace_id}-{span.span_id}-{1 if sampled else 0:02x}"


def parse_traceparent(header: Any) -> RemoteSpanContext | None:
    """Decode a traceparent into a :class:`RemoteSpanContext`.

    Tolerant by design: garbage, ``None``, unknown versions, or malformed
    fields return ``None`` (the span simply starts a fresh trace) rather
    than failing the request carrying them.
    """
    if not isinstance(header, str):
        return None
    parts = header.split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if version != "00" or not trace_id or not span_id:
        return None
    try:
        sampled = bool(int(flags, 16) & 1)
    except ValueError:
        return None
    return RemoteSpanContext(trace_id, span_id, sampled)


class Tracer:
    """Creates and finishes spans, handing them to a sink."""

    def __init__(self, sink: JsonlTraceSink) -> None:
        self.sink = sink

    def start(self, name: str, attributes: dict, parent: Any = INHERIT) -> Span:
        if parent is INHERIT:
            parent = _CURRENT_SPAN.get()
        trace_id = parent.trace_id if parent is not None else _new_id()
        parent_id = parent.span_id if parent is not None else None
        return Span(name, trace_id, parent_id, attributes)

    def finish(self, span: Span, exc: BaseException | None = None) -> None:
        span.finish(exc)
        self.sink.write(span)
        # Feed the always-on flight recorder (bounded ring, no I/O).
        get_recorder().note_span(
            {
                "name": span.name,
                "trace_id": span.trace_id,
                "duration_s": span.duration_s,
                "error": span.error["type"] if span.error else None,
            }
        )


_TRACER: Tracer | None = None
_ATEXIT_REGISTERED = False


def _flush_at_exit() -> None:
    # Short-lived workers (and fork children that re-configure tracing)
    # must not drop their final spans on interpreter teardown.
    tracer = _TRACER
    if tracer is not None:
        tracer.sink.close()


def configure_tracing(path: PathLike) -> Tracer:
    """Install a global tracer writing JSON-lines spans to ``path``."""
    global _TRACER, _ATEXIT_REGISTERED
    disable_tracing()
    _TRACER = Tracer(JsonlTraceSink(path))
    if not _ATEXIT_REGISTERED:
        atexit.register(_flush_at_exit)
        _ATEXIT_REGISTERED = True
    return _TRACER


def disable_tracing() -> None:
    """Tear the global tracer down; :func:`span` reverts to a no-op."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.sink.close()
    _TRACER = None


def tracing_enabled() -> bool:
    return _TRACER is not None


def current_trace_path() -> pathlib.Path | None:
    """The active tracer's output file, or None when tracing is off."""
    return _TRACER.sink.path if _TRACER is not None else None


def flush_tracing() -> None:
    """Force buffered spans of the active tracer to disk (no-op when off)."""
    if _TRACER is not None:
        _TRACER.sink.flush()


def current_span() -> Span | None:
    """The innermost active span, or None outside any span / when off."""
    return _CURRENT_SPAN.get()


@contextmanager
def span(name: str, parent: Any = INHERIT, **attributes: Any) -> Iterator[Span | None]:
    """Open a child span of the current one for the duration of the block.

    Yields the :class:`Span` (so callers may ``.set()`` attributes mid
    flight) or ``None`` when tracing is disabled — the disabled path costs
    one global read and no allocation beyond the generator.

    ``parent`` overrides the ambient contextvar parent.  Contextvars do
    not cross thread boundaries, so work handed to a worker pool would
    otherwise start a *new* trace: capture :func:`current_span` at submit
    time and pass it here to re-parent the span under the submitter
    (``parent=None`` explicitly forces a root span).
    """
    tracer = _TRACER
    if tracer is None:
        yield None
        return
    sp = tracer.start(name, attributes, parent=parent)
    token = _CURRENT_SPAN.set(sp)
    try:
        yield sp
    except BaseException as exc:
        tracer.finish(sp, exc)
        raise
    else:
        tracer.finish(sp)
    finally:
        _CURRENT_SPAN.reset(token)


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
def read_trace_stats(path: PathLike) -> tuple[list[dict[str, Any]], int]:
    """Parse a JSON-lines trace file -> ``(spans, n_torn_lines)``.

    A worker killed mid-flush leaves a truncated final line; the reader
    skips such torn lines and counts them instead of raising (see
    :func:`repro.durable.read_jsonl`).
    """
    return read_jsonl(path)


def read_trace(path: PathLike) -> list[dict[str, Any]]:
    """Parse a JSON-lines trace file into span dicts (file order),
    tolerating a torn tail (see :func:`read_trace_stats`)."""
    spans, _ = read_trace_stats(path)
    return spans


def span_tree(spans: list[dict[str, Any]]) -> dict[str | None, list[dict[str, Any]]]:
    """Index spans by ``parent_id`` (roots under ``None``)."""
    children: dict[str | None, list[dict[str, Any]]] = {}
    for sp in spans:
        children.setdefault(sp.get("parent_id"), []).append(sp)
    return children


# ----------------------------------------------------------------------
# Cross-process collection: merge per-worker files, tail-based sampling
# ----------------------------------------------------------------------
def merge_traces(
    paths: Iterable[PathLike],
    out: PathLike,
    p99_hint: float | None = None,
) -> dict[str, Any]:
    """Merge per-process span files into one trace with tail sampling.

    Spans from every readable input are grouped by ``trace_id``; a trace
    is *kept* when any of its spans errored, when its root span is slower
    than the p99 estimate over all root durations (``p99_hint`` overrides
    the estimate — useful for a router that already tracks latency), or
    when any span carries a truthy ``sampled`` attribute (the head
    decision the router stamped on the route span).  Kept spans are
    written to ``out`` ordered by start time, and a stats dict describes
    what the sampler did — tail-based sampling must be auditable or the
    missing traces look like lost data.  ``out`` is replaced atomically.
    """
    spans: list[dict[str, Any]] = []
    n_files = 0
    n_torn_lines = 0
    for path in paths:
        try:
            file_spans, n_torn = read_trace_stats(path)
        except OSError:
            continue
        spans.extend(file_spans)
        n_torn_lines += n_torn
        n_files += 1
    by_trace: dict[str, list[dict[str, Any]]] = {}
    for sp in spans:
        by_trace.setdefault(str(sp.get("trace_id")), []).append(sp)

    root_durations = [
        float(sp.get("duration_s") or 0.0)
        for group in by_trace.values()
        for sp in group
        if sp.get("parent_id") is None
    ]
    if p99_hint is not None:
        p99 = float(p99_hint)
    elif root_durations:
        p99 = percentile(root_durations, 99.0)
    else:
        p99 = float("inf")

    kept: list[dict[str, Any]] = []
    reasons = {"error": 0, "slow": 0, "sampled": 0}
    for group in by_trace.values():
        errored = any(sp.get("status") == "error" for sp in group)
        slow = any(
            sp.get("parent_id") is None
            and float(sp.get("duration_s") or 0.0) >= p99
            for sp in group
        )
        sampled = any(
            (sp.get("attributes") or {}).get("sampled") for sp in group
        )
        if errored:
            reasons["error"] += 1
        elif slow:
            reasons["slow"] += 1
        elif sampled:
            reasons["sampled"] += 1
        else:
            continue
        kept.extend(group)

    kept.sort(key=lambda sp: (float(sp.get("start_unix") or 0.0),
                              str(sp.get("span_id"))))
    write_jsonl(out, kept)
    return {
        "n_files": n_files,
        "n_torn_lines": n_torn_lines,
        "n_spans": len(spans),
        "n_traces": len(by_trace),
        "n_kept_traces": sum(reasons.values()),
        "n_kept_spans": len(kept),
        "kept_by_reason": reasons,
        "p99_threshold_s": p99,
    }
