"""Declarative SLOs and quantiles over a metrics export or raw values.

An :class:`SLO` states an objective over one metric family — "p95 of
``serve_request_latency_seconds`` stays under 250 ms", "the fraction of
``serve_requests_total`` with ``status=error`` stays under 1%" — and
:func:`evaluate_slos` judges a list of them against an exported metrics
document or a live ``MetricsRegistry.to_dict()``: the ``repro health``
CLI, both serving front ends' ``verdict`` and the stream scheduler's
promotion gate all run this one engine.  Violations become structured
``slo_violation`` events and a nonzero exit code, turning the telemetry
into a verdict a CI job or an operator can act on.

:func:`percentile` is the one nearest-rank percentile over raw values
(load reports, snapshot loads, trace tail sampling, stream freshness).
:class:`QueueDepthSeries` keeps the one signal no registry family
holds: the admission queue's depth over time, as a bounded series.
"""

from __future__ import annotations

import bisect
import json
import math
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence, Union

from repro.obs.events import event

PathLike = Union[str, pathlib.Path]

VALID_KINDS = ("quantile", "error_rate", "max", "value")


@dataclass(frozen=True)
class SLO:
    """One declarative objective over a metric family.

    ``kind`` selects the evaluation:

    * ``quantile`` — ``quantile`` of histogram ``metric`` must be
      <= ``objective`` (seconds, meters, whatever the metric measures).
    * ``error_rate`` — the fraction of counter ``metric`` samples whose
      labels match ``bad`` must be <= ``objective`` (the error budget).
    * ``max`` / ``value`` — the largest matching gauge sample must be
      <= ``objective``.

    ``labels`` narrows which samples count (subset match); ``bad`` maps a
    label name to the values that count as errors for ``error_rate``.
    """

    name: str
    metric: str
    objective: float
    kind: str = "quantile"
    quantile: float = 0.95
    labels: tuple[tuple[str, str], ...] = ()
    bad: tuple[tuple[str, tuple[str, ...]], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; valid: {VALID_KINDS}"
            )
        if self.kind == "quantile" and not (0.0 < self.quantile <= 1.0):
            raise ValueError(f"quantile must be in (0, 1]: {self.quantile}")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SLO":
        unknown = set(payload) - {
            "name", "metric", "objective", "kind", "quantile", "labels",
            "bad", "description",
        }
        if unknown:
            raise ValueError(f"unknown SLO fields: {sorted(unknown)}")
        labels = tuple(sorted(
            (str(k), str(v)) for k, v in (payload.get("labels") or {}).items()
        ))
        bad = tuple(sorted(
            (str(k), tuple(str(v) for v in values))
            for k, values in (payload.get("bad") or {}).items()
        ))
        return cls(
            name=str(payload["name"]),
            metric=str(payload["metric"]),
            objective=float(payload["objective"]),
            kind=str(payload.get("kind", "quantile")),
            quantile=float(payload.get("quantile", 0.95)),
            labels=labels,
            bad=bad,
            description=str(payload.get("description", "")),
        )

    def matches(self, labels: Mapping[str, Any]) -> bool:
        return all(str(labels.get(k)) == v for k, v in self.labels)

    def is_bad(self, labels: Mapping[str, Any]) -> bool:
        return any(str(labels.get(k)) in values for k, values in self.bad)


@dataclass(frozen=True)
class SLOResult:
    """Outcome of evaluating one SLO."""

    slo: SLO
    ok: bool
    observed: float | None     # None means the metric had no data
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.slo.name,
            "metric": self.slo.metric,
            "kind": self.slo.kind,
            "objective": self.slo.objective,
            "observed": self.observed,
            "ok": self.ok,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class HealthReport:
    """The verdict over a list of SLOs."""

    results: tuple[SLOResult, ...]
    source: str = "metrics"

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "source": self.source,
            "results": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        """Human-readable verdict table for ``repro health``."""
        if not self.results:
            return "(no SLOs evaluated)"
        rows = []
        for r in self.results:
            observed = "no data" if r.observed is None else f"{r.observed:.6g}"
            rows.append((
                "OK " if r.ok else "VIOLATED",
                r.slo.name,
                f"{r.slo.kind}({r.slo.metric})",
                observed,
                f"<= {r.slo.objective:.6g}",
            ))
        name_w = max(len(r[1]) for r in rows)
        kind_w = max(len(r[2]) for r in rows)
        lines = [
            f"{verdict:<9} {name:<{name_w}}  {kind:<{kind_w}}  "
            f"{observed:>12}  {objective}"
            for verdict, name, kind, observed, objective in rows
        ]
        lines.append("health: " + ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Spec parsing (YAML with a JSON / mini-YAML fallback)
# ----------------------------------------------------------------------
def parse_slos(payload: Any) -> list[SLO]:
    """Parse a spec document: ``{"slos": [...]}`` or a bare list."""
    if isinstance(payload, Mapping):
        entries = payload.get("slos", [])
    else:
        entries = payload
    if not isinstance(entries, (list, tuple)):
        raise ValueError("SLO spec must be a list or a {'slos': [...]} mapping")
    slos = [SLO.from_dict(entry) for entry in entries]
    if not slos:
        raise ValueError("SLO spec contains no objectives")
    return slos


def load_slo_file(path: PathLike) -> list[SLO]:
    """Read an SLO spec from JSON, or from the YAML subset
    :func:`_parse_mini_yaml` reads (one parser everywhere, no PyYAML)."""
    path = pathlib.Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return parse_slos(json.loads(text))
    return parse_slos(_parse_mini_yaml(text))


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        return [_parse_scalar(t) for t in inner.split(",")] if inner else []
    if token in ("true", "True"):
        return True
    if token in ("false", "False"):
        return False
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token.strip("'\"")


def _parse_mini_yaml(text: str) -> dict[str, Any]:
    """Parse the restricted YAML subset SLO specs use.

    Supports nested mappings by indentation, ``- `` list items holding
    mappings or scalars, inline ``[a, b]`` lists, and ``#`` comments —
    enough for an SLO file; not a general YAML parser.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            lines.append(stripped)

    def parse_block(start: int, indent: int) -> tuple[Any, int]:
        container: Any = None
        i = start
        while i < len(lines):
            line = lines[i]
            cur_indent = len(line) - len(line.lstrip())
            if cur_indent < indent:
                break
            content = line.strip()
            if content.startswith("- "):
                if container is None:
                    container = []
                if not isinstance(container, list):
                    raise ValueError(f"mixed list/mapping at line: {line!r}")
                item_text = content[2:]
                if ":" in item_text and not item_text.startswith("["):
                    # A mapping whose first key sits on the "- " line.
                    lines[i] = " " * (cur_indent + 2) + item_text
                    value, i = parse_block(i, cur_indent + 2)
                    container.append(value)
                else:
                    container.append(_parse_scalar(item_text))
                    i += 1
            else:
                if container is None:
                    container = {}
                if not isinstance(container, dict):
                    break
                key, _, rest = content.partition(":")
                rest = rest.strip()
                if rest:
                    container[key.strip()] = _parse_scalar(rest)
                    i += 1
                else:
                    value, i = parse_block(i + 1, cur_indent + 1)
                    container[key.strip()] = value if value is not None else {}
        return container, i

    parsed, _ = parse_block(0, 0)
    return parsed if isinstance(parsed, dict) else {"slos": parsed or []}


# ----------------------------------------------------------------------
# Quantile math
# ----------------------------------------------------------------------
def histogram_quantile(
    bounds: Sequence[float], cumulative: Sequence[float], q: float
) -> float | None:
    """Prometheus-style quantile from cumulative bucket counts.

    ``bounds`` are the finite upper bounds; ``cumulative`` must have one
    extra trailing entry for the ``+Inf`` bucket.  The value is linearly
    interpolated inside the selected bucket (the first bucket's lower
    edge is 0); mass in the ``+Inf`` bucket clamps to the highest finite
    bound.  Returns ``None`` when there are no observations.
    """
    if len(cumulative) != len(bounds) + 1:
        raise ValueError(
            f"cumulative needs len(bounds)+1 entries: "
            f"{len(cumulative)} vs {len(bounds)}+1"
        )
    if any(cumulative[i] > cumulative[i + 1] for i in range(len(cumulative) - 1)):
        raise ValueError("cumulative counts must be non-decreasing")
    total = cumulative[-1]
    if total <= 0:
        return None
    q = min(max(q, 0.0), 1.0)
    rank = q * total
    idx = bisect.bisect_left(cumulative, rank)
    if idx >= len(bounds):
        # Rank falls in the +Inf bucket: clamp to the last finite bound.
        return float(bounds[-1]) if bounds else None
    lower = float(bounds[idx - 1]) if idx > 0 else 0.0
    upper = float(bounds[idx])
    below = cumulative[idx - 1] if idx > 0 else 0.0
    in_bucket = cumulative[idx] - below
    if in_bucket <= 0:
        return upper
    return lower + (upper - lower) * (rank - below) / in_bucket


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of raw ``values`` (``q`` in [0, 100]).

    The smallest value with at least ``q`` percent of the values at or
    below it; 0.0 for no values.  Histograms, which keep buckets rather
    than values, go through :func:`histogram_quantile` instead.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _merge_histogram_samples(
    samples: Iterable[Mapping[str, Any]],
) -> tuple[list[float], list[float]] | None:
    """Sum matching histogram samples into one cumulative bucket vector."""
    bounds: list[float] | None = None
    merged: list[float] | None = None
    for sample in samples:
        buckets = sample.get("buckets") or {}
        finite = sorted(
            (float(k), float(v)) for k, v in buckets.items() if k != "+Inf"
        )
        sample_bounds = [b for b, _ in finite]
        cumulative = [c for _, c in finite] + [float(buckets.get("+Inf", 0.0))]
        if bounds is None:
            bounds, merged = sample_bounds, cumulative
        elif sample_bounds == bounds and merged is not None:
            merged = [a + b for a, b in zip(merged, cumulative)]
        else:
            raise ValueError("histogram samples have mismatched buckets")
    if bounds is None or merged is None:
        return None
    return bounds, merged


# ----------------------------------------------------------------------
# Evaluating SLOs against an exported metrics document
# ----------------------------------------------------------------------
def _find_family(payload: Mapping[str, Any], name: str) -> Mapping[str, Any] | None:
    for metric in payload.get("metrics", []) or []:
        if isinstance(metric, Mapping) and metric.get("name") == name:
            return metric
    return None


def _no_data(slo: SLO, reason: str) -> SLOResult:
    return SLOResult(slo, ok=False, observed=None, detail={"reason": reason})


def _evaluate_one(payload: Mapping[str, Any], slo: SLO) -> SLOResult:
    family = _find_family(payload, slo.metric)
    if family is None:
        return _no_data(slo, f"metric {slo.metric!r} not present")
    samples = [
        s for s in family.get("samples", [])
        if isinstance(s, Mapping) and slo.matches(s.get("labels") or {})
    ]
    if not samples:
        return _no_data(slo, "no samples match the label filter")

    if slo.kind == "quantile":
        merged = _merge_histogram_samples(samples)
        observed = None
        if merged is not None:
            observed = histogram_quantile(merged[0], merged[1], slo.quantile)
        if observed is None:
            return _no_data(slo, "histogram has no observations")
        return SLOResult(
            slo, ok=observed <= slo.objective, observed=observed,
            detail={"count": sum(s.get("count", 0) for s in samples)},
        )

    if slo.kind == "error_rate":
        total = bad = 0.0
        for sample in samples:
            value = float(sample.get("value", 0.0))
            total += value
            if slo.is_bad(sample.get("labels") or {}):
                bad += value
        if total <= 0:
            return _no_data(slo, "counter never incremented")
        rate = bad / total
        burn = rate / slo.objective if slo.objective > 0 else math.inf
        return SLOResult(
            slo, ok=rate <= slo.objective, observed=rate,
            detail={"total": total, "bad": bad, "burn_rate": burn},
        )

    # max / value over gauge (or counter) samples.
    values = [float(s.get("value", 0.0)) for s in samples if "value" in s]
    if not values:
        return _no_data(slo, "no scalar samples")
    observed = max(values)
    return SLOResult(slo, ok=observed <= slo.objective, observed=observed)


def evaluate_slos(
    payload: Mapping[str, Any],
    slos: Sequence[SLO],
    source: str = "metrics",
    emit_events: bool = True,
) -> HealthReport:
    """Evaluate objectives against an exported metrics document.

    ``payload`` is the JSON document :func:`repro.obs.export_metrics`
    writes (or ``MetricsRegistry.to_dict()``).  Missing metrics and
    empty histograms count as violations — a health gate that silently
    passes when the pipeline emitted nothing would be worse than no gate.
    """
    results = tuple(_evaluate_one(payload, slo) for slo in slos)
    report = HealthReport(results, source=source)
    if emit_events:
        _emit_violations(report)
    return report


def _emit_violations(report: HealthReport) -> None:
    for result in report.results:
        if not result.ok:
            event(
                "slo_violation", level="warning", component="health",
                slo=result.slo.name, metric=result.slo.metric,
                kind=result.slo.kind, objective=result.slo.objective,
                observed=result.observed, detail=result.detail,
            )


# ----------------------------------------------------------------------
# Queue depth over time (the one signal no registry family holds)
# ----------------------------------------------------------------------
class QueueDepthSeries:
    """The admission queue's depth over time: the largest reading in each
    :attr:`BUCKET_S` bucket, for the latest :attr:`MAX_BUCKETS` buckets.

    A gauge holds only the current depth; this keeps its recent history
    (for load reports and the CI health gate) in bounded memory, one
    ``[bucket, max_depth]`` pair per bucket however many readings land.
    """

    BUCKET_S = 0.1
    MAX_BUCKETS = 600   # 60 s of 0.1 s buckets

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: deque[list[int]] = deque(maxlen=self.MAX_BUCKETS)
        self._t0: float | None = None

    def note_queue_depth(self, depth: int, t: float | None = None) -> None:
        with self._lock:
            now = time.monotonic() if t is None else t
            if self._t0 is None:
                self._t0 = now
            index = int((now - self._t0) / self.BUCKET_S)
            if self._buckets and self._buckets[-1][0] >= index:
                last = self._buckets[-1]
                last[1] = max(last[1], int(depth))
            else:
                self._buckets.append([index, int(depth)])

    def queue_depth_series(self) -> list[tuple[float, int]]:
        """``(t_rel_s, max_depth)`` per bucket, ``t_rel_s`` from the
        first reading."""
        with self._lock:
            return [
                (round(index * self.BUCKET_S, 6), depth)
                for index, depth in self._buckets
            ]
