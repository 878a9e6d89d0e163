"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry mirrors the Prometheus data model without the dependency:
metrics are named, typed, optionally labeled, and export to both a JSON
document (for ``repro metrics`` and the benchmark artifacts) and the
Prometheus text exposition format (for scraping in a deployment).  All
operations are plain dict updates guarded by one lock, so instrumenting a
hot path costs nanoseconds, not a network call.

A process-global default registry (:func:`get_registry`) backs the
instrumentation sprinkled through the engine, pipeline, and service
layers; tests swap it out with :func:`set_registry`/:func:`reset_registry`.
"""

from __future__ import annotations

import bisect
import builtins
import json
import math
import pathlib
import threading
from typing import Any, Iterable, Mapping, Optional, Union

from repro.durable import write_text

from .exemplar import Exemplar, pick_latest

PathLike = Union[str, pathlib.Path]

LabelKey = tuple[tuple[str, str], ...]

#: Default latency buckets (seconds), log-ish spaced from 0.1 ms to 30 s.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared naming/bookkeeping for all metric types."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "", lock: threading.Lock | None = None) -> None:
        self.name = name
        self.help = help
        self._lock = lock or threading.Lock()


class Counter(_Metric):
    """Monotonically increasing count, optionally labeled."""

    type_name = "counter"

    def __init__(self, name: str, help: str = "", lock: threading.Lock | None = None) -> None:
        super().__init__(name, help, lock)
        self._values: dict[LabelKey, float] = {}

    def inc(self, n: float = 1, **labels: Any) -> None:
        self.inc_key(_label_key(labels), n)

    def inc_key(self, key: LabelKey, n: float = 1) -> None:
        """:meth:`inc` with the label key already built."""
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + n

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Gauge(_Metric):
    """A value that can go up and down (pool sizes, epoch losses)."""

    type_name = "gauge"

    def __init__(self, name: str, help: str = "", lock: threading.Lock | None = None) -> None:
        super().__init__(name, help, lock)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self.set_key(_label_key(labels), value)

    def set_key(self, key: LabelKey, value: float) -> None:
        """:meth:`set` with the label key already built."""
        with self._lock:
            self._values[key] = float(value)

    def add(self, delta: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels: Any) -> float | None:
        return self._values.get(_label_key(labels))

    def samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative-bucket export semantics.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  Per label set we keep per-bucket counts, the total count, and
    the running sum — exactly what the Prometheus text format needs.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        lock: threading.Lock | None = None,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: tuple[float, ...] = tuple(bounds)
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}
        # Per label set, one optional exemplar per bucket (+Inf last),
        # OpenMetrics-style: latest observation wins.
        self._exemplars: dict[LabelKey, list[Optional[Exemplar]]] = {}

    def observe(
        self, value: float, exemplar: Exemplar | None = None, **labels: Any
    ) -> None:
        self.observe_key(_label_key(labels), value, exemplar)

    def observe_key(
        self, key: LabelKey, value: float, exemplar: Exemplar | None = None,
        n: int = 1,
    ) -> None:
        """:meth:`observe` with the label key already built.

        ``n`` records ``n`` observations of the same ``value`` at once:
        the same buckets, count and sum as ``n`` single calls, with
        ``exemplar`` standing for the newest of them.
        """
        if n < 1:
            raise ValueError(f"observation count must be >= 1: {n}")
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
                self._sums[key] = 0.0
                self._totals[key] = 0
            counts[idx] += n
            self._sums[key] += float(value) * n
            self._totals[key] += n
            if exemplar is not None:
                slots = self._exemplars.get(key)
                if slots is None:
                    slots = self._exemplars[key] = [None] * (len(self.bounds) + 1)
                slots[idx] = exemplar

    def merge_exemplars(
        self, exemplars: Iterable[Optional[Exemplar]], **labels: Any
    ) -> None:
        """Fold per-bucket exemplars from another process (latest wins)."""

        incoming = list(exemplars)
        if len(incoming) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} exemplar slots, "
                f"got {len(incoming)}"
            )
        if not any(e is not None for e in incoming):
            return
        key = _label_key(labels)
        with self._lock:
            slots = self._exemplars.get(key)
            if slots is None:
                slots = self._exemplars[key] = [None] * (len(self.bounds) + 1)
            for idx, ex in enumerate(incoming):
                slots[idx] = pick_latest(slots[idx], ex)

    def exemplars(self, **labels: Any) -> list[Optional[Exemplar]]:
        """Per-bucket exemplars (``+Inf`` last) for one label set."""

        slots = self._exemplars.get(_label_key(labels))
        if slots is None:
            return [None] * (len(self.bounds) + 1)
        return list(slots)

    def merge_raw(
        self, bucket_counts: Iterable[int], sum: float, **labels: Any
    ) -> None:
        """Fold pre-bucketed counts (per-bucket, ``+Inf`` last) into a
        label set — the cross-process merge path, where observations were
        already bucketed by an identically-bounded histogram elsewhere.
        """
        incoming = [int(n) for n in bucket_counts]
        if len(incoming) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} bucket counts, "
                f"got {len(incoming)}"
            )
        if any(n < 0 for n in incoming):
            raise ValueError("bucket counts cannot be negative")
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
                self._sums[key] = 0.0
                self._totals[key] = 0
            for idx, n in enumerate(incoming):
                counts[idx] += n
            self._sums[key] += float(sum)
            self._totals[key] += builtins.sum(incoming)

    def count(self, **labels: Any) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: Any) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def samples(self) -> list[dict[str, Any]]:
        out = []
        for key in sorted(self._counts):
            counts = self._counts[key]
            cumulative: dict[str, int] = {}
            running = 0
            for bound, n in zip(self.bounds, counts):
                running += n
                cumulative[repr(float(bound))] = running
            cumulative["+Inf"] = running + counts[-1]
            sample = {
                "labels": dict(key),
                "count": self._totals[key],
                "sum": self._sums[key],
                "buckets": cumulative,
            }
            slots = self._exemplars.get(key)
            if slots is not None and any(e is not None for e in slots):
                bucket_names = [repr(float(b)) for b in self.bounds] + ["+Inf"]
                sample["exemplars"] = {
                    name: ex.to_dict()
                    for name, ex in zip(bucket_names, slots)
                    if ex is not None
                }
            out.append(sample)
        return out


class MetricsRegistry:
    """Named home for every metric; the exporter and renderer read it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, lock=self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.type_name}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self, meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """JSON-safe document: ``{"meta": ..., "metrics": [...]}``."""
        return {
            "meta": dict(meta or {}),
            "metrics": [
                {
                    "name": m.name,
                    "type": m.type_name,
                    "help": m.help,
                    "samples": m.samples(),
                }
                for m in self.metrics()
            ],
        }

    def to_json(self, meta: Mapping[str, Any] | None = None) -> str:
        return json.dumps(self.to_dict(meta), indent=2, sort_keys=True)

    def to_prometheus(self, exemplars: bool = False) -> str:
        """Prometheus text exposition format (0.0.4).

        With ``exemplars=True``, histogram bucket lines carry their
        OpenMetrics exemplar suffix (`` # {trace_id=...} value ts``) so
        a scraped bucket can be pivoted into the trace and provenance
        record that produced it.
        """
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            if isinstance(metric, Histogram):
                samples = metric.samples()
                if not samples:
                    # A registered histogram that was never observed still
                    # exposes the mandatory +Inf bucket (scrapers and the
                    # SLO engine rely on the family being well-formed).
                    lines.append(f'{metric.name}_bucket{{le="+Inf"}} 0')
                    lines.append(f"{metric.name}_sum 0")
                    lines.append(f"{metric.name}_count 0")
                for sample in samples:
                    base = sample["labels"]
                    sample_exemplars = sample.get("exemplars") or {}
                    for bound, cum in sample["buckets"].items():
                        line = (
                            f"{metric.name}_bucket{_label_str({**base, 'le': bound})} {cum}"
                        )
                        if exemplars and bound in sample_exemplars:
                            ex = Exemplar.from_dict(sample_exemplars[bound])
                            line += (
                                f" # {ex.labels_text()} "
                                f"{_format_value(ex.value)} "
                                f"{_format_value(ex.ts_unix)}"
                            )
                        lines.append(line)
                    lines.append(
                        f"{metric.name}_sum{_label_str(base)} {_format_value(sample['sum'])}"
                    )
                    lines.append(f"{metric.name}_count{_label_str(base)} {sample['count']}")
            else:
                for sample in metric.samples():
                    lines.append(
                        f"{metric.name}{_label_str(sample['labels'])} "
                        f"{_format_value(sample['value'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Global default registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry all built-in instrumentation targets."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def reset_registry() -> None:
    """Clear every metric in the global registry (test isolation)."""
    _REGISTRY.reset()


# ----------------------------------------------------------------------
# File export + rendering
# ----------------------------------------------------------------------
def export_metrics(
    path: PathLike,
    registry: MetricsRegistry | None = None,
    meta: Mapping[str, Any] | None = None,
    exemplars: bool = False,
) -> pathlib.Path:
    """Write the registry to ``path`` — Prometheus text when the suffix is
    ``.prom``/``.txt``, the JSON document otherwise.  ``exemplars=True``
    adds OpenMetrics exemplar suffixes to Prometheus bucket lines (the
    JSON document always carries exemplars when present).  The file is
    replaced atomically."""
    registry = registry or get_registry()
    path = pathlib.Path(path)
    if path.suffix in (".prom", ".txt"):
        return write_text(path, registry.to_prometheus(exemplars=exemplars))
    return write_text(path, registry.to_json(meta) + "\n")


def load_metrics(path: PathLike) -> dict[str, Any]:
    """Read a JSON metrics document written by :func:`export_metrics`."""
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def render_metrics(payload: Mapping[str, Any]) -> str:
    """Human-readable table of a metrics document (``repro metrics``).

    Tolerates malformed documents — non-list ``metrics``, entries missing
    ``samples``/``labels``/``count`` — rendering whatever is readable
    rather than crashing the CLI on a truncated or hand-edited file.
    """
    if not isinstance(payload, Mapping):
        raise TypeError(
            f"metrics payload must be a mapping, got {type(payload).__name__}"
        )
    lines: list[str] = []
    meta = payload.get("meta")
    if isinstance(meta, Mapping) and meta:
        lines.append("meta:")
        for key in sorted(meta):
            lines.append(f"  {key:<20} {meta[key]}")
        lines.append("")
    by_type: dict[str, list] = {"counter": [], "gauge": [], "histogram": []}
    metrics = payload.get("metrics")
    for metric in metrics if isinstance(metrics, list) else []:
        if isinstance(metric, Mapping) and metric.get("name"):
            by_type.setdefault(str(metric.get("type", "untyped")), []).append(metric)

    def label_suffix(labels: Any) -> str:
        if not isinstance(labels, Mapping) or not labels:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"

    def metric_samples(metric: Mapping[str, Any]) -> list:
        samples = metric.get("samples")
        return [s for s in samples if isinstance(s, Mapping)] if isinstance(
            samples, list
        ) else []

    for kind in ("counter", "gauge"):
        rows = []
        for metric in by_type.get(kind, []):
            for sample in metric_samples(metric):
                try:
                    value = float(sample.get("value", 0.0))
                except (TypeError, ValueError):
                    continue
                rows.append((metric["name"] + label_suffix(sample.get("labels")), value))
        if rows:
            width = max(len(r[0]) for r in rows)
            lines.append(f"{kind}s:")
            for name, value in rows:
                lines.append(f"  {name:<{width}}  {_format_value(float(value)):>12}")
            lines.append("")
    hist_rows = []
    for metric in by_type.get("histogram", []):
        for sample in metric_samples(metric):
            try:
                count = int(sample.get("count", 0))
                total = float(sample.get("sum", 0.0))
            except (TypeError, ValueError):
                continue
            mean = total / count if count else 0.0
            hist_rows.append(
                (
                    metric["name"] + label_suffix(sample.get("labels")),
                    count,
                    total,
                    mean,
                )
            )
    if hist_rows:
        width = max(len(r[0]) for r in hist_rows)
        lines.append("histograms:")
        lines.append(f"  {'name':<{width}}  {'count':>8}  {'sum':>12}  {'mean':>12}")
        for name, count, total, mean in hist_rows:
            lines.append(f"  {name:<{width}}  {count:>8}  {total:>12.6f}  {mean:>12.6f}")
        lines.append("")
    if not lines:
        return "(no metrics)"
    return "\n".join(lines).rstrip()
