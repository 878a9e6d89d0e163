"""repro.obs — unified tracing, metrics, and structured-event telemetry.

Three primitives, one switchboard:

* :func:`span` — hierarchical tracing spans (contextvar-nested, attribute
  and exception capturing) written as JSON-lines trace files once
  :func:`configure_tracing` is called; free no-ops otherwise.
* :func:`get_registry` — a process-global :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms, exportable as JSON or
  Prometheus text format (:func:`export_metrics`).
* :func:`event` — leveled structured events, bridged through stdlib
  :mod:`logging` and kept in the flight recorder ring
  (:func:`get_recorder`).

The pipeline's :meth:`~repro.core.run.RunContext.stage` consumes the span
API, so per-stage timings, trace spans, and exported metrics all share one
source of truth.
"""

from repro.obs.drift import (
    DriftReport,
    Fingerprint,
    compare_fingerprints,
    matcher_fingerprint,
    pool_fingerprint,
    psi,
    save_drift_report,
)
from repro.obs.events import ANOMALY_EVENTS, event
from repro.obs.exemplar import Exemplar
from repro.obs.health import (
    SLO,
    HealthReport,
    SLOResult,
    evaluate_slos,
    histogram_quantile,
    load_slo_file,
    parse_slos,
    percentile,
)
from repro.obs.meta import git_sha, run_metadata
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    export_metrics,
    get_registry,
    load_metrics,
    render_metrics,
    reset_registry,
    set_registry,
)
from repro.obs.prof import (
    MemoryProfiler,
    SamplingProfiler,
    StackProfile,
    active_memory_profiler,
    configure_memory_profiling,
    disable_memory_profiling,
)
from repro.obs.provenance import (
    PROVENANCE_VERSION,
    ProvenanceRecord,
    ProvenanceRing,
    get_provenance_ring,
    merge_provenance,
    read_provenance,
    render_record,
    reset_provenance_ring,
    set_provenance_ring,
)
from repro.obs.recorder import (
    FlightRecorder,
    configure_recorder,
    get_recorder,
    load_blackbox,
    render_blackbox,
    reset_recorder,
)
from repro.obs.shm import (
    MetricsPlane,
    PlaneSchemaError,
    PlaneSnapshot,
    SlotSpec,
    SlotValue,
    merge_snapshots,
    merged_registry,
    scrape_planes,
)
from repro.obs.trace import (
    RemoteSpanContext,
    Span,
    Tracer,
    configure_tracing,
    current_span,
    current_trace_path,
    disable_tracing,
    flush_tracing,
    make_traceparent,
    merge_traces,
    parse_traceparent,
    read_trace,
    read_trace_stats,
    span,
    span_tree,
    tracing_enabled,
)

__all__ = [
    "DriftReport",
    "Fingerprint",
    "compare_fingerprints",
    "matcher_fingerprint",
    "pool_fingerprint",
    "psi",
    "save_drift_report",
    "SLO",
    "HealthReport",
    "SLOResult",
    "evaluate_slos",
    "histogram_quantile",
    "load_slo_file",
    "parse_slos",
    "percentile",
    "MemoryProfiler",
    "SamplingProfiler",
    "StackProfile",
    "active_memory_profiler",
    "configure_memory_profiling",
    "disable_memory_profiling",
    "ANOMALY_EVENTS",
    "event",
    "Exemplar",
    "PROVENANCE_VERSION",
    "ProvenanceRecord",
    "ProvenanceRing",
    "get_provenance_ring",
    "merge_provenance",
    "read_provenance",
    "render_record",
    "reset_provenance_ring",
    "set_provenance_ring",
    "FlightRecorder",
    "configure_recorder",
    "get_recorder",
    "load_blackbox",
    "render_blackbox",
    "reset_recorder",
    "git_sha",
    "run_metadata",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export_metrics",
    "get_registry",
    "load_metrics",
    "render_metrics",
    "reset_registry",
    "set_registry",
    "MetricsPlane",
    "PlaneSchemaError",
    "PlaneSnapshot",
    "SlotSpec",
    "SlotValue",
    "merge_snapshots",
    "merged_registry",
    "scrape_planes",
    "RemoteSpanContext",
    "Span",
    "Tracer",
    "configure_tracing",
    "current_span",
    "current_trace_path",
    "disable_tracing",
    "flush_tracing",
    "make_traceparent",
    "merge_traces",
    "parse_traceparent",
    "read_trace",
    "read_trace_stats",
    "span",
    "span_tree",
    "tracing_enabled",
]
