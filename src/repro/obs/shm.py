"""Shared-memory metrics plane: fixed-slot mmap segments with seqlocks.

The multi-process serving tier needs fleet telemetry without spending its
request pipes on it: every worker owns one *metrics plane* — an mmap'd
file of 64-byte-aligned slots (counters, gauges, fixed-bucket histograms
mirroring the :class:`~repro.obs.metrics.MetricsRegistry` data model) —
and the router scrapes all of them by mapping the files read-only.  No
pipe round-trips, no locks shared across processes.

Torn-read safety comes from a per-slot *seqlock*: the writer bumps an
epoch word to an odd value, mutates the slot payload, then bumps it even
again; a reader that observes an odd epoch, or a different epoch after
reading the payload, retries (and after a bounded number of attempts
marks the slot torn rather than reporting half-written buckets).  The
single writer per plane never blocks and never syscalls on the hot path;
same-host readers observe the stores through the page cache.

Layout (little-endian)::

    [0:8)                magic  b"ROBSPLN1"
    [8:12)               uint32 schema length in bytes
    [12:12+len)          schema JSON: {"meta": {...}, "slots": [...]}
    [align64(...):...]   slot 0, slot 1, ...   (each 64-byte aligned)

    counter/gauge slot:  uint64 epoch | float64 value          (64 B)
    histogram slot:      uint64 epoch | uint64 * (n_bounds+1)
                         bucket counts | float64 sum | uint64
                         count                  (rounded up to 64 B)

A plane is self-describing: :meth:`MetricsPlane.open` reads the schema
back, so an out-of-process scraper (``repro obs-export``) needs nothing
but the directory.  Re-creating a plane whose file already holds the
identical schema *attaches* instead of zeroing, so counters survive
worker restarts and keep their monotonic contract.

:func:`merge_snapshots` folds any number of plane snapshots into one
:class:`~repro.obs.metrics.MetricsRegistry` — counters and histogram
buckets sum, gauges max-merge — giving the fleet-wide registry view the
SLO engine and the Prometheus renderer already understand.

:class:`TierMetrics` is the writer side of every tier with a plane: its slot
specs are the only declaration of its families, registered, pre-seeded
and mirrored into the tier's plane from that one list.
"""

from __future__ import annotations

import glob
import json
import mmap
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.durable import atomic_write
from repro.obs.exemplar import (
    EXEMPLAR_KEY_BYTES,
    EXEMPLAR_TRACE_ID_BYTES,
    Exemplar,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

MAGIC = b"ROBSPLN1"
_ALIGN = 64
#: Seqlock read attempts before a slot is declared torn (dead writer
#: mid-update leaves an odd epoch forever; readers must not spin).
_MAX_READ_RETRIES = 64

#: One encoded exemplar per histogram bucket when a slot opts in:
#: float64 value | trace id (ascii, NUL-padded) | provenance key
#: (ascii, NUL-padded) | float64 ts_unix.  ts_unix == 0 means "empty".
_EXEMPLAR_BYTES = 8 + EXEMPLAR_TRACE_ID_BYTES + EXEMPLAR_KEY_BYTES + 8

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class PlaneSchemaError(ValueError):
    """The file is not a metrics plane, or its schema does not match."""


@dataclass(frozen=True)
class SlotSpec:
    """One fixed slot of a plane: a named, typed, pre-labeled metric."""

    kind: str
    name: str
    labels: tuple[tuple[str, str], ...] = ()
    buckets: tuple[float, ...] = ()
    help: str = ""
    #: Histogram-only: reserve per-bucket exemplar bytes after the
    #: count/sum words, guarded by the *same* slot epoch (seqlock-safe
    #: for free).  Serialized into the schema blob only when True, so
    #: pre-exemplar plane files keep a byte-identical schema and still
    #: attach (counters stay monotonic across the upgrade).
    exemplars: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise ValueError(f"unknown slot kind: {self.kind!r}")
        if self.kind == HISTOGRAM and not self.buckets:
            object.__setattr__(
                self, "buckets", tuple(float(b) for b in DEFAULT_LATENCY_BUCKETS)
            )
        if self.exemplars and self.kind != HISTOGRAM:
            raise ValueError("exemplars are only valid on histogram slots")

    @property
    def payload_bytes(self) -> int:
        if self.kind == HISTOGRAM:
            # bucket counts (incl. +Inf) + sum + count
            base = 8 * (len(self.buckets) + 1) + 8 + 8
            if self.exemplars:
                base += _EXEMPLAR_BYTES * (len(self.buckets) + 1)
            return base
        return 8

    @property
    def slot_bytes(self) -> int:
        return _align(8 + self.payload_bytes)

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "kind": self.kind,
            "name": self.name,
            "labels": [list(kv) for kv in self.labels],
            "buckets": list(self.buckets),
            "help": self.help,
        }
        if self.exemplars:
            doc["exemplars"] = True
        return doc

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SlotSpec":
        return cls(
            kind=str(payload["kind"]),
            name=str(payload["name"]),
            labels=tuple(
                (str(k), str(v)) for k, v in payload.get("labels", [])
            ),
            buckets=tuple(float(b) for b in payload.get("buckets", [])),
            help=str(payload.get("help", "")),
            exemplars=bool(payload.get("exemplars", False)),
        )


@dataclass(frozen=True)
class SlotValue:
    """One decoded slot: scalar for counters/gauges, buckets for histograms."""

    spec: SlotSpec
    value: float = 0.0
    bucket_counts: tuple[int, ...] = ()   # per-bucket (not cumulative), +Inf last
    sum: float = 0.0
    count: int = 0
    torn: bool = False
    exemplars: tuple = ()                 # Exemplar | None per bucket, +Inf last


@dataclass(frozen=True)
class PlaneSnapshot:
    """A consistent point-in-time read of one plane."""

    path: str
    meta: dict[str, Any] = field(default_factory=dict)
    slots: tuple[SlotValue, ...] = ()

    @property
    def n_torn(self) -> int:
        return sum(1 for s in self.slots if s.torn)


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _pad_ascii(text: str, width: int) -> bytes:
    raw = text.encode("ascii", "replace")[:width]
    return raw + b"\x00" * (width - len(raw))


def _encode_exemplar(exemplar: Exemplar) -> bytes:
    ts = exemplar.ts_unix or time.time()
    return (
        struct.pack("<d", float(exemplar.value))
        + _pad_ascii(exemplar.trace_id, EXEMPLAR_TRACE_ID_BYTES)
        + _pad_ascii(exemplar.provenance_key, EXEMPLAR_KEY_BYTES)
        + struct.pack("<d", float(ts))
    )


def _decode_exemplar(raw: bytes) -> "Exemplar | None":
    (value,) = struct.unpack_from("<d", raw, 0)
    trace_end = 8 + EXEMPLAR_TRACE_ID_BYTES
    key_end = trace_end + EXEMPLAR_KEY_BYTES
    (ts,) = struct.unpack_from("<d", raw, key_end)
    if ts == 0.0:
        return None  # never written
    return Exemplar(
        value=value,
        trace_id=raw[8:trace_end].rstrip(b"\x00").decode("ascii", "replace"),
        provenance_key=raw[trace_end:key_end].rstrip(b"\x00").decode(
            "ascii", "replace"
        ),
        ts_unix=ts,
    )


def _schema_blob(specs: Sequence[SlotSpec], meta: Mapping[str, Any]) -> bytes:
    doc = {"meta": dict(meta), "slots": [s.to_dict() for s in specs]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _slot_offsets(specs: Sequence[SlotSpec], schema_len: int) -> list[int]:
    offset = _align(12 + schema_len)
    out = []
    for spec in specs:
        out.append(offset)
        offset += spec.slot_bytes
    return out


class MetricsPlane:
    """One mmap'd metrics segment: single writer, any number of readers.

    Construct with :meth:`create` (writer side — attaches to an existing
    file when the schema matches byte-for-byte, otherwise replaces it
    atomically) or :meth:`open` (reader side).  The writer serializes its
    own threads with an internal lock; cross-process safety is the
    seqlock, not the lock.
    """

    def __init__(
        self,
        path: str,
        specs: tuple[SlotSpec, ...],
        meta: dict[str, Any],
        mm: mmap.mmap,
        fh,
        writable: bool,
    ) -> None:
        self.path = path
        self.specs = specs
        self.meta = meta
        self._mm = mm
        self._fh = fh
        self._writable = writable
        self._lock = threading.Lock()
        schema_len = len(_schema_blob(specs, meta))
        self._offsets = _slot_offsets(specs, schema_len)
        self._index: dict[tuple[str, tuple[tuple[str, str], ...]], int] = {
            (spec.name, spec.labels): i for i, spec in enumerate(specs)
        }

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        specs: Iterable[SlotSpec],
        meta: Mapping[str, Any] | None = None,
    ) -> "MetricsPlane":
        """Writer-side plane; attaches when ``path`` already matches.

        Attach-on-match is what keeps counters monotonic across worker
        restarts: the restarted worker keeps accumulating into the same
        slots instead of zeroing the fleet's history.
        """
        specs = tuple(specs)
        meta = dict(meta or {})
        blob = _schema_blob(specs, meta)
        total = _slot_offsets(specs, len(blob))
        size = (total[-1] + specs[-1].slot_bytes) if specs else _align(12 + len(blob))
        if os.path.exists(path):
            try:
                existing = cls.open(path)
                match = existing.specs == specs and existing.meta == meta
                existing.close()
            except (PlaneSchemaError, OSError, ValueError):
                match = False
            if match:
                fh = open(path, "r+b")
                mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_WRITE)
                return cls(path, specs, meta, mm, fh, writable=True)
        head = MAGIC + struct.pack("<I", len(blob)) + blob
        atomic_write(path, lambda f: f.write(head.ljust(size, b"\0")))
        fh = open(path, "r+b")
        mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_WRITE)
        return cls(path, specs, meta, mm, fh, writable=True)

    @classmethod
    def open(cls, path: str) -> "MetricsPlane":
        """Reader-side plane (raises :class:`PlaneSchemaError` on junk)."""
        fh = open(path, "rb")
        try:
            head = fh.read(12)
            if len(head) < 12 or head[:8] != MAGIC:
                raise PlaneSchemaError(f"not a metrics plane: {path!r}")
            (schema_len,) = struct.unpack_from("<I", head, 8)
            blob = fh.read(schema_len)
            if len(blob) != schema_len:
                raise PlaneSchemaError(f"truncated plane header: {path!r}")
            try:
                doc = json.loads(blob.decode("utf-8"))
                specs = tuple(SlotSpec.from_dict(s) for s in doc["slots"])
                meta = dict(doc.get("meta", {}))
            except (ValueError, KeyError, TypeError) as exc:
                raise PlaneSchemaError(f"bad plane schema in {path!r}: {exc}")
            offsets = _slot_offsets(specs, schema_len)
            size = (
                (offsets[-1] + specs[-1].slot_bytes) if specs
                else _align(12 + schema_len)
            )
            if os.fstat(fh.fileno()).st_size < size:
                raise PlaneSchemaError(f"plane file too small: {path!r}")
            mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
        except Exception:
            fh.close()
            raise
        return cls(path, specs, meta, mm, fh, writable=False)

    def close(self) -> None:
        with self._lock:
            if self._mm is not None:
                self._mm.close()
                self._mm = None
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- addressing -----------------------------------------------------
    def slot(self, name: str, **labels: Any) -> int:
        """Slot index for ``name`` + exact label set (KeyError if absent)."""
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        return self._index[key]

    # -- writer side ----------------------------------------------------
    def _begin(self, offset: int) -> int:
        (epoch,) = struct.unpack_from("<Q", self._mm, offset)
        struct.pack_into("<Q", self._mm, offset, epoch + 1)
        return epoch + 2

    def _commit(self, offset: int, epoch: int) -> None:
        struct.pack_into("<Q", self._mm, offset, epoch)

    def inc(self, index: int, n: float = 1.0) -> None:
        """Counter add (also the gauge ``add``); seqlocked."""
        offset = self._offsets[index]
        with self._lock:
            epoch = self._begin(offset)
            (value,) = struct.unpack_from("<d", self._mm, offset + 8)
            struct.pack_into("<d", self._mm, offset + 8, value + n)
            self._commit(offset, epoch)

    def set(self, index: int, value: float) -> None:
        offset = self._offsets[index]
        with self._lock:
            epoch = self._begin(offset)
            struct.pack_into("<d", self._mm, offset + 8, float(value))
            self._commit(offset, epoch)

    def observe(
        self, index: int, value: float, exemplar: "Exemplar | None" = None,
        n: int = 1,
    ) -> None:
        """Histogram observe; ``n`` same-valued observations in one write."""
        if n < 1:
            raise ValueError(f"observation count must be >= 1: {n}")
        spec = self.specs[index]
        if spec.kind != HISTOGRAM:
            raise TypeError(f"slot {index} ({spec.name}) is not a histogram")
        bounds = spec.buckets
        bucket = 0
        while bucket < len(bounds) and value > bounds[bucket]:
            bucket += 1
        offset = self._offsets[index]
        base = offset + 8
        with self._lock:
            epoch = self._begin(offset)
            (count,) = struct.unpack_from("<Q", self._mm, base + 8 * bucket)
            struct.pack_into("<Q", self._mm, base + 8 * bucket, count + n)
            sum_off = base + 8 * (len(bounds) + 1)
            (total,) = struct.unpack_from("<d", self._mm, sum_off)
            struct.pack_into("<d", self._mm, sum_off, total + float(value) * n)
            (seen,) = struct.unpack_from("<Q", self._mm, sum_off + 8)
            struct.pack_into("<Q", self._mm, sum_off + 8, seen + n)
            if spec.exemplars and exemplar is not None:
                # Same epoch guards the exemplar bytes: a reader either
                # sees the whole (counts + exemplar) update or retries.
                ex_off = sum_off + 16 + _EXEMPLAR_BYTES * bucket
                self._mm[ex_off: ex_off + _EXEMPLAR_BYTES] = _encode_exemplar(
                    exemplar
                )
            self._commit(offset, epoch)

    # -- reader side ----------------------------------------------------
    def _read_slot(self, index: int) -> SlotValue:
        spec = self.specs[index]
        offset = self._offsets[index]
        payload = spec.payload_bytes
        for _ in range(_MAX_READ_RETRIES):
            (e1,) = struct.unpack_from("<Q", self._mm, offset)
            if e1 % 2:
                time.sleep(0.0001)
                continue
            raw = bytes(self._mm[offset + 8: offset + 8 + payload])
            (e2,) = struct.unpack_from("<Q", self._mm, offset)
            if e1 != e2:
                continue
            if spec.kind == HISTOGRAM:
                n_buckets = len(spec.buckets) + 1
                counts = struct.unpack_from(f"<{n_buckets}Q", raw, 0)
                total, n = struct.unpack_from("<dQ", raw, 8 * n_buckets)
                exemplars: tuple = ()
                if spec.exemplars:
                    ex_base = 8 * n_buckets + 16
                    exemplars = tuple(
                        _decode_exemplar(
                            raw[ex_base + _EXEMPLAR_BYTES * b:
                                ex_base + _EXEMPLAR_BYTES * (b + 1)]
                        )
                        for b in range(n_buckets)
                    )
                return SlotValue(
                    spec, bucket_counts=tuple(counts), sum=total, count=n,
                    exemplars=exemplars,
                )
            (value,) = struct.unpack_from("<d", raw, 0)
            return SlotValue(spec, value=value)
        return SlotValue(spec, torn=True)

    def read(self) -> PlaneSnapshot:
        """A torn-safe snapshot of every slot."""
        return PlaneSnapshot(
            path=self.path,
            meta=dict(self.meta),
            slots=tuple(self._read_slot(i) for i in range(len(self.specs))),
        )


# ---------------------------------------------------------------------------
# Scraping and merging
# ---------------------------------------------------------------------------
def scrape_planes(
    directory: str, pattern: str = "metrics-*.shm"
) -> list[PlaneSnapshot]:
    """Read every plane in ``directory`` (skips unreadable/foreign files).

    This is the router's zero-IPC scrape path: it touches only the mmap'd
    files, never a worker pipe — a dead or wedged worker's last published
    values remain scrapeable.
    """
    out = []
    for path in sorted(glob.glob(os.path.join(directory, pattern))):
        try:
            plane = MetricsPlane.open(path)
        except (PlaneSchemaError, OSError):
            continue
        try:
            out.append(plane.read())
        finally:
            plane.close()
    return out


def merge_snapshots(
    snapshots: Iterable[PlaneSnapshot],
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Fold plane snapshots into one registry view.

    Counters and histogram buckets *sum* across planes; gauges
    *max-merge* (the fleet-wide value of "snapshot version lag" is the
    worst worker's, not an average).  Torn slots are skipped — a bounded
    seqlock retry must degrade to omission, never to a half-written
    bucket vector.
    """
    registry = registry or MetricsRegistry()
    gauges: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for snapshot in snapshots:
        for slot in snapshot.slots:
            if slot.torn:
                continue
            spec = slot.spec
            labels = dict(spec.labels)
            if spec.kind == COUNTER:
                registry.counter(spec.name, spec.help).inc(
                    max(0.0, slot.value), **labels
                )
            elif spec.kind == GAUGE:
                key = (spec.name, spec.labels)
                if key not in gauges or slot.value > gauges[key]:
                    gauges[key] = slot.value
                    registry.gauge(spec.name, spec.help).set(slot.value, **labels)
            else:
                hist = registry.histogram(
                    spec.name, spec.help, buckets=spec.buckets
                )
                hist.merge_raw(slot.bucket_counts, slot.sum, **labels)
                if slot.exemplars and any(
                    e is not None for e in slot.exemplars
                ):
                    hist.merge_exemplars(slot.exemplars, **labels)
    return registry


def merged_registry(
    directory: str,
    base: MetricsRegistry | None = None,
    pattern: str = "metrics-*.shm",
) -> MetricsRegistry:
    """Scrape ``directory`` and merge into a fresh (or given) registry."""
    return merge_snapshots(scrape_planes(directory, pattern), registry=base)


# ---------------------------------------------------------------------------
# One declaration per family: registry + optional plane
# ---------------------------------------------------------------------------
class TierMetrics:
    """A tier's metric families, declared once by their slot specs.

    Each family of ``specs`` is registered in ``registry`` with the
    spec's help and buckets, and every counter and gauge label set is
    pre-seeded at zero: the fail-closed SLO engine reads an absent sample
    as a violation, so "nothing happened yet" must be an explicit 0.
    With a ``plane_path`` the same slots are mapped into a
    :class:`MetricsPlane` there (attaching across restarts); a plane that
    cannot be created leaves :attr:`plane` ``None`` and the registry
    still counts — telemetry never blocks the tier it measures.

    :meth:`inc`, :meth:`set` and :meth:`observe` write the registry and
    the slot of one declared series, found by one dict lookup; label
    values are strings, and a series the specs do not declare raises
    :class:`KeyError`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: Iterable[SlotSpec],
        plane_path: str | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.registry = registry
        self.specs = tuple(specs)
        self._plane_path = plane_path
        self._meta = dict(meta or {})
        self.plane: MetricsPlane | None = None
        self._families: dict[str, Any] = {}
        #: (name, sorted labels) -> (registry family, slot index); the
        #: sorted labels are also the family's own label key.
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]],
                           tuple[Any, int]] = {}
        for index, spec in enumerate(self.specs):
            key = tuple(sorted(spec.labels))
            if spec.kind == COUNTER:
                family = registry.counter(spec.name, spec.help)
                family.inc_key(key, 0)
            elif spec.kind == GAUGE:
                family = registry.gauge(spec.name, spec.help)
                family.set_key(key, 0)
            else:
                family = registry.histogram(spec.name, spec.help,
                                            buckets=spec.buckets)
            self._families[spec.name] = family
            self._series[(spec.name, key)] = (family, index)
        self.open()

    def open(self) -> None:
        """Map the plane if there is a path and it is not mapped yet."""
        if self.plane is not None or self._plane_path is None:
            return
        try:
            self.plane = MetricsPlane.create(
                self._plane_path, self.specs, self._meta
            )
        except OSError:
            self.plane = None

    def close(self) -> None:
        """Unmap the plane (the file outlives it); :meth:`open` remaps."""
        if self.plane is not None:
            self.plane.close()
            self.plane = None

    def family(self, name: str) -> Any:
        """The registry family ``name`` (a reader's handle)."""
        return self._families[name]

    def inc(self, name: str, n: float = 1, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        family, index = self._series[(name, key)]
        family.inc_key(key, n)
        if self.plane is not None:
            self.plane.inc(index, n)

    def set(self, name: str, value: float, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        family, index = self._series[(name, key)]
        family.set_key(key, value)
        if self.plane is not None:
            self.plane.set(index, value)

    def observe(
        self, name: str, value: float, exemplar: Exemplar | None = None,
        n: int = 1, **labels: str,
    ) -> None:
        """``n`` observations of ``value``; ``exemplar`` is the newest."""
        key = tuple(sorted(labels.items()))
        family, index = self._series[(name, key)]
        family.observe_key(key, value, exemplar, n)
        if self.plane is not None:
            self.plane.observe(index, value, exemplar, n)


__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "MetricsPlane",
    "PlaneSchemaError",
    "PlaneSnapshot",
    "SlotSpec",
    "SlotValue",
    "TierMetrics",
    "merge_snapshots",
    "merged_registry",
    "scrape_planes",
]
