"""Prediction provenance: what each served query was answered with.

Aggregate metrics say *how often* the serving tier answered; a
:class:`ProvenanceRecord` says *what this query got*: the served point,
the store tier that supplied it (``source``) and the cache state, the
snapshot version live at answer time, and the trace id of the request.

Records are minted on the serve hot path, so retention is bounded and
deterministic: a :class:`ProvenanceRing` holds

- an **always-keep** deque for the records someone will actually ask
  about (errors, unknown ids, low-confidence answers), and
- a **deterministic reservoir** over everything else — Algorithm R
  with the random draw replaced by ``crc32(key) % (i + 1)``, so two
  runs over the same stream keep the same sample and replaying a run
  reproduces its forensics exactly.

:meth:`ProvenanceRing.mint` keys the answer and decides its retention
from the key and the answer's fields before it builds a record, and
returns the key: most routine answers are dropped by the reservoir, and
each of those costs one key format and one CRC.
:meth:`ProvenanceRing.mint_rows` does the same for a batch given as
columns, under one lock and through the same retention decision.  Read
the kept records back with :meth:`ProvenanceRing.records` or
:meth:`ProvenanceRing.find`.

Each worker process persists its ring to
``<snapshot-dir>/obs/provenance-<origin>.jsonl`` on snapshot rotation
and shutdown; :func:`merge_provenance` folds those files (tolerating a
torn final line from a crash-time flush) the same way ``trace_dump``
merges span files.  ``repro explain <address-id>`` renders the result.
"""

from __future__ import annotations

import pathlib
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from repro.durable import read_jsonl, write_jsonl

PathLike = Union[str, pathlib.Path]

#: Bump when the record wire shape changes; readers check it.  Version-1
#: lines also carry ``candidates``, ``stays``, ``model_fingerprint`` and
#: ``pool_fingerprint``; :meth:`ProvenanceRecord.from_dict` ignores them.
PROVENANCE_VERSION = 2

#: Confidence below which a record is always kept (the interesting ones).
DEFAULT_LOW_CONFIDENCE = 0.2

#: Retention decisions other than a reservoir slot (``ProvenanceRing._slot``).
_KEEP, _APPEND = -2, -1

__all__ = [
    "PROVENANCE_VERSION",
    "ProvenanceRecord",
    "ProvenanceRing",
    "get_provenance_ring",
    "set_provenance_ring",
    "reset_provenance_ring",
    "read_provenance",
    "merge_provenance",
    "render_record",
]


@dataclass
class ProvenanceRecord:
    """One served answer and the evidence behind it."""

    key: str
    address_id: str
    status: str
    lng: Optional[float] = None
    lat: Optional[float] = None
    source: str = ""
    cache_state: str = ""
    confidence: Optional[float] = None
    snapshot_version: Optional[int] = None
    trace_id: str = ""
    origin: str = ""
    ts_unix: float = 0.0
    error: str = ""
    version: int = PROVENANCE_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "key": self.key,
            "address_id": self.address_id,
            "status": self.status,
            "lng": self.lng,
            "lat": self.lat,
            "source": self.source,
            "cache_state": self.cache_state,
            "confidence": self.confidence,
            "snapshot_version": self.snapshot_version,
            "trace_id": self.trace_id,
            "origin": self.origin,
            "ts_unix": self.ts_unix,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ProvenanceRecord":
        return cls(
            key=str(doc.get("key", "")),
            address_id=str(doc.get("address_id", "")),
            status=str(doc.get("status", "")),
            lng=doc.get("lng"),
            lat=doc.get("lat"),
            source=str(doc.get("source", "")),
            cache_state=str(doc.get("cache_state", "")),
            confidence=doc.get("confidence"),
            snapshot_version=doc.get("snapshot_version"),
            trace_id=str(doc.get("trace_id", "")),
            origin=str(doc.get("origin", "")),
            ts_unix=float(doc.get("ts_unix", 0.0)),
            error=str(doc.get("error", "")),
            version=int(doc.get("version", PROVENANCE_VERSION)),
        )


def _number(x: Optional[float]) -> Optional[float]:
    """``x``, or ``None`` for a NaN."""
    return x if x == x else None


class ProvenanceRing:
    """Bounded retention for provenance records.

    ``capacity`` bounds the deterministic reservoir over routine
    answers; ``keep_capacity`` bounds the always-keep deque for
    errors / unknown ids / low-confidence answers.
    """

    def __init__(
        self,
        capacity: int = 512,
        keep_capacity: int = 128,
        low_confidence: float = DEFAULT_LOW_CONFIDENCE,
        origin: str = "main",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.low_confidence = float(low_confidence)
        self.origin = str(origin)
        #: A record's key: its origin and its mint sequence number.
        self._key_format = self.origin.replace("%", "%%") + ":%08d"
        self._lock = threading.Lock()
        self._reservoir: list[ProvenanceRecord] = []
        self._seen = 0  # routine records offered to the reservoir
        self._seq = 0
        self._kept: deque[ProvenanceRecord] = deque(maxlen=int(keep_capacity))

    # ------------------------------------------------------------------
    # Minting / retention
    # ------------------------------------------------------------------
    def _slot(self, key: str, status: str, error: Any,
              confidence: Any) -> Optional[int]:
        """The retention policy, decided for one answer under the lock
        before its record exists: :data:`_KEEP` for the always-keep
        deque (errors, unknown ids, low-confidence answers),
        :data:`_APPEND` while the reservoir fills, the reservoir slot the
        record replaces, or ``None`` to drop it unbuilt."""
        if status != "ok" or error or (
                confidence is not None and confidence < self.low_confidence):
            return _KEEP
        i = self._seen
        self._seen = i + 1
        if i < self.capacity:  # the reservoir holds one record per offer
            return _APPEND
        # Algorithm R with a deterministic draw: same stream of keys ->
        # same retained sample, run after run.
        slot = zlib.crc32(key.encode("utf-8")) % (i + 1)
        return slot if slot < self.capacity else None

    def _place(self, record: ProvenanceRecord, slot: int) -> None:
        if slot == _KEEP:
            self._kept.append(record)
        elif slot == _APPEND:
            self._reservoir.append(record)
        else:
            self._reservoir[slot] = record

    def mint(self, address_id: str, status: str, **fields: Any) -> str:
        """Key one served answer, retain its record per policy; returns the key.

        Retention is decided from the key and the fields before a record
        exists, so a routine answer the reservoir drops costs one key
        format and one CRC, and no record is built for it.
        """
        status = str(status)
        with self._lock:
            key = self._key_format % self._seq
            self._seq += 1
            slot = self._slot(key, status, fields.get("error"),
                              fields.get("confidence"))
            if slot is not None:
                self._place(ProvenanceRecord(
                    key=key,
                    address_id=str(address_id),
                    status=status,
                    origin=self.origin,
                    ts_unix=time.time(),
                    **fields,
                ), slot)
        return key

    def mint_rows(
        self,
        address_ids: Sequence[str],
        statuses: Sequence[str],
        lng: Sequence[Optional[float]],
        lat: Sequence[Optional[float]],
        sources: Sequence[str],
        cache_states: Sequence[str],
        confidences: Sequence[Optional[float]],
        errors: Mapping[int, str],
        snapshot_version: Optional[int] = None,
        trace_id: str = "",
    ) -> list[str]:
        """:meth:`mint` a batch of answers given as columns; returns their keys.

        Row ``i`` is what ``mint(address_ids[i], statuses[i], lng=lng[i],
        ..., error=errors.get(i, ""))`` would mint, with the batch's
        ``snapshot_version`` and ``trace_id``: the same key, the same
        retention decision, the same record.  A NaN in ``lng``, ``lat``
        or ``confidences`` is recorded as ``None``.  The lock is taken
        once, the keys are formatted in one pass, and a record is built
        only for a row that is kept; the batch's records share one
        ``ts_unix``.
        """
        n = len(address_ids)
        now = time.time()
        with self._lock:
            seq = self._seq
            self._seq += n
            keys = [self._key_format % s for s in range(seq, seq + n)]
            for i, key in enumerate(keys):
                error = errors.get(i, "")
                slot = self._slot(key, statuses[i], error, confidences[i])
                if slot is not None:
                    self._place(ProvenanceRecord(
                        key, str(address_ids[i]), statuses[i],
                        _number(lng[i]), _number(lat[i]), sources[i],
                        cache_states[i], _number(confidences[i]),
                        snapshot_version, trace_id, self.origin, now, error,
                    ), slot)
        return keys

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def records(self) -> list[ProvenanceRecord]:
        """Every retained record, newest first, always-keep included."""

        with self._lock:
            merged = {r.key: r for r in self._reservoir}
            merged.update((r.key, r) for r in self._kept)
        return sorted(
            merged.values(), key=lambda r: (r.ts_unix, r.key), reverse=True
        )

    def find(self, address_id: str) -> list[ProvenanceRecord]:
        wanted = str(address_id)
        return [r for r in self.records() if r.address_id == wanted]

    def __len__(self) -> int:
        with self._lock:
            return len(self._reservoir) + len(self._kept)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def write_jsonl(self, path: PathLike) -> pathlib.Path:
        """Atomically persist the ring (see :func:`repro.durable.atomic_write`)."""

        return write_jsonl(path, (r.to_dict() for r in self.records()))

    def persist(self, path: PathLike) -> None:
        """Best-effort :meth:`write_jsonl` of a non-empty ring: forensics
        must never take the serving process down."""
        if len(self) > 0:
            try:
                self.write_jsonl(path)
            except OSError:
                pass


# ----------------------------------------------------------------------
# Global default ring
# ----------------------------------------------------------------------
_RING: ProvenanceRing | None = None
_RING_LOCK = threading.Lock()


def get_provenance_ring() -> ProvenanceRing:
    global _RING
    with _RING_LOCK:
        if _RING is None:
            _RING = ProvenanceRing()
        return _RING


def set_provenance_ring(ring: ProvenanceRing | None) -> ProvenanceRing | None:
    global _RING
    with _RING_LOCK:
        previous = _RING
        _RING = ring
        return previous


def reset_provenance_ring() -> None:
    set_provenance_ring(None)


# ----------------------------------------------------------------------
# Reading + merge
# ----------------------------------------------------------------------
def read_provenance(path: PathLike) -> tuple[list[ProvenanceRecord], int]:
    """Load one provenance JSONL file -> ``(records, n_torn_lines)``."""

    docs, n_torn = read_jsonl(path)
    records = []
    for doc in docs:
        if doc.get("version", PROVENANCE_VERSION) > PROVENANCE_VERSION:
            n_torn += 1  # future schema we cannot interpret: skip, count
            continue
        records.append(ProvenanceRecord.from_dict(doc))
    return records, n_torn


def merge_provenance(
    paths: Sequence[PathLike],
    out: PathLike | None = None,
) -> tuple[list[ProvenanceRecord], dict[str, Any]]:
    """Fold per-origin provenance files into one newest-first list.

    Mirrors ``trace_dump``: unreadable files are skipped (counted), torn
    tails are skipped (counted), duplicate keys keep the newest record.
    """

    merged: dict[str, ProvenanceRecord] = {}
    stats = {"n_files": 0, "n_unreadable_files": 0, "n_torn_lines": 0, "n_records": 0}
    for path in paths:
        try:
            records, n_torn = read_provenance(path)
        except OSError:
            stats["n_unreadable_files"] += 1
            continue
        stats["n_files"] += 1
        stats["n_torn_lines"] += n_torn
        for record in records:
            existing = merged.get(record.key)
            if existing is None or record.ts_unix >= existing.ts_unix:
                merged[record.key] = record
    records = sorted(
        merged.values(), key=lambda r: (r.ts_unix, r.key), reverse=True
    )
    stats["n_records"] = len(records)
    if out is not None:
        write_jsonl(out, (r.to_dict() for r in records))
    return records, stats


# ----------------------------------------------------------------------
# Rendering (``repro explain``)
# ----------------------------------------------------------------------
def render_record(record: ProvenanceRecord) -> str:
    """Multi-line human rendering of one evidence chain."""

    lines = [
        f"provenance {record.key}  address={record.address_id}  "
        f"status={record.status}",
    ]
    if record.lng is not None and record.lat is not None:
        lines.append(f"  location     ({record.lng:.6f}, {record.lat:.6f})")
    tier = " / ".join(x for x in (record.source, record.cache_state) if x)
    if tier:
        lines.append(f"  tier         {tier}")
    if record.confidence is not None:
        lines.append(f"  confidence   {record.confidence:.4f}")
    if record.snapshot_version is not None:
        lines.append(f"  snapshot     v{record.snapshot_version}")
    if record.trace_id:
        lines.append(f"  trace        {record.trace_id}")
    if record.error:
        lines.append(f"  error        {record.error}")
    return "\n".join(lines)
