"""Columnar snapshot files: the location store as flat numpy arrays.

The in-process :class:`~repro.serve.shard.StoreSnapshot` is two python
dicts — the fastest per-id lookup inside one interpreter and a one-reference
swap on refresh, but it cannot cross a process boundary without pickling
the world.  This module serializes one store generation into a single
file of flat arrays, which is what the worker processes map:

* an address-id hash table (``hash_sorted``/``hash_row``: blake2b-64 of
  the id, sorted, plus the row permutation) for O(log n) vectorized id
  lookup via ``np.searchsorted``;
* per-row columns — inferred location (``loc_lng``/``loc_lat``, NaN when
  the address has no inferred location), geocode, confidence (float32,
  NaN when unscored), building-row link, POI category, and the raw id /
  address-text bytes as offset-indexed blobs;
* rows grouped by the store's shard key (``shard_offsets``) so a worker
  owning shard *k* touches one contiguous slice;
* the global building fallback table (``bld_*``).

Files written before the spatial index was retired also carry six
``sp_*`` arrays; readers map them like any other array and never use
them.

Layout: 8-byte magic, little-endian uint64 header length, a JSON header
(array dtypes/shapes/offsets/CRCs + snapshot metadata), then 64-byte
aligned array payloads.  :func:`load_snapshot` maps the file with
``np.memmap`` — loads are zero-copy and N worker processes share one
page-cache copy.  Publishing is tmp-file + fsync + atomic rename, so a
reader can never map a torn file; per-array CRC32 checksums let the
crash-recovery path (:meth:`repro.serve.shard.ShardedLocationStore.restore`)
reject a partially written snapshot that an unclean shutdown left behind.

One documented approximation: id lookup trusts the 64-bit hash unless the
table itself contains duplicate hashes (then it falls back to comparing
id bytes within the duplicate run).  A *foreign* id colliding with a
stored hash would mis-resolve with probability ~2^-64 per query — the
standard content-hash trade, and far below the serving tier's error
budget.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.apps.store import QueryResult, QuerySource, UnknownAddressError
from repro.durable import atomic_write
from repro.geo import Point
from repro.trajectory import Address

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.shard import ShardedLocationStore

MAGIC = b"RSNAP001"
_ALIGN = 64

#: Precision the header records when the shard strategy has none (the hash
#: strategy).  :meth:`ShardedLocationStore.restore` reads the header's
#: precision to re-seat a :class:`~repro.serve.shard.GeohashShardStrategy`.
DEFAULT_SPATIAL_PRECISION = 6


#: Answering tier by the code :meth:`ColumnarSnapshot.answers` picks.
TIERS = (QuerySource.ADDRESS, QuerySource.BUILDING, QuerySource.GEOCODE)


def hash_ids(address_ids: Sequence[str]) -> np.ndarray:
    """Stable 64-bit hash of every id, in order (blake2b, 8-byte digest,
    read little-endian).

    A hash names an id in every snapshot version (a row number does
    not), so the process router hashes a batch once and routes and
    sends by these hashes.
    """
    return np.frombuffer(b"".join([
        blake2b(a.encode("utf-8"), digest_size=8).digest() for a in address_ids
    ]), dtype="<u8")


def _pack_strings(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate utf-8 strings into (blob uint8, offsets int64)."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _string_at(blob: np.ndarray, offsets: np.ndarray, i: int) -> str:
    return bytes(blob[offsets[i] : offsets[i + 1]]).decode("utf-8")


@dataclass(frozen=True)
class SnapshotInfo:
    """What :func:`write_snapshot` produced."""

    path: str
    version: int
    n_rows: int
    n_shards: int
    nbytes: int


class SnapshotCorruptError(ValueError):
    """A snapshot file failed magic/header/CRC validation."""


def build_columnar_arrays(
    store: "ShardedLocationStore",
    confidences: dict[str, float] | None = None,
) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten the store's current snapshot into named arrays + metadata.

    Rows cover every address in the store's address book (the id-keyed
    query contract: ids outside the book raise
    :class:`UnknownAddressError`, so out-of-book locations are not
    servable by id and are not serialized), grouped by shard and sorted
    by id within a shard for deterministic diffs across rebuilds.
    """
    snapshot = store.snapshot()
    addresses = store.address_book
    strategy = store.strategy
    n_shards = strategy.n_shards
    confidences = confidences or {}

    per_shard: list[list[str]] = [[] for _ in range(n_shards)]
    for address_id, address in addresses.items():
        per_shard[strategy.shard_of(address_id, address)].append(address_id)
    for bucket in per_shard:
        bucket.sort()
    ids: list[str] = [a for bucket in per_shard for a in bucket]
    n = len(ids)

    shard_offsets = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(
        np.array([len(b) for b in per_shard], dtype=np.int64),
        out=shard_offsets[1:],
    )

    buildings = sorted({addresses[a].building_id for a in ids})
    bld_index = {b: i for i, b in enumerate(buildings)}

    loc_lng = np.full(n, np.nan)
    loc_lat = np.full(n, np.nan)
    geo_lng = np.empty(n)
    geo_lat = np.empty(n)
    confidence = np.full(n, np.nan, dtype=np.float32)
    building_row = np.empty(n, dtype=np.int32)
    poi = np.empty(n, dtype=np.int16)
    for i, address_id in enumerate(ids):
        address = addresses[address_id]
        point = snapshot.by_address.get(address_id)
        if point is not None:
            loc_lng[i] = point.lng
            loc_lat[i] = point.lat
        geo_lng[i] = address.geocode.lng
        geo_lat[i] = address.geocode.lat
        conf = confidences.get(address_id)
        if conf is not None:
            confidence[i] = conf
        building_row[i] = bld_index[address.building_id]
        poi[i] = address.poi_category

    bld_lng = np.full(len(buildings), np.nan)
    bld_lat = np.full(len(buildings), np.nan)
    for building_id, point in snapshot.by_building.items():
        row = bld_index.get(building_id)
        if row is not None:
            bld_lng[row] = point.lng
            bld_lat[row] = point.lat

    hashes = hash_ids(ids)
    order = np.argsort(hashes, kind="stable").astype(np.int64)

    id_blob, id_offsets = _pack_strings(ids)
    text_blob, text_offsets = _pack_strings(addresses[a].text for a in ids)
    bld_blob, bld_offsets = _pack_strings(buildings)

    precision = getattr(strategy, "precision", DEFAULT_SPATIAL_PRECISION)

    arrays = {
        "id_blob": id_blob,
        "id_offsets": id_offsets,
        "text_blob": text_blob,
        "text_offsets": text_offsets,
        "hash_sorted": hashes[order],
        "hash_row": order,
        "shard_offsets": shard_offsets,
        "loc_lng": loc_lng,
        "loc_lat": loc_lat,
        "geo_lng": geo_lng,
        "geo_lat": geo_lat,
        "confidence": confidence,
        "building_row": building_row,
        "poi": poi,
        "bld_blob": bld_blob,
        "bld_offsets": bld_offsets,
        "bld_lng": bld_lng,
        "bld_lat": bld_lat,
    }
    meta = {
        "version": snapshot.version,
        "n_rows": n,
        "n_shards": n_shards,
        "precision": int(precision),
        "strategy": type(strategy).__name__,
    }
    return arrays, meta


def write_snapshot(
    path: str | os.PathLike,
    store: "ShardedLocationStore",
    confidences: dict[str, float] | None = None,
) -> SnapshotInfo:
    """Serialize the store's current snapshot; publish is atomic.

    The file goes through :func:`repro.durable.atomic_write`, so a
    concurrent :func:`load_snapshot` of ``path`` sees either the previous
    complete file or the new complete file — never a torn one — and the
    rename survives a crash.
    """
    arrays, meta = build_columnar_arrays(store, confidences)
    path = os.fspath(path)

    header: dict = {"meta": meta, "arrays": {}}
    # Lay out payloads after a generously padded header; two passes would
    # be exact, but a fixed slack keeps offsets independent of JSON size
    # jitter and the header always fits real-world array counts.
    payload = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        header["arrays"][name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
            "crc32": zlib.crc32(arr.view(np.uint8).data) & 0xFFFFFFFF,
        }
        payload.append((offset, arr))
        offset += arr.nbytes

    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data_start = len(MAGIC) + 8 + len(header_bytes)
    data_start = (data_start + _ALIGN - 1) // _ALIGN * _ALIGN

    def write(f) -> int:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        for arr_offset, arr in payload:
            f.seek(data_start + arr_offset)
            f.write(arr.view(np.uint8).data)
        # A trailing zero-length array seeks past EOF without writing;
        # extend the file to the full laid-out size so every header
        # offset (even an empty array's) is inside the mapping.
        f.truncate(max(data_start + offset, f.tell()))
        return f.seek(0, os.SEEK_END)

    nbytes = atomic_write(path, write)
    return SnapshotInfo(
        path=path,
        version=meta["version"],
        n_rows=meta["n_rows"],
        n_shards=meta["n_shards"],
        nbytes=nbytes,
    )


class ColumnarSnapshot:
    """Zero-copy read view over one snapshot file.

    All array attributes are plain ``ndarray`` views of one ``np.memmap``
    — opening a snapshot touches only the header page; data pages fault
    in on first use and are shared between every process that maps the
    same file.  The views drop the ``memmap`` subclass, whose Python-level
    array hooks would cost about a microsecond per numpy call on the
    query path.
    """

    def __init__(self, path: str, header: dict, arrays: dict[str, np.ndarray]):
        self.path = path
        self.meta = header["meta"]
        self.version: int = self.meta["version"]
        self.n_rows: int = self.meta["n_rows"]
        self.n_shards: int = self.meta["n_shards"]
        self.precision: int = self.meta["precision"]
        self._a = arrays
        self._dup_hashes = bool(
            self.n_rows > 1
            and np.any(arrays["hash_sorted"][1:] == arrays["hash_sorted"][:-1])
        )

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["_a"][name]
        except KeyError:
            raise AttributeError(name) from None

    # -- id resolution ---------------------------------------------------
    def id_at(self, row: int) -> str:
        return _string_at(self._a["id_blob"], self._a["id_offsets"], row)

    def text_at(self, row: int) -> str:
        return _string_at(self._a["text_blob"], self._a["text_offsets"], row)

    def building_at(self, bld_row: int) -> str:
        return _string_at(self._a["bld_blob"], self._a["bld_offsets"], bld_row)

    def lookup_rows(self, address_ids: list[str]) -> np.ndarray:
        """Row index per id, ``-1`` for ids outside the address book."""
        return self.rows_of(address_ids, hash_ids(address_ids))

    def rows_of(self, address_ids: Sequence[str], hashes: np.ndarray) -> np.ndarray:
        """Row index per id from its :func:`hash_ids` hash, ``-1`` for ids
        outside the address book; the ids only settle equal hashes."""
        n = self.n_rows
        if n == 0 or not len(hashes):
            return np.full(len(hashes), -1, dtype=np.int64)
        hash_sorted = self._a["hash_sorted"]
        hash_row = self._a["hash_row"]
        pos = np.searchsorted(hash_sorted, hashes)
        clamped = np.minimum(pos, n - 1)
        found = hash_sorted[clamped] == hashes
        rows = np.where(found, hash_row[clamped], -1)
        if self._dup_hashes:
            # Rare path: disambiguate within equal-hash runs by id bytes.
            for i in np.flatnonzero(found):
                p = int(pos[i])
                row = -1
                while p < n and hash_sorted[p] == hashes[i]:
                    if self.id_at(int(hash_row[p])) == address_ids[i]:
                        row = int(hash_row[p])
                        break
                    p += 1
                rows[i] = row
        return rows

    def shards_for_ids(self, address_ids: list[str]) -> np.ndarray:
        """Shard per id; ``-1`` for unknown ids (caller picks a fallback)."""
        return self.shards_of(self.lookup_rows(address_ids))

    def shards_of(self, rows: np.ndarray) -> np.ndarray:
        """Shard per row index (rows are grouped by shard); ``-1`` for
        ``-1`` rows."""
        offsets = self._a["shard_offsets"]
        shards = np.searchsorted(offsets, rows, side="right").astype(np.int64) - 1
        shards[rows < 0] = -1
        return shards

    # -- query path ------------------------------------------------------
    def answers(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(tier, lng, lat, confidence)`` columns of the given rows.

        The tier indexes ``TIERS``: an address with an inferred location
        answers with it and its confidence (NaN where unset); the others
        fall back to their building's location, then to their geocode,
        with NaN confidence.  Each column is gathered once for all rows,
        and the fallback columns only for the rows that fall back.
        ``-1`` rows read row 0 (NaN without one): their values mean
        nothing.
        """
        a = self._a
        if not self.n_rows:  # every row is -1, and there is no row 0
            nan = np.full(len(rows), np.nan)
            return np.zeros(len(rows), dtype=np.int8), nan, nan, nan
        safe = np.maximum(rows, 0)
        lng = a["loc_lng"][safe]
        lat = a["loc_lat"][safe]
        conf = a["confidence"][safe]
        tier = np.zeros(len(safe), dtype=np.int8)
        fall = np.flatnonzero(np.isnan(lng))
        if len(fall):
            fall_rows = safe[fall]
            bld_rows = a["building_row"][fall_rows]
            bld_lng = a["bld_lng"][bld_rows]
            bld_ok = np.isfinite(bld_lng)
            tier[fall] = np.where(bld_ok, 1, 2)
            lng[fall] = np.where(bld_ok, bld_lng, a["geo_lng"][fall_rows])
            lat[fall] = np.where(bld_ok, a["bld_lat"][bld_rows],
                                 a["geo_lat"][fall_rows])
            conf[fall] = np.nan
        return tier, lng, lat, conf

    def resolve_batch(
        self, address_ids: list[str]
    ) -> dict[str, QueryResult | UnknownAddressError]:
        """Resolve many ids against this one generation, keyed by id; an
        unknown id's value is an :class:`UnknownAddressError` (not raised),
        so it cannot fail its batch-mates.  The answers are built from the
        plain floats of one ``tolist`` per :meth:`answers` column (NaN
        confidence reads as None)."""
        rows = self.lookup_rows(address_ids)
        known = (rows >= 0).tolist()
        columns = zip(known, *(col.tolist() for col in self.answers(rows)))
        return {
            a: QueryResult(Point(x, y), TIERS[t], c if c == c else None)
            if ok else UnknownAddressError(a)
            for a, (ok, t, x, y, c) in zip(address_ids, columns)
        }

    def query_id(self, address_id: str) -> QueryResult:
        result = self.resolve_batch([address_id])[address_id]
        if isinstance(result, UnknownAddressError):
            raise result
        return result

    # -- reconstruction (restore path) -----------------------------------
    def address_locations(self) -> dict[str, Point]:
        """Inferred locations as a dict (restore/diff path, not serving)."""
        out: dict[str, Point] = {}
        a = self._a
        for row in np.flatnonzero(np.isfinite(a["loc_lng"])):
            out[self.id_at(int(row))] = Point(
                float(a["loc_lng"][row]), float(a["loc_lat"][row])
            )
        return out

    def addresses(self) -> dict[str, Address]:
        """Rebuild the address book (:class:`repro.trajectory.Address`)."""
        a = self._a
        out: dict[str, Address] = {}
        for row in range(self.n_rows):
            address_id = self.id_at(row)
            out[address_id] = Address(
                address_id=address_id,
                text=self.text_at(row),
                building_id=self.building_at(int(a["building_row"][row])),
                geocode=Point(float(a["geo_lng"][row]), float(a["geo_lat"][row])),
                poi_category=int(a["poi"][row]),
            )
        return out


def load_snapshot(
    path: str | os.PathLike, verify: bool = False
) -> ColumnarSnapshot:
    """Map a snapshot file read-only; ``verify`` checks every array CRC.

    The hot path (worker reload) skips CRC verification — atomic-rename
    publishing guarantees the mapped file is complete — while the
    crash-recovery path passes ``verify=True`` to reject files a dying
    writer may have left behind under a non-final name or on a
    non-atomic filesystem.
    """
    path = os.fspath(path)
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    if raw.nbytes < len(MAGIC) + 8 or bytes(raw[: len(MAGIC)]) != MAGIC:
        raise SnapshotCorruptError(f"bad snapshot magic: {path}")
    header_len = int.from_bytes(bytes(raw[len(MAGIC) : len(MAGIC) + 8]), "little")
    header_end = len(MAGIC) + 8 + header_len
    if header_end > raw.nbytes:
        raise SnapshotCorruptError(f"truncated snapshot header: {path}")
    try:
        header = json.loads(bytes(raw[len(MAGIC) + 8 : header_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"unreadable snapshot header: {path}") from exc
    data_start = (header_end + _ALIGN - 1) // _ALIGN * _ALIGN
    raw = raw.view(np.ndarray)  # same mapping, without the subclass hooks
    arrays: dict[str, np.ndarray] = {}
    for name, spec in header["arrays"].items():
        if spec["nbytes"] == 0:  # no payload to map (or to corrupt)
            arrays[name] = np.empty(spec["shape"], dtype=spec["dtype"])
            continue
        start = data_start + spec["offset"]
        end = start + spec["nbytes"]
        if end > raw.nbytes:
            raise SnapshotCorruptError(f"truncated array {name!r}: {path}")
        view = raw[start:end]
        if verify and (zlib.crc32(view.data) & 0xFFFFFFFF) != spec["crc32"]:
            raise SnapshotCorruptError(f"CRC mismatch in array {name!r}: {path}")
        arrays[name] = view.view(spec["dtype"]).reshape(spec["shape"])
    return ColumnarSnapshot(path, header, arrays)


__all__ = [
    "ColumnarSnapshot",
    "SnapshotCorruptError",
    "SnapshotInfo",
    "build_columnar_arrays",
    "load_snapshot",
    "write_snapshot",
    "hash_ids",
    "DEFAULT_SPATIAL_PRECISION",
    "MAGIC",
    "TIERS",
]
