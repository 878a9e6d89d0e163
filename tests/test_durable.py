"""The durability module: atomic writes, torn-tolerant JSONL, appenders.

Crash injection fails each step of :func:`repro.durable.atomic_write` —
the write callback, the file fsync, the rename and the directory fsync —
under every kind of file the system writes.  A reader must then see the
complete old file or the complete new one, and no temp file may remain.
"""

import builtins
import json
import os
import pathlib
import re
import stat

import numpy as np
import pytest

from repro import durable
from repro.core.persistence import load_locations, save_locations
from repro.durable import (
    LineAppender,
    append_record,
    atomic_write,
    read_jsonl,
    to_jsonable,
    write_jsonl,
)
from repro.obs.provenance import ProvenanceRing, read_provenance
from repro.obs.recorder import FlightRecorder, load_blackbox
from repro.obs.shm import MetricsPlane, SlotSpec
from repro.obs.trace import merge_traces, read_trace_stats
from repro.serve import ShardedLocationStore, SnapshotPublisher, VersionCounter
from repro.serve.columnar import load_snapshot
from repro.synth.io import load_trips, save_trips
from tests.core.helpers import make_address, make_trip, point_at

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestReadJsonl:
    def test_binary_garbage_is_counted_as_torn(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_bytes(b'{"a": 1}\n\xff\xfe\x00garbage\n{"b": 2}\n')
        docs, n_torn = read_jsonl(path)
        assert docs == [{"a": 1}, {"b": 2}]
        assert n_torn == 1

    def test_truncated_tail_and_non_objects_are_torn(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n\n[1, 2]\n{"b": 2}\n{"c": ', encoding="utf-8")
        docs, n_torn = read_jsonl(path)
        assert docs == [{"a": 1}, {"b": 2}]
        assert n_torn == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_jsonl(tmp_path / "gone.jsonl")

    def test_write_jsonl_round_trips(self, tmp_path):
        docs = [{"b": 2, "a": [1, 2]}, {"c": None}]
        path = write_jsonl(tmp_path / "sub" / "out.jsonl", docs)
        assert read_jsonl(path) == (docs, 0)


class TestAtomicWrite:
    def test_returns_callback_result_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.bin"
        assert atomic_write(path, lambda fh: fh.write(b"xyz")) == 3
        assert path.read_bytes() == b"xyz"
        assert os.listdir(path.parent) == ["f.bin"]

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old old old")
        atomic_write(path, lambda fh: fh.write(b"new"))
        assert path.read_bytes() == b"new"


class TestAppenders:
    def test_append_record_accumulates(self, tmp_path):
        path = tmp_path / "log.bin"
        append_record(path, b"ab")
        append_record(path, b"cd")
        assert path.read_bytes() == b"abcd"

    def test_line_appender_drops_lines_after_close(self, tmp_path):
        sink = LineAppender(tmp_path / "sub" / "lines.jsonl")
        sink.append('{"n": 1}')
        sink.close()
        sink.append('{"n": 2}')  # must not raise
        sink.close()
        assert read_jsonl(sink.path) == ([{"n": 1}], 0)


class TestToJsonable:
    def test_coerces_nested_values(self):
        class WithDict:
            def to_dict(self):
                return {"k": (1, 2)}

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        value = {
            1: [np.int64(3), np.float32(0.5), True, None],
            "s": frozenset(["x"]),
            "d": WithDict(),
            "o": Opaque(),
        }
        assert to_jsonable(value) == {
            "1": [3, 0.5, True, None],
            "s": ["x"],
            "d": {"k": [1, 2]},
            "o": "<opaque>",
        }
        json.dumps(to_jsonable(value))


#: Calls that bypass :mod:`repro.durable`: renames and fsyncs, and
#: whole-file writes that a crash can leave truncated (numpy's savers
#: given a path write it in place).
BYPASS = re.compile(
    r"os\.replace\(|os\.fsync\(|\.write_text\("
    r"|\bopen\([^)\n]*,\s*(?:mode\s*=\s*)?[\"']w"
    r"|\b(?:np|numpy)\.save\w*\("
)


def test_only_durable_calls_replace_or_fsync():
    """The durability policy stays behind one module: nothing else
    renames, fsyncs, or writes a whole file with ``Path.write_text``,
    ``open(..., "w")`` or ``np.save*``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() == "durable.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if BYPASS.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, offenders


# ----------------------------------------------------------------------
# Crash injection: one case per file kind x failing step
# ----------------------------------------------------------------------
class _TornWriter:
    """A file handle whose first write lands half its bytes, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(bytes(data)[: max(1, len(data) // 2)])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _fail_write(monkeypatch):
    def fake_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _TornWriter(fh) if mode == "xb" else fh

    monkeypatch.setattr(durable, "open", fake_open, raising=False)


def _fail_fsync(monkeypatch, on_dir):
    real = os.fsync

    def fake_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode) == on_dir:
            raise OSError("fsync failed")
        real(fd)

    monkeypatch.setattr(os, "fsync", fake_fsync)


def _fail_replace(monkeypatch):
    def fake_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fake_replace)


#: failing step -> (installer, whether the new file is in place after it)
FAILURES = {
    "write_fn": (_fail_write, False),
    "file_fsync": (lambda mp: _fail_fsync(mp, on_dir=False), False),
    "replace": (_fail_replace, False),
    "dir_fsync": (lambda mp: _fail_fsync(mp, on_dir=True), True),
}


def _snapshot_kind(tmp_path):
    addresses = {f"m{i}": make_address(f"m{i}", "b0", (i * 40.0, 0.0)) for i in range(6)}
    store = ShardedLocationStore(
        {f"m{i}": point_at(i * 40.0 + 5.0, 3.0) for i in range(4)}, addresses
    )
    publisher = SnapshotPublisher(str(tmp_path))
    first = store.version

    def write(generation):
        if generation == 2:
            store.update({"m0": point_at(99.0, 9.0)})
        publisher.publish(store)

    def read():
        versions = publisher.snapshot_versions()
        for version in versions:  # every listed file is complete
            load_snapshot(publisher.path_for(version), verify=True)
        return versions

    return write, read, [first], [first, first + 1]


def _counter_kind(tmp_path):
    path = str(tmp_path / "CURRENT")

    def write(generation):
        if generation == 2:
            VersionCounter(path, create=True).close()

    def read():
        if not os.path.exists(path):
            return None
        counter = VersionCounter(path)
        try:
            return counter.get()
        finally:
            counter.close()

    return write, read, None, 0


def _plane_kind(tmp_path):
    path = str(tmp_path / "metrics-worker-0.shm")
    specs = {
        1: [SlotSpec("counter", "a_total")],
        2: [SlotSpec("counter", "a_total"), SlotSpec("counter", "b_total")],
    }

    def write(generation):
        MetricsPlane.create(path, specs[generation]).close()

    def read():
        plane = MetricsPlane.open(path)
        try:
            return len(plane.specs)
        finally:
            plane.close()

    return write, read, 1, 2


def _provenance_kind(tmp_path):
    path = tmp_path / "provenance-worker-0.jsonl"

    def write(generation):
        ring = ProvenanceRing(capacity=16)
        for i in range(3 * generation):
            ring.mint(f"a{i}", "ok", confidence=0.9)
        ring.write_jsonl(path)

    def read():
        records, n_torn = read_provenance(path)
        assert n_torn == 0
        return len(records)

    return write, read, 3, 6


def _blackbox_kind(tmp_path):
    recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
    path = tmp_path / "blackbox-worker_crash-0000.json"

    def write(generation):
        if generation == 2:
            recorder.trigger("worker_crash", context={"worker": 0})

    def read():
        return load_blackbox(path)["trigger"] if path.exists() else None

    return write, read, None, "worker_crash"


def _locations_kind(tmp_path):
    path = tmp_path / "locations.json"
    tables = {
        generation: {f"a{i}": point_at(i * 10.0, 0.0) for i in range(2 * generation)}
        for generation in (1, 2)
    }

    def write(generation):
        save_locations(tables[generation], path)

    def read():
        return len(load_locations(path))

    return write, read, 2, 4


def _trips_kind(tmp_path):
    path = tmp_path / "trips.jsonl"
    trips = [
        make_trip(f"t{i}", "c1", [(100.0, 0.0, 60.0, 120.0)], [(f"a{i}", 200.0)])
        for i in range(3)
    ]

    def write(generation):
        save_trips(trips[: generation + 1], path)

    def read():
        return [trip.trip_id for trip in load_trips(path)]

    return write, read, ["t0", "t1"], ["t0", "t1", "t2"]


def _trace_kind(tmp_path):
    out = tmp_path / "merged.jsonl"
    inputs = {}
    for generation in (1, 2):
        inputs[generation] = tmp_path / f"spans-{generation}.jsonl"
        inputs[generation].write_text("".join(
            json.dumps({"trace_id": f"t{i}", "span_id": f"s{i}",
                        "parent_id": None, "status": "error",
                        "duration_s": 0.01, "start_unix": float(i)}) + "\n"
            for i in range(generation)
        ))

    def write(generation):
        merge_traces([inputs[generation]], out)

    def read():
        spans, n_torn = read_trace_stats(out)
        assert n_torn == 0
        return len(spans)

    return write, read, 1, 2


KINDS = {
    "snapshot": _snapshot_kind,
    "version_counter": _counter_kind,
    "shm_plane": _plane_kind,
    "provenance_ring": _provenance_kind,
    "blackbox_dump": _blackbox_kind,
    "merged_trace": _trace_kind,
    "locations": _locations_kind,
    "trips": _trips_kind,
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_crash_leaves_old_or_new_file_and_no_temp(kind, failure, tmp_path, monkeypatch):
    write, read, old, new = KINDS[kind](tmp_path)
    write(1)
    assert read() == old
    install, new_in_place = FAILURES[failure]
    install(monkeypatch)
    with pytest.raises(OSError):
        write(2)
    monkeypatch.undo()
    assert read() == (new if new_in_place else old)
    leftovers = [name for _, _, names in os.walk(tmp_path) for name in names
                 if ".tmp." in name]
    assert leftovers == []


def test_killed_writer_temp_file_is_not_a_snapshot_version(tmp_path):
    # SIGKILL skips the cleanup; the stray temp must never be listed.
    publisher = SnapshotPublisher(str(tmp_path))
    stray = publisher.path_for(2) + ".tmp.4242.deadbeef"
    pathlib.Path(stray).write_bytes(b"RSNAP001")
    assert publisher.snapshot_versions() == []
