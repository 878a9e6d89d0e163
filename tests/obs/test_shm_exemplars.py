"""Schema evolution + exemplar slots on the shared-memory planes.

The exemplar upgrade must not strand existing fleets: pre-exemplar plane
files have to keep attaching (monotonic counters survive), old readers
have to scrape new planes' non-exemplar slots, and a torn exemplar write
must be caught by the same seqlock that guards the bucket counts.
"""

import struct

from repro.obs.exemplar import Exemplar
from repro.obs.shm import (
    MetricsPlane,
    SlotSpec,
    merge_snapshots,
)

PLAIN = (
    SlotSpec("counter", "reqs_total", (("status", "ok"),)),
    SlotSpec("histogram", "lat_seconds", buckets=(0.1, 1.0)),
)
WITH_EX = (
    SlotSpec("counter", "reqs_total", (("status", "ok"),)),
    SlotSpec("histogram", "lat_seconds", buckets=(0.1, 1.0),
             exemplars=True),
)


class TestSchemaEvolution:
    def test_plain_spec_dict_has_no_exemplars_key(self):
        # The byte-identical-schema attach contract: old specs must
        # serialize exactly as they did before the exemplar field existed.
        assert "exemplars" not in PLAIN[1].to_dict()
        assert WITH_EX[1].to_dict()["exemplars"] is True

    def test_pre_exemplar_plane_still_attaches(self, tmp_path):
        path = str(tmp_path / "metrics-w0.shm")
        plane = MetricsPlane.create(path, PLAIN)
        plane.inc(plane.slot("reqs_total", status="ok"), 5)
        plane.close()
        again = MetricsPlane.create(path, PLAIN)  # attach, not zero
        snap = again.read()
        counter = next(
            s for s in snap.slots if s.spec.name == "reqs_total"
        )
        assert counter.value == 5
        again.close()

    def test_exemplar_upgrade_recreates_not_corrupts(self, tmp_path):
        # Same metric family, new exemplar-bearing schema: the slot
        # layout changed, so create() must start a fresh plane rather
        # than attach and scribble exemplar bytes over foreign slots.
        path = str(tmp_path / "metrics-w0.shm")
        plane = MetricsPlane.create(path, PLAIN)
        plane.inc(plane.slot("reqs_total", status="ok"), 5)
        plane.close()
        upgraded = MetricsPlane.create(path, WITH_EX)
        snap = upgraded.read()
        counter = next(
            s for s in snap.slots if s.spec.name == "reqs_total"
        )
        assert counter.value == 0  # fresh plane, not a half-attach
        assert snap.n_torn == 0
        upgraded.close()

    def test_old_reader_scrapes_new_plane(self, tmp_path):
        # An old scraper build models the exemplar field defaulting off;
        # reading a new plane through the self-describing schema must
        # still produce correct counts (the schema carries the flag, so
        # offsets line up even for a reader that ignores exemplars).
        path = str(tmp_path / "metrics-w0.shm")
        plane = MetricsPlane.create(path, WITH_EX)
        h = plane.slot("lat_seconds")
        plane.observe(h, 0.05,
                      exemplar=Exemplar.now(0.05, "trace1", "w0:00000001"))
        plane.observe(h, 5.0)
        plane.close()
        reader = MetricsPlane.open(path)
        snap = reader.read()
        hist = next(
            s for s in snap.slots if s.spec.name == "lat_seconds"
        )
        assert sum(hist.bucket_counts) == 2
        assert hist.exemplars[0] is not None
        assert hist.exemplars[0].trace_id == "trace1"
        assert hist.exemplars[1] is None
        reader.close()

    def test_merge_carries_exemplars_into_registry(self, tmp_path):
        path = str(tmp_path / "metrics-w0.shm")
        plane = MetricsPlane.create(path, WITH_EX)
        plane.observe(plane.slot("lat_seconds"), 0.05,
                      exemplar=Exemplar.now(0.05, "tr", "pk"))
        snap = plane.read()
        registry = merge_snapshots([snap])
        hist = next(
            m for m in registry.metrics() if m.name == "lat_seconds"
        )
        assert hist.exemplars()[0].trace_id == "tr"
        text = registry.to_prometheus(exemplars=True)
        assert 'trace_id="tr"' in text
        plane.close()


class TestTornExemplarSeqlock:
    def _slot_offset(self, plane, name):
        index = plane.slot(name)
        return plane._offsets[index]

    def test_odd_epoch_marks_slot_torn(self, tmp_path):
        path = str(tmp_path / "metrics-w0.shm")
        plane = MetricsPlane.create(path, WITH_EX)
        h = plane.slot("lat_seconds")
        plane.observe(h, 0.05,
                      exemplar=Exemplar.now(0.05, "tr", "pk"))
        # Simulate a writer dying mid-exemplar-write: force the epoch odd.
        offset = self._slot_offset(plane, "lat_seconds")
        (epoch,) = struct.unpack_from("<Q", plane._mm, offset)
        struct.pack_into("<Q", plane._mm, offset, epoch + 1)
        snap = plane.read()
        hist = next(
            s for s in snap.slots if s.spec.name == "lat_seconds"
        )
        assert snap.n_torn == 1
        assert hist.torn
        # Heal the epoch: the same mapping reads clean again.
        struct.pack_into("<Q", plane._mm, offset, epoch + 2)
        snap2 = plane.read()
        assert snap2.n_torn == 0
        hist2 = next(
            s for s in snap2.slots if s.spec.name == "lat_seconds"
        )
        assert hist2.exemplars[0].trace_id == "tr"
        plane.close()

    def test_concurrent_writer_reader_never_sees_torn_exemplars(
        self, tmp_path
    ):
        import threading

        path = str(tmp_path / "metrics-w0.shm")
        plane = MetricsPlane.create(path, WITH_EX)
        reader = MetricsPlane.open(path)
        h = plane.slot("lat_seconds")
        stop = threading.Event()
        seen_bad = []

        def write():
            i = 0
            while not stop.is_set():
                trace = f"t{i:06d}"
                plane.observe(
                    h, 0.05,
                    exemplar=Exemplar(0.05, trace, trace, ts_unix=float(i + 1)),
                )
                i += 1

        def read():
            for _ in range(300):
                snap = reader.read()
                hist = next(
                    s for s in snap.slots if s.spec.name == "lat_seconds"
                )
                if hist.torn:
                    continue  # bounded-retry gave up; never half-read
                ex = hist.exemplars[0]
                if ex is not None and ex.trace_id != ex.provenance_key:
                    seen_bad.append(ex)

        w = threading.Thread(target=write)
        r = threading.Thread(target=read)
        w.start(); r.start()
        r.join(); stop.set(); w.join()
        assert not seen_bad
        reader.close()
        plane.close()
