"""Sampling profiler: capture, exports, overhead; tracemalloc snapshots."""

import json
import time

import pytest

from repro.obs.prof import (
    MemoryProfiler,
    SamplingProfiler,
    StackProfile,
    active_memory_profiler,
    configure_memory_profiling,
    disable_memory_profiling,
)


def _spin(seconds: float) -> int:
    """A busy loop the sampler can catch by name."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestStackProfile:
    @pytest.fixture()
    def profile(self):
        return StackProfile(
            hz=100.0, duration_s=0.1, n_ticks=10,
            samples={
                ("main.py:main", "work.py:outer", "work.py:inner"): 6,
                ("main.py:main", "work.py:outer"): 4,
            },
        )

    def test_top_self_vs_total(self, profile):
        rows = {frame: (self_s, total_s) for frame, self_s, total_s in profile.top()}
        assert rows["work.py:inner"] == (pytest.approx(0.06), pytest.approx(0.06))
        # outer: leaf on 4 ticks, present on all 10.
        assert rows["work.py:outer"] == (pytest.approx(0.04), pytest.approx(0.10))
        assert rows["main.py:main"][0] == 0.0

    def test_collapsed_format(self, profile):
        lines = profile.to_collapsed().splitlines()
        assert "main.py:main;work.py:outer;work.py:inner 6" in lines
        assert "main.py:main;work.py:outer 4" in lines

    def test_speedscope_document(self, profile):
        doc = profile.to_speedscope(name="unit")
        assert doc["$schema"].endswith("file-format-schema.json")
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert "work.py:inner" in frames
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled" and prof["unit"] == "seconds"
        assert len(prof["samples"]) == len(prof["weights"]) == 2
        assert sum(prof["weights"]) == pytest.approx(0.10)
        # Sample rows index into the shared frame table.
        for row in prof["samples"]:
            assert all(0 <= idx < len(frames) for idx in row)

    def test_save_picks_format_by_suffix(self, profile, tmp_path):
        collapsed = profile.save(tmp_path / "p.collapsed")
        assert ";" in collapsed.read_text()
        speedscope = profile.save(tmp_path / "p.speedscope.json")
        assert json.loads(speedscope.read_text())["profiles"]


class TestSamplingProfiler:
    def test_captures_busy_function(self):
        # Spin until the sampler has ticked enough: a sampler thread starved
        # by other load on the host ticks late, not never.
        deadline = time.perf_counter() + 5.0
        with SamplingProfiler(hz=250) as profiler:
            while profiler.profile().n_ticks < 10 and time.perf_counter() < deadline:
                _spin(0.05)
        profile = profiler.profile()
        assert profile.n_ticks >= 10
        leaves = " ".join(
            frame for stack in profile.samples for frame in stack
        )
        assert "_spin" in leaves

    def test_excludes_its_own_sampler_thread(self):
        with SamplingProfiler(hz=200) as profiler:
            _spin(0.1)
        for stack in profiler.profile().samples:
            assert all("_run" != frame.split(":")[-1] or "prof.py" not in frame
                       for frame in stack)

    def test_start_twice_rejected(self):
        profiler = SamplingProfiler().start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError, match="not running"):
            SamplingProfiler().stop()

    def test_bad_hz_rejected(self):
        with pytest.raises(ValueError, match="hz must be > 0"):
            SamplingProfiler(hz=0)

    def test_overhead_is_bounded_at_default_rate(self):
        # Acceptance: sampling at 100 Hz costs a few percent, not tens.
        # Generous 20% bound keeps this robust on loaded CI runners.
        t0 = time.perf_counter()
        _spin(0.2)
        baseline = time.perf_counter() - t0
        profiler = SamplingProfiler(hz=100).start()
        try:
            t0 = time.perf_counter()
            _spin(0.2)
            profiled = time.perf_counter() - t0
        finally:
            profiler.stop()
        assert profiled <= baseline * 1.20


class TestMemoryProfiler:
    def test_snapshots_capture_labels_and_peak(self):
        profiler = MemoryProfiler(top_n=5).start()
        try:
            blob = ["x"] * 200_000
            snap = profiler.snapshot("stage_a")
            assert snap.label == "stage_a"
            assert snap.current_bytes > 0
            assert snap.peak_bytes >= snap.current_bytes > 0
            del blob
            profiler.snapshot("stage_b")
        finally:
            snaps = profiler.stop()
        assert [s.label for s in snaps] == ["stage_a", "stage_b"]

    def test_report_and_save(self, tmp_path):
        profiler = MemoryProfiler(top_n=3).start()
        try:
            profiler.snapshot("only")
        finally:
            profiler.stop()
        path = profiler.save(tmp_path / "mem.json")
        payload = json.loads(path.read_text())
        assert payload["snapshots"][0]["label"] == "only"

    def test_snapshot_before_start_rejected(self):
        with pytest.raises(RuntimeError, match="not started"):
            MemoryProfiler().snapshot("x")

    def test_global_switchboard(self):
        assert active_memory_profiler() is None
        installed = configure_memory_profiling(top_n=0)
        try:
            assert active_memory_profiler() is installed
        finally:
            returned = disable_memory_profiling()
        assert returned is installed
        assert active_memory_profiler() is None

    def test_engine_stage_snapshot_through_run_context(self):
        from repro.core.run import RunContext

        configure_memory_profiling(top_n=0)
        try:
            ctx = RunContext("unit")
            with ctx.stage("stage_x"):
                _ = list(range(1000))
        finally:
            profiler = disable_memory_profiling()
        assert [s.label for s in profiler.snapshots] == ["unit:stage_x"]
