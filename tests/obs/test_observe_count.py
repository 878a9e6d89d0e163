"""Histogram observations with a count: ``n`` at once equals ``n`` singles."""

import math

import pytest

from repro.obs.exemplar import Exemplar
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.shm import MetricsPlane, SlotSpec, TierMetrics, scrape_planes

BOUNDS = (0.001, 0.01, 0.1, 1.0)
#: (value, count) pairs: every bucket, bounds exactly, and +Inf.
OBSERVATIONS = [(0.0004, 3), (0.01, 7), (0.0731, 512), (0.3, 1), (1.0, 2),
                (7.5, 5), (0.0731, 20)]
SPECS = (
    SlotSpec("histogram", "lat_seconds", (("cache", "miss"),),
             buckets=BOUNDS, exemplars=True),
)


def ex(value, key):
    return Exemplar(value, trace_id="t" * 32, provenance_key=key, ts_unix=1.0)


def assert_same_histogram(batched, singles):
    """Equal bucket counts and totals; sums within 1e-12 relative."""
    assert batched[0] == singles[0]
    assert batched[1] == singles[1]
    assert math.isclose(batched[2], singles[2], rel_tol=1e-12)


class TestHistogramFamily:
    def state(self, h, key):
        return list(h._counts[key]), h._totals[key], h._sums[key]

    def test_count_equals_repeated_single_observes(self):
        key = (("cache", "miss"),)
        batched, singles = Histogram("a", buckets=BOUNDS), Histogram("b", buckets=BOUNDS)
        for i, (value, n) in enumerate(OBSERVATIONS):
            batched.observe_key(key, value, ex(value, f"w0:{i}"), n)
            for _ in range(n):
                singles.observe_key(key, value, ex(value, f"w0:{i}"))
        assert_same_histogram(self.state(batched, key), self.state(singles, key))
        assert batched.exemplars(cache="miss") == singles.exemplars(cache="miss")

    def test_newest_exemplar_wins(self):
        key = ()
        h = Histogram("h", buckets=BOUNDS)
        h.observe_key(key, 0.05, ex(0.05, "old"))
        h.observe_key(key, 0.05, ex(0.05, "new"), 9)
        assert h.exemplars()[2].provenance_key == "new"
        assert h.count() == 10

    @pytest.mark.parametrize("n", [0, -1])
    def test_count_below_one_is_rejected(self, n):
        h = Histogram("h", buckets=BOUNDS)
        with pytest.raises(ValueError):
            h.observe_key((), 0.05, None, n)
        assert h.count() == 0


def scraped(directory):
    (snapshot,) = scrape_planes(str(directory))
    (slot,) = snapshot.slots
    return slot


class TestMetricsPlane:
    def test_count_equals_repeated_single_observes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        batched = MetricsPlane.create(str(tmp_path / "a" / "metrics-w0.shm"), SPECS)
        singles = MetricsPlane.create(str(tmp_path / "b" / "metrics-w0.shm"), SPECS)
        for i, (value, n) in enumerate(OBSERVATIONS):
            batched.observe(0, value, ex(value, f"w0:{i}"), n)
            for _ in range(n):
                singles.observe(0, value, ex(value, f"w0:{i}"))
        batched.close()
        singles.close()
        a, b = scraped(tmp_path / "a"), scraped(tmp_path / "b")
        assert_same_histogram((a.bucket_counts, a.count, a.sum),
                              (b.bucket_counts, b.count, b.sum))
        assert a.exemplars == b.exemplars

    def test_newest_exemplar_wins(self, tmp_path):
        plane = MetricsPlane.create(str(tmp_path / "metrics-w0.shm"), SPECS)
        plane.observe(0, 0.05, ex(0.05, "old"))
        plane.observe(0, 0.05, ex(0.05, "new"), 4)
        plane.close()
        slot = scraped(tmp_path)
        assert slot.count == 5
        assert slot.exemplars[2].provenance_key == "new"

    @pytest.mark.parametrize("n", [0, -3])
    def test_count_below_one_is_rejected(self, tmp_path, n):
        plane = MetricsPlane.create(str(tmp_path / "metrics-w0.shm"), SPECS)
        with pytest.raises(ValueError):
            plane.observe(0, 0.05, None, n)
        plane.close()
        assert scraped(tmp_path).count == 0


class TestTierMetrics:
    def tier(self, directory):
        directory.mkdir()
        return TierMetrics(MetricsRegistry(), SPECS,
                           str(directory / "metrics-w0.shm"))

    def test_count_equals_repeated_single_observes(self, tmp_path):
        batched, singles = self.tier(tmp_path / "a"), self.tier(tmp_path / "b")
        for i, (value, n) in enumerate(OBSERVATIONS):
            batched.observe("lat_seconds", value, ex(value, f"w0:{i}"), n,
                            cache="miss")
            for _ in range(n):
                singles.observe("lat_seconds", value, ex(value, f"w0:{i}"),
                                cache="miss")
        fam_a, fam_b = batched.family("lat_seconds"), singles.family("lat_seconds")
        assert fam_a.samples()[0]["buckets"] == fam_b.samples()[0]["buckets"]
        assert fam_a.count(cache="miss") == fam_b.count(cache="miss") == sum(
            n for _, n in OBSERVATIONS)
        assert math.isclose(fam_a.sum(cache="miss"), fam_b.sum(cache="miss"),
                            rel_tol=1e-12)
        assert fam_a.exemplars(cache="miss") == fam_b.exemplars(cache="miss")
        batched.close()
        singles.close()
        a, b = scraped(tmp_path / "a"), scraped(tmp_path / "b")
        assert_same_histogram((a.bucket_counts, a.count, a.sum),
                              (b.bucket_counts, b.count, b.sum))

    def test_count_below_one_is_rejected(self, tmp_path):
        tier = self.tier(tmp_path / "a")
        with pytest.raises(ValueError):
            tier.observe("lat_seconds", 0.05, None, 0, cache="miss")
        assert tier.family("lat_seconds").count(cache="miss") == 0
        tier.close()
        assert scraped(tmp_path / "a").count == 0
