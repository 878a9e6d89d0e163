"""Exemplars: value objects, histogram attachment, OpenMetrics rendering."""

import pytest

from repro.obs.exemplar import Exemplar, pick_latest
from repro.obs.metrics import Histogram, MetricsRegistry


class TestExemplar:
    def test_dict_roundtrip(self):
        ex = Exemplar(0.25, trace_id="abc123", provenance_key="w0:00000007",
                      ts_unix=1234.5)
        assert Exemplar.from_dict(ex.to_dict()) == ex

    def test_labels_text_is_openmetrics_shaped(self):
        ex = Exemplar(0.25, trace_id="abc", provenance_key="k1", ts_unix=1.0)
        text = ex.labels_text()
        assert text.startswith("{") and text.endswith("}")
        assert 'trace_id="abc"' in text
        assert 'provenance_key="k1"' in text

    def test_pick_latest_prefers_higher_timestamp(self):
        old = Exemplar(1.0, trace_id="a", provenance_key="x", ts_unix=10.0)
        new = Exemplar(2.0, trace_id="b", provenance_key="y", ts_unix=20.0)
        assert pick_latest(old, new) is new
        assert pick_latest(new, old) is new
        assert pick_latest(None, old) is old
        assert pick_latest(old, None) is old
        assert pick_latest(None, None) is None


class TestHistogramExemplars:
    def _hist(self):
        return Histogram("lat", "latency", buckets=(0.1, 1.0))

    def test_observe_attaches_to_the_right_bucket(self):
        h = self._hist()
        h.observe(0.05, exemplar=Exemplar.now(0.05, "t1", "k1"))
        h.observe(0.5, exemplar=Exemplar.now(0.5, "t2", "k2"))
        h.observe(5.0, exemplar=Exemplar.now(5.0, "t3", "k3"))
        stored = h.exemplars()
        assert [e.trace_id for e in stored] == ["t1", "t2", "t3"]

    def test_samples_include_exemplars_only_when_present(self):
        h = self._hist()
        h.observe(0.05)
        assert all("exemplars" not in s for s in h.samples())
        h.observe(0.5, exemplar=Exemplar.now(0.5, "t2", "k2"))
        with_ex = [s for s in h.samples() if "exemplars" in s]
        assert with_ex, "exemplar-bearing sample missing"

    def test_merge_exemplars_newest_wins(self):
        h = self._hist()
        h.observe(0.05,
                  exemplar=Exemplar(0.05, "old", "k", ts_unix=1.0))
        h.merge_exemplars(
            (Exemplar(0.06, "new", "k2", ts_unix=2.0), None, None)
        )
        assert h.exemplars()[0].trace_id == "new"

    def test_merge_exemplars_rejects_wrong_arity(self):
        h = self._hist()
        with pytest.raises(ValueError):
            h.merge_exemplars((None,))

    def test_prometheus_text_carries_exemplar_suffix(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05, exemplar=Exemplar(0.05, "tr", "pk", ts_unix=3.0))
        text = registry.to_prometheus(exemplars=True)
        lines = [ln for ln in text.splitlines() if "# {" in ln]
        assert lines, text
        assert 'trace_id="tr"' in lines[0]
        plain = registry.to_prometheus()
        assert "# {" not in plain
