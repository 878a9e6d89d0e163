import numpy as np
import pytest

from repro.core import AddressExample, make_variant_selector
from repro.core.features import COL_DIST, COL_LC_BUILDING, COL_TC, N_FEATURES
from repro.core.selectors import HeuristicSelector
from tests.core.test_locmatcher import synthetic_examples


def example_with(tc, lc, dist):
    n = len(tc)
    feats = np.zeros((n, N_FEATURES))
    feats[:, COL_TC] = tc
    feats[:, COL_LC_BUILDING] = lc
    feats[:, COL_DIST] = dist
    return AddressExample("a", list(range(n)), feats, n_deliveries=3, poi_category=0)


class TestHeuristicSelector:
    def test_mindist(self):
        ex = example_with([0.5, 1.0], [0.0, 0.0], [120.0, 30.0])
        assert HeuristicSelector("mindist").predict_index(ex) == 1

    def test_maxtc(self):
        ex = example_with([0.4, 0.9, 0.6], [0.0, 0.5, 0.0], [10.0, 10.0, 10.0])
        assert HeuristicSelector("maxtc").predict_index(ex) == 1

    def test_maxtc_ilc_penalizes_common_locations(self):
        # Same TC; the low-LC candidate must win.
        ex = example_with([1.0, 1.0], [0.9, 0.01], [10.0, 10.0])
        assert HeuristicSelector("maxtc-ilc").predict_index(ex) == 1

    def test_maxtc_ilc_low_tc_cannot_win_on_zero_lc(self):
        # A spot visited once but never shared must not beat the
        # always-visited true spot (the smoothing regression test).
        ex = example_with([0.2, 1.0], [0.0, 0.15], [10.0, 10.0])
        assert HeuristicSelector("maxtc-ilc").predict_index(ex) == 1

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            HeuristicSelector("best")

    def test_fit_noop(self):
        sel = HeuristicSelector("maxtc")
        assert sel.fit() is sel


class TestVariantSelectors:
    @pytest.mark.parametrize("name", ["gbdt", "rf", "mlp", "rkdt", "rknet"])
    def test_variant_learns_synthetic_rule(self, name):
        train = synthetic_examples(60, seed=0)
        test = synthetic_examples(30, seed=42)
        selector = make_variant_selector(name, seed=0)
        selector.fit(train)
        acc = np.mean([selector.predict_index(e) == e.label for e in test])
        assert acc > 0.6, f"{name} accuracy {acc}"

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_variant_selector("transformer-xl")

    def test_heuristics_via_factory(self):
        assert isinstance(make_variant_selector("mindist"), HeuristicSelector)

    def test_classifier_requires_labels(self):
        examples = synthetic_examples(5, seed=1)
        for e in examples:
            e.label = None
        with pytest.raises(ValueError):
            make_variant_selector("gbdt").fit(examples)

    def test_unfitted_raises(self):
        ex = synthetic_examples(1)[0]
        with pytest.raises(RuntimeError):
            make_variant_selector("gbdt").scores(ex)
        with pytest.raises(RuntimeError):
            make_variant_selector("rkdt").scores(ex)
