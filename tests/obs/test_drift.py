"""PSI fingerprints: pool/matcher drift detection across refreshes."""

from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.obs.drift import (
    Fingerprint,
    bin_values,
    compare_fingerprints,
    matcher_fingerprint,
    pool_fingerprint,
    psi,
    save_drift_report,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def _pool(weights):
    return SimpleNamespace(
        candidates=[SimpleNamespace(weight=w) for w in weights]
    )


def _profiles(durations):
    return {f"c{i}": SimpleNamespace(avg_duration_s=d)
            for i, d in enumerate(durations)}


def _examples(counts):
    return {f"a{i}": SimpleNamespace(n_candidates=n)
            for i, n in enumerate(counts)}


class TestPsi:
    def test_identical_distributions_score_zero(self):
        assert psi((10, 20, 30), (10, 20, 30)) == pytest.approx(0.0)

    def test_proportional_distributions_score_zero(self):
        assert psi((1, 2, 3), (10, 20, 30)) == pytest.approx(0.0)

    def test_shift_scores_positive_and_symmetric(self):
        forward = psi((80, 15, 5), (40, 40, 20))
        assert forward > 0.25
        assert psi((40, 40, 20), (80, 15, 5)) == pytest.approx(forward)

    def test_empty_bin_is_finite(self):
        assert psi((10, 0), (0, 10)) < float("inf")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bin count mismatch"):
            psi((1, 2), (1, 2, 3))

    def test_bin_values_upper_inclusive(self):
        assert bin_values([1.0, 1.5, 2.0, 9.0], edges=(1.0, 2.0)) == (1, 2, 1)


class TestFingerprints:
    def test_pool_fingerprint_shape(self):
        fp = pool_fingerprint(
            _pool([1, 2, 8]), _profiles([30, 400]), _examples([1, 3])
        )
        assert fp.kind == "pool"
        assert fp.scalars["n_candidates"] == 3.0
        assert fp.scalars["total_weight"] == 11.0
        assert fp.scalars["n_examples"] == 2.0
        assert set(fp.dists) == {"weight", "stay_duration",
                                 "candidates_per_address"}

    def test_bare_pool_fingerprints_without_extras(self):
        fp = pool_fingerprint(_pool([1, 1]))
        assert set(fp.dists) == {"weight"}

    def test_roundtrip_dict(self):
        fp = pool_fingerprint(_pool([1, 2]), _profiles([10]))
        again = Fingerprint.from_dict(fp.to_dict())
        assert again == fp

    def test_matcher_fingerprint_uses_scores(self):
        selector = SimpleNamespace(scores=lambda e: e.raw_scores)
        examples = {
            "a0": SimpleNamespace(raw_scores=[0.1, 0.8, 0.1]),
            "a1": SimpleNamespace(raw_scores=[0.9, 0.05, 0.05]),
        }
        fp = matcher_fingerprint(selector, examples)
        assert fp.kind == "matcher"
        assert fp.scalars["n_examples"] == 2.0
        assert 0.5 < fp.scalars["mean_confidence"] <= 1.0
        # a1 selects rank 0, a0 selects rank 1.
        assert sum(fp.dists["selected_rank"]) == 2

    def test_matcher_fingerprint_softmaxes_signed_scores(self):
        # Negative scores (margins / log-likelihoods) go through softmax:
        # softmax([-2, 3]) -> top probability e^0 / (e^0 + e^-5) ~= 0.993.
        selector = SimpleNamespace(scores=lambda e: [-2.0, 3.0])
        fp = matcher_fingerprint(selector, {"a": SimpleNamespace()})
        assert fp.scalars["mean_confidence"] == pytest.approx(0.9933, abs=1e-3)


class TestCompare:
    def test_unchanged_pool_is_stable(self):
        before = pool_fingerprint(_pool([1, 2, 8]), _profiles([30, 400]))
        after = pool_fingerprint(_pool([1, 2, 8]), _profiles([30, 400]))
        report = compare_fingerprints(before, after)
        assert not report.drifted
        assert report.max_psi == pytest.approx(0.0)

    def test_thirty_percent_candidate_drop_flags(self):
        # A uniform 30% drop keeps every *proportion* identical — PSI is
        # blind to it; the scalar ratio dimension is what must flag.
        weights = [1, 2, 4] * 10
        before = pool_fingerprint(_pool(weights))
        after = pool_fingerprint(_pool(weights[: int(len(weights) * 0.7)]))
        report = compare_fingerprints(before, after)
        assert report.drifted
        flagged = {d.name for d in report.dimensions if d.flagged}
        assert "n_candidates" in flagged
        psi_dims = [d for d in report.dimensions if d.kind == "psi"]
        assert all(d.score < 0.25 for d in psi_dims)

    def test_distribution_shift_flags_via_psi(self):
        before = pool_fingerprint(_pool([1] * 50))
        after = pool_fingerprint(_pool([50] * 50))  # same count, new shape
        report = compare_fingerprints(before, after)
        flagged = {d.name for d in report.dimensions if d.flagged}
        assert "weight" in flagged

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kinds differ"):
            compare_fingerprints(
                Fingerprint(kind="pool"), Fingerprint(kind="matcher")
            )

    def test_render_marks_flags(self):
        report = compare_fingerprints(
            pool_fingerprint(_pool([1] * 10)), pool_fingerprint(_pool([1] * 4))
        )
        text = report.render()
        assert "FLAGGED" in text and "[!!]" in text


class TestSaveReport:
    def test_save_drift_report_shape(self, tmp_path):
        import json

        stable = compare_fingerprints(
            pool_fingerprint(_pool([1] * 10)), pool_fingerprint(_pool([1] * 10))
        )
        flagged = compare_fingerprints(
            pool_fingerprint(_pool([1] * 10)), pool_fingerprint(_pool([1] * 3))
        )
        path = save_drift_report([stable, flagged], tmp_path / "drift.json")
        payload = json.loads(path.read_text())
        assert payload["drifted"] is True
        assert [r["drifted"] for r in payload["reports"]] == [False, True]
