"""Determinism guarantees of the experiment harness."""

from repro.eval import run_methods


class TestHarnessDeterminism:
    def test_shared_vs_fresh_artifacts_identical_for_heuristics(self, tiny_workload):
        """Heuristic selectors must not depend on artifact sharing."""
        shared = run_methods(tiny_workload, ["MinDist", "MaxTC-ILC"], fast=True)
        # Run again (artifacts rebuilt from scratch inside run_methods).
        fresh = run_methods(tiny_workload, ["MinDist", "MaxTC-ILC"], fast=True)
        for name in ("MinDist", "MaxTC-ILC"):
            assert shared[name].predictions == fresh[name].predictions

    def test_seeded_neural_methods_reproducible(self, tiny_workload):
        a = run_methods(tiny_workload, ["DLInfMA"], seed=3, fast=True)
        b = run_methods(tiny_workload, ["DLInfMA"], seed=3, fast=True)
        assert a["DLInfMA"].predictions == b["DLInfMA"].predictions

    def test_different_seeds_may_differ_but_stay_sane(self, tiny_workload):
        from repro.eval import evaluate

        runs = run_methods(tiny_workload, ["DLInfMA"], seed=7, fast=True)
        result = evaluate(runs["DLInfMA"].predictions, tiny_workload.ground_truth)
        assert result.mae < 200.0
