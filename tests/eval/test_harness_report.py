import pytest

from repro.eval import (
    EvalResult,
    SHARED_ARTIFACT_METHODS,
    Workload,
    evaluate,
    histogram_text,
    method_registry,
    metrics_table,
    run_methods,
    series_table,
)


class TestRegistry:
    def test_all_paper_methods_present(self):
        registry = method_registry()
        expected = {
            "Geocoding", "Annotation", "GeoCloud", "GeoRank", "UNet-based",
            "MinDist", "MaxTC", "MaxTC-ILC", "DLInfMA",
            "DLInfMA-GBDT", "DLInfMA-RF", "DLInfMA-MLP",
            "DLInfMA-RkDT", "DLInfMA-RkNet", "DLInfMA-PN", "DLInfMA-Grid",
            "DLInfMA-nTC", "DLInfMA-nD", "DLInfMA-nP", "DLInfMA-nLC",
            "DLInfMA-nA", "DLInfMA-LCaddr",
        }
        assert expected == set(registry)

    def test_shared_methods_are_registered(self):
        assert SHARED_ARTIFACT_METHODS <= set(method_registry())


class TestWorkload:
    def test_from_dataset(self, tiny_dataset, tiny_workload):
        assert len(tiny_workload.trips) == len(tiny_dataset.trips)
        assert tiny_workload.train_ids and tiny_workload.test_ids
        assert set(tiny_workload.train_ids).isdisjoint(tiny_workload.test_ids)

    def test_override_trips(self, tiny_dataset):
        heavy = tiny_dataset.with_delays(1.0)
        wl = Workload.from_dataset(tiny_dataset, trips=heavy)
        assert wl.trips == heavy


class TestRunMethods:
    def test_runs_and_evaluates(self, tiny_workload):
        runs = run_methods(
            tiny_workload, ["Geocoding", "MinDist", "MaxTC-ILC"], fast=True
        )
        assert set(runs) == {"Geocoding", "MinDist", "MaxTC-ILC"}
        for run in runs.values():
            assert set(run.predictions) >= set(tiny_workload.test_ids)
            result = evaluate(run.predictions, tiny_workload.ground_truth)
            assert result.n == len(tiny_workload.test_ids)
            assert run.fit_seconds >= 0

    def test_artifacts_shared_across_candidate_methods(self, tiny_workload):
        runs = run_methods(tiny_workload, ["MinDist", "MaxTC"], fast=True)
        assert runs["MinDist"].method.pool is runs["MaxTC"].method.pool

    def test_unknown_method_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            run_methods(tiny_workload, ["Quantum"], fast=True)


class TestReport:
    def test_metrics_table_contains_rows(self):
        results = {
            "A": EvalResult(mae=10.0, p95=50.0, beta50=90.0, n=5),
            "B": EvalResult(mae=20.0, p95=80.0, beta50=70.0, n=5),
        }
        text = metrics_table(results, title="T")
        assert "T" in text
        assert "A" in text and "B" in text
        assert "10.0" in text and "90.0" in text

    def test_metrics_table_order(self):
        results = {
            "A": EvalResult(1.0, 1.0, 1.0, 1),
            "B": EvalResult(2.0, 2.0, 2.0, 1),
        }
        text = metrics_table(results, order=["B", "A"])
        rows = [line.split()[0] for line in text.splitlines()[2:]]
        assert rows == ["B", "A"]

    def test_series_table(self):
        text = series_table([(20, 30.5), (40, 25.1)], headers=["D", "MAE"])
        assert "D" in text and "25.10" in text

    def test_histogram_text(self):
        text = histogram_text({1: 5, 2: 10}, title="H")
        assert "H" in text
        assert "#" in text

    def test_histogram_empty(self):
        assert "(empty)" in histogram_text({})

    def test_metrics_csv(self):
        from repro.eval import metrics_csv

        results = {"A": EvalResult(mae=10.5, p95=50.0, beta50=90.0, n=7)}
        csv = metrics_csv(results)
        lines = csv.splitlines()
        assert lines[0] == "method,mae_m,p95_m,beta50_pct,n"
        assert lines[1] == "A,10.500,50.000,90.000,7"
