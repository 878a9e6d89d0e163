"""CLI integration tests (in-process, no subprocess)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    code = main(["generate", "--preset", "tiny", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_all_files(self, data_dir):
        for name in ("trips.jsonl", "addresses.json", "ground_truth.json", "split.json"):
            assert (data_dir / name).exists(), name

    def test_split_file_contents(self, data_dir):
        split = json.loads((data_dir / "split.json").read_text())
        assert split["train"] and split["test"]
        assert not set(split["train"]) & set(split["test"])


class TestEvaluate:
    def test_prints_metrics_table(self, data_dir, capsys):
        code = main([
            "evaluate", "--data", str(data_dir),
            "--methods", "Geocoding,MinDist,MaxTC-ILC", "--fast",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Geocoding" in out and "MaxTC-ILC" in out
        assert "MAE" in out

    def test_timings_flag_prints_engine_stages(self, data_dir, capsys):
        code = main([
            "evaluate", "--data", str(data_dir),
            "--methods", "Geocoding,MaxTC-ILC", "--fast", "--timings",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-stage engine timings" in out
        # Only the DLInfMA-family method has engine stages.
        assert "MaxTC-ILC:" in out
        assert "Geocoding:" not in out
        for stage_name in ("stay_point_extraction", "pool_construction",
                           "profile_build", "feature_extraction", "training"):
            assert stage_name in out


class TestEvaluateObservability:
    def test_json_report(self, data_dir, capsys):
        code = main([
            "evaluate", "--data", str(data_dir),
            "--methods", "Geocoding,MaxTC-ILC", "--fast", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["methods"]) == {"Geocoding", "MaxTC-ILC"}
        entry = payload["methods"]["MaxTC-ILC"]
        assert entry["mae_m"] >= 0
        stages = [stage for stage, _ in entry["stage_timings_s"]]
        assert stages == [
            "stay_point_extraction", "pool_construction", "profile_build",
            "feature_extraction", "training",
        ]
        # Non-engine methods report no stage timings.
        assert payload["methods"]["Geocoding"]["stage_timings_s"] == []

    def test_trace_and_metrics_out(self, data_dir, tmp_path, capsys):
        from repro.obs import load_metrics, read_trace

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--data", str(data_dir),
            "--methods", "MaxTC-ILC", "--fast",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0
        names = {s["name"] for s in read_trace(trace)}
        assert "dlinfma.fit" in names and "training" in names
        payload = load_metrics(metrics)
        assert "timestamp_unix" in payload["meta"]
        assert "config_fingerprint" in payload["meta"]
        metric_names = {m["name"] for m in payload["metrics"]}
        assert "engine_stage_seconds" in metric_names
        # The exported file renders through the metrics subcommand.
        capsys.readouterr()
        assert main(["metrics", str(metrics)]) == 0
        assert "engine_stage_seconds" in capsys.readouterr().out

    def test_prometheus_metrics_out(self, data_dir, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = main([
            "evaluate", "--data", str(data_dir),
            "--methods", "Geocoding", "--fast", "--metrics-out", str(metrics),
        ])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE eval_fit_seconds histogram" in text


class TestUpdate:
    def test_update_absorbs_new_batch(self, data_dir, tmp_path, capsys):
        from repro.synth.io import load_trips, save_trips

        trips = sorted(load_trips(data_dir / "trips.jsonl"), key=lambda t: t.t_start)
        half = len(trips) // 2
        base = tmp_path / "base"
        base.mkdir()
        for name in ("addresses.json", "ground_truth.json", "split.json"):
            (base / name).write_text((data_dir / name).read_text())
        save_trips(trips[:half], base / "trips.jsonl")
        new_trips = tmp_path / "new_trips.jsonl"
        save_trips(trips[half:], new_trips)

        locations = tmp_path / "locations.json"
        code = main([
            "update", "--data", str(base), "--new-trips", str(new_trips),
            "--out", str(locations), "--selector", "maxtc-ilc", "--timings",
        ])
        assert code == 0
        assert len(json.loads(locations.read_text())) > 0
        out = capsys.readouterr().out
        assert f"absorbed {len(trips) - half} new trips" in out
        assert f"of {len(trips) - half} submitted ({len(trips)} total)" in out
        assert "initial fit:" in out
        assert "incremental update" in out
        assert "stay_point_extraction" in out

    def test_update_json_report(self, data_dir, tmp_path, capsys):
        from repro.synth.io import load_trips, save_trips

        trips = sorted(load_trips(data_dir / "trips.jsonl"), key=lambda t: t.t_start)
        half = len(trips) // 2
        base = tmp_path / "base"
        base.mkdir()
        for name in ("addresses.json", "ground_truth.json", "split.json"):
            (base / name).write_text((data_dir / name).read_text())
        save_trips(trips[:half], base / "trips.jsonl")
        new_trips = tmp_path / "new_trips.jsonl"
        save_trips(trips[half:], new_trips)

        code = main([
            "update", "--data", str(base), "--new-trips", str(new_trips),
            "--out", str(tmp_path / "loc.json"), "--selector", "maxtc-ilc",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == len(trips) - half
        assert payload["absorbed"] == len(trips) - half
        assert payload["total_trips"] == len(trips)
        assert 0 < payload["examples"] <= payload["n_locations"]
        fit_stages = [s for s, _ in payload["fit_stage_timings_s"]]
        assert fit_stages[0] == "stay_point_extraction"
        update_stages = [s for s, _ in payload["update_stage_timings_s"]]
        assert update_stages == [
            "stay_point_extraction", "pool_construction", "profile_build",
            "feature_extraction", "training",
        ]


class TestInferAndQuery:
    def test_infer_then_query(self, data_dir, capsys):
        locations = data_dir / "locations.json"
        code = main([
            "infer", "--data", str(data_dir),
            "--out", str(locations), "--selector", "maxtc-ilc",
        ])
        assert code == 0
        assert locations.exists()
        payload = json.loads(locations.read_text())
        assert len(payload) > 0

        address_id = next(iter(payload))
        capsys.readouterr()
        code = main([
            "query", "--data", str(data_dir),
            "--locations", str(locations), "--address-id", address_id,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "source    address" in out

    def test_query_unknown_address(self, data_dir, tmp_path, capsys):
        locations = tmp_path / "empty.json"
        locations.write_text("{}")
        code = main([
            "query", "--data", str(data_dir),
            "--locations", str(locations), "--address-id", "nope",
        ])
        assert code == 1


class TestExportGeojson:
    def test_exports_candidates_and_predictions(self, data_dir, tmp_path, capsys):
        locations = data_dir / "locations-geo.json"
        main(["infer", "--data", str(data_dir), "--out", str(locations),
              "--selector", "mindist"])
        out_dir = tmp_path / "geo"
        code = main([
            "export-geojson", "--data", str(data_dir),
            "--out", str(out_dir), "--locations", str(locations),
        ])
        assert code == 0
        candidates = json.loads((out_dir / "candidates.geojson").read_text())
        predictions = json.loads((out_dir / "predictions.geojson").read_text())
        assert candidates["features"]
        kinds = {f["properties"]["kind"] for f in predictions["features"]}
        assert "prediction" in kinds


class TestCrossval:
    def test_crossval_command(self, capsys):
        code = main([
            "crossval", "--preset", "tiny", "--folds", "2",
            "--methods", "Geocoding,MaxTC-ILC", "--fast",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-validation" in out
        assert "MaxTC-ILC" in out


class TestServeBench:
    def test_closed_loop_report_and_artifact(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serve.json"
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--duration", "0.3", "--workers", "4",
            "--refresh-every", "0.05", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "throughput" in out
        assert "cache hit rate" in out
        assert "rejected" in out
        assert "refreshes" in out
        payload = json.loads(out_path.read_text())
        assert payload["report"]["n_errors"] == 0
        assert payload["report"]["n_ok"] > 0
        assert payload["config"]["workers"] == 4
        assert payload["refreshes_mid_run"] >= 1

    def test_open_loop_json_is_deterministic_in_schedule(self, data_dir, capsys):
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--workload", "open", "--rate", "150", "--duration", "0.3",
            "--seed", "7", "--json",
        ])
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--workload", "open", "--rate", "150", "--duration", "0.3",
            "--seed", "7", "--json",
        ])
        assert code == 0
        second = json.loads(capsys.readouterr().out)
        # Identical seeds issue identical request schedules.
        assert first["report"]["n_issued"] == second["report"]["n_issued"]
        assert first["report"]["n_errors"] == 0


class TestStats:
    def test_prints_distributions(self, data_dir, capsys):
        code = main(["stats", "--data", str(data_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Dataset statistics" in out
        assert "Deliveries per address" in out
        assert "Stay points per trip" in out
        assert "Candidates per address" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.preset == "downbj"
        assert args.scale == 1.0


HEALTH_SLO = """\
slos:
  - name: fit-p95
    metric: eval_fit_seconds
    kind: quantile
    quantile: 0.95
    objective: {objective}
"""

SERVE_SLO = """\
slos:
  - name: p95-latency
    metric: serve_request_latency_seconds
    kind: quantile
    quantile: 0.95
    objective: {objective}
  - name: error-rate
    metric: serve_requests_total
    kind: error_rate
    objective: 0.05
    bad:
      status: [error]
"""


class TestHealthCommand:
    @pytest.fixture(scope="class")
    def metrics_path(self, data_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("health") / "metrics.json"
        code = main([
            "evaluate", "--data", str(data_dir),
            "--methods", "MaxTC-ILC", "--fast", "--metrics-out", str(path),
        ])
        assert code == 0
        return path

    def test_healthy_slo_exits_zero(self, metrics_path, tmp_path, capsys):
        slo = tmp_path / "slo.yaml"
        slo.write_text(HEALTH_SLO.format(objective=120.0))
        code = main(["health", "--metrics", str(metrics_path), "--slo", str(slo)])
        assert code == 0
        assert "health: OK" in capsys.readouterr().out

    def test_violated_slo_exits_one(self, metrics_path, tmp_path, capsys):
        slo = tmp_path / "slo.yaml"
        slo.write_text(HEALTH_SLO.format(objective=0.000001))
        code = main(["health", "--metrics", str(metrics_path), "--slo", str(slo)])
        assert code == 1
        assert "health: VIOLATED" in capsys.readouterr().out

    def test_json_report(self, metrics_path, tmp_path, capsys):
        slo = tmp_path / "slo.yaml"
        slo.write_text(HEALTH_SLO.format(objective=120.0))
        code = main([
            "health", "--metrics", str(metrics_path), "--slo", str(slo), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["results"][0]["name"] == "fit-p95"
        assert payload["results"][0]["ok"] is True

    def test_missing_files_exit_two(self, metrics_path, tmp_path, capsys):
        slo = tmp_path / "slo.yaml"
        slo.write_text(HEALTH_SLO.format(objective=1.0))
        assert main(["health", "--metrics", "/nonexistent.json",
                     "--slo", str(slo)]) == 2
        assert main(["health", "--metrics", str(metrics_path),
                     "--slo", "/nonexistent.yaml"]) == 2
        bad_spec = tmp_path / "bad.yaml"
        bad_spec.write_text("slos:\n  - name: x\n")  # missing metric/objective
        assert main(["health", "--metrics", str(metrics_path),
                     "--slo", str(bad_spec)]) == 2


class TestProfileCommand:
    def test_wraps_subcommand_and_writes_speedscope(self, data_dir, tmp_path, capsys):
        out = tmp_path / "prof.speedscope.json"
        code = main([
            "profile", "--out", str(out), "--top", "5", "--",
            "evaluate", "--data", str(data_dir),
            "--methods", "MaxTC-ILC", "--fast",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["profiles"][0]["type"] == "sampled"
        assert doc["shared"]["frames"]
        stdout = capsys.readouterr().out
        assert "MAE" in stdout          # inner command output passes through
        assert "self" in stdout and "total" in stdout  # hotspot table

    def test_propagates_inner_exit_code(self, tmp_path, capsys):
        code = main([
            "profile", "--", "health",
            "--metrics", "/nonexistent.json", "--slo", "/nonexistent.yaml",
        ])
        assert code == 2

    def test_no_subcommand_exits_two(self, capsys):
        assert main(["profile", "--out", "/tmp/ignored.json"]) == 2

    def test_evaluate_profile_and_memory_flags(self, data_dir, tmp_path, capsys):
        profile_out = tmp_path / "eval.speedscope.json"
        memory_out = tmp_path / "eval-memory.json"
        code = main([
            "profile", "--out", str(profile_out), "--",
            "evaluate", "--data", str(data_dir),
            "--methods", "MaxTC-ILC", "--fast", "--memory", str(memory_out),
        ])
        assert code == 0
        assert json.loads(profile_out.read_text())["profiles"]
        snapshots = json.loads(memory_out.read_text())["snapshots"]
        labels = [s["label"] for s in snapshots]
        assert any(label.endswith(":training") for label in labels)


class TestServeBenchSLO:
    def test_lenient_slo_passes_and_prints_verdict(self, data_dir, tmp_path, capsys):
        slo = tmp_path / "slo.yaml"
        slo.write_text(SERVE_SLO.format(objective=10.0))
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--duration", "0.3", "--slo", str(slo),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "live SLO verdict" in out
        assert "OK " in out and "p95-latency" in out
        assert "VIOLATED" not in out

    def test_impossible_slo_fails_the_bench(self, data_dir, tmp_path, capsys):
        slo = tmp_path / "slo.yaml"
        slo.write_text(SERVE_SLO.format(objective=0.000000001))
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--duration", "0.3", "--slo", str(slo),
        ])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_bad_slo_spec_exits_two(self, data_dir, tmp_path):
        slo = tmp_path / "broken.yaml"
        slo.write_text("slos: []\n")
        assert main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--duration", "0.1", "--slo", str(slo),
        ]) == 2


class TestUpdateDrift:
    def test_drift_out_writes_report(self, data_dir, tmp_path, capsys):
        from repro.synth.io import load_trips, save_trips

        trips = sorted(load_trips(data_dir / "trips.jsonl"), key=lambda t: t.t_start)
        half = len(trips) // 2
        base = tmp_path / "base"
        base.mkdir()
        for name in ("addresses.json", "ground_truth.json", "split.json"):
            (base / name).write_text((data_dir / name).read_text())
        save_trips(trips[:half], base / "trips.jsonl")
        new_trips = tmp_path / "new_trips.jsonl"
        save_trips(trips[half:], new_trips)

        drift_out = tmp_path / "drift.json"
        code = main([
            "update", "--data", str(base), "--new-trips", str(new_trips),
            "--out", str(tmp_path / "loc.json"), "--selector", "maxtc-ilc",
            "--drift-out", str(drift_out), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = json.loads(drift_out.read_text())
        assert payload["drift"]["reports"] == report["reports"]
        assert payload["drift"]["drifted"] == report["drifted"]
        kinds = [r["kind"] for r in report["reports"]]
        assert "pool" in kinds
        for entry in report["reports"]:
            assert {"kind", "drifted", "dimensions"} <= set(entry)


class TestObsExport:
    """Post-mortem scrape of metrics planes + per-worker span files."""

    @pytest.fixture()
    def obs_dir(self, tmp_path):
        from repro.obs.shm import MetricsPlane, SlotSpec

        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        for worker in ("0", "1"):
            plane = MetricsPlane.create(
                str(obs_dir / f"metrics-worker-{worker}.shm"),
                (SlotSpec("counter", "serve_worker_requests_total",
                          (("status", "ok"), ("worker", worker))),),
                meta={"worker": worker},
            )
            plane.inc(plane.slot("serve_worker_requests_total",
                                 status="ok", worker=worker), 5)
            plane.close()
        (obs_dir / "trace-worker-0.jsonl").write_text(json.dumps({
            "name": "serve.request", "trace_id": "t1", "span_id": "s1",
            "parent_id": None, "start_unix": 1.0, "end_unix": 1.1,
            "duration_s": 0.1, "status": "error",
            "attributes": {"worker": 0},
        }) + "\n")
        return obs_dir

    def test_renders_merged_prometheus_text(self, obs_dir, capsys):
        code = main(["obs-export", "--obs-dir", str(obs_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve_worker_requests_total" in out

    def test_out_writes_prometheus_file(self, obs_dir, tmp_path, capsys):
        out_path = tmp_path / "fleet.prom"
        code = main(["obs-export", "--obs-dir", str(obs_dir),
                     "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert ('serve_worker_requests_total'
                '{status="ok",worker="0"} 5') in text
        assert ('serve_worker_requests_total'
                '{status="ok",worker="1"} 5') in text
        assert str(out_path) in capsys.readouterr().out

    def test_json_document_sums_planes(self, obs_dir, capsys):
        code = main(["obs-export", "--obs-dir", str(obs_dir), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (family,) = [m for m in payload["metrics"]
                     if m["name"] == "serve_worker_requests_total"]
        assert sum(s["value"] for s in family["samples"]) == 10
        assert "timestamp_unix" in payload["meta"]

    def test_trace_out_merges_worker_spans(self, obs_dir, tmp_path, capsys):
        merged = tmp_path / "merged.jsonl"
        code = main(["obs-export", "--obs-dir", str(obs_dir),
                     "--trace-out", str(merged)])
        assert code == 0
        spans = [json.loads(line)
                 for line in merged.read_text().splitlines()]
        assert [s["name"] for s in spans] == ["serve.request"]

    def test_slo_gate_pass_and_fail(self, obs_dir, tmp_path, capsys):
        good = tmp_path / "good.yaml"
        good.write_text(
            "slos:\n"
            "  - name: worker-errors\n"
            "    metric: serve_worker_requests_total\n"
            "    kind: error_rate\n"
            "    objective: 0.01\n"
            "    bad:\n"
            "      status: [error]\n"
        )
        assert main(["obs-export", "--obs-dir", str(obs_dir),
                     "--slo", str(good)]) == 0
        assert "health: OK" in capsys.readouterr().out
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "slos:\n"
            "  - name: impossible\n"
            "    metric: serve_worker_requests_total\n"
            "    kind: max\n"
            "    objective: 0\n"
        )
        assert main(["obs-export", "--obs-dir", str(obs_dir),
                     "--slo", str(bad)]) == 1
        assert "health: VIOLATED" in capsys.readouterr().out

    def test_missing_or_empty_directory_exits_two(self, tmp_path, capsys):
        assert main(["obs-export", "--obs-dir",
                     str(tmp_path / "nope")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs-export", "--obs-dir", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "not a directory" in err
        assert "no metrics planes" in err


class TestServeBenchProcessFleet:
    def test_fleet_capture_conserves_counts(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "BENCH_mp.json"
        merged_trace = tmp_path / "merged-trace.jsonl"
        slo = tmp_path / "slo.yaml"
        slo.write_text(SERVE_SLO.format(objective=5.0))
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--backend", "process", "--workers", "2",
            "--duration", "0.3", "--timeout", "10",
            "--snapshot-dir", str(tmp_path / "snapshots"),
            "--slo", str(slo),
            "--trace", str(tmp_path / "router-trace.jsonl"),
            "--trace-merged", str(merged_trace),
            "--out", str(out_path),
        ])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["report"]["n_errors"] == 0
        fleet = payload["fleet"]
        assert fleet is not None
        # The merged plane view conserves the router's own counts.
        assert fleet["worker_requests_total"] >= payload["report"]["n_ok"]
        assert fleet["worker_restarts"] == 0
        assert fleet["slo"]["ok"], fleet["slo"]
        assert fleet["slo"]["source"] == "fleet"
        # The merged trace carries cross-process parentage.
        spans = [json.loads(line)
                 for line in merged_trace.read_text().splitlines()]
        routes = {s["span_id"] for s in spans if s["name"] == "serve.route"}
        assert any(
            s["name"] == "serve.request" and s.get("parent_id") in routes
            for s in spans
        ), fleet["trace"]

    def test_thread_backend_has_no_fleet_section(self, data_dir, tmp_path):
        out_path = tmp_path / "BENCH_thread.json"
        code = main([
            "serve-bench", "--data", str(data_dir),
            "--locations", str(data_dir / "ground_truth.json"),
            "--duration", "0.2", "--out", str(out_path),
        ])
        assert code == 0
        assert json.loads(out_path.read_text())["fleet"] is None
