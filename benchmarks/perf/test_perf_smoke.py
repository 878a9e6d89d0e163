"""Smoke test of the perf harness (not part of the tier-1 suite).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py

Each workload runs briefly, once untraced and once traced, each in a
fresh interpreter exactly as the benchmark command runs it.  The test
checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, and recomputes each layer's self time from the written spans: the
shares must match the reported ones and, with the residual, make up the
end-to-end total.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "3"


def _run(workload: str, trace: int, tmp_path: pathlib.Path) -> tuple[dict, pathlib.Path]:
    spans = tmp_path / f"{workload}-spans.jsonl"
    # Results go to the test's own directory, not the committed history.
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--results", str(tmp_path)]
    if trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), spans


def _self_times(spans_file: pathlib.Path) -> tuple[float, dict[str, float]]:
    """End-to-end total and per-layer self time, from the span rows alone."""
    rows = [json.loads(line) for line in spans_file.read_text().splitlines()]
    covered = [0.0] * len(rows)
    for row in rows:
        if row["parent"] >= 0:
            covered[row["parent"]] += row["end"] - row["start"]
    total = 0.0
    own: dict[str, float] = {}
    for row, child in zip(rows, covered):
        if row["parent"] == -1:
            total += row["end"] - row["start"]
        else:
            own[row["name"]] = own.get(row["name"], 0.0) + row["end"] - row["start"] - child
    return total, own


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload, tmp_path):
    line, _ = _run(workload, 0, tmp_path)
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert line["failed"] == 0
    for metric in SPEC["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up(workload, tmp_path):
    line, spans = _run(workload, 1, tmp_path)
    assert line["correct"] is True
    metrics = line["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}

    total, own = _self_times(spans)
    assert total == pytest.approx(metrics["trace.total_s"]["value"], rel=1e-9)
    residual = total - sum(own.values())
    assert residual >= -1e-6 * total
    assert 100.0 * residual / total == pytest.approx(
        metrics["trace.residual_pct"]["value"], abs=1e-6)
    # Every layer's share, recomputed from the spans, matches the report,
    # and the shares plus the residual are the whole end-to-end total.
    shares = {}
    for name, seconds in own.items():
        reported = [m for m in metrics if m.endswith("_pct") and metrics[m]["value"]
                    and abs(metrics[m]["value"] - 100.0 * seconds / total) < 1e-6]
        assert reported, f"no reported share matches layer {name}"
        shares[name] = 100.0 * seconds / total
    assert sum(shares.values()) + metrics["trace.residual_pct"]["value"] == \
        pytest.approx(100.0, abs=1e-6)
    if workload.startswith("fit-"):
        assert metrics["trace.residual_pct"]["value"] <= 15.0
