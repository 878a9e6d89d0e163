"""Table II shape gate: DLInfMA leads the baselines on both presets.

The headline claim of the paper's Table II, checked on the DowBJ-like and
SubBJ-like presets with the same shape checks as
``benchmarks/bench_table2_overall.py`` (which runs every method):

- DLInfMA's beta50 is at least the best baseline's minus one point;
- DLInfMA's MAE is at most 1.15x the best baseline MAE;
- Geocoding and MaxTC-ILC sit below DLInfMA on beta50.

Any change to candidate generation, the stage runner or the selector that
moves these orderings fails here.  On failure the message lists every
method's MAE, beta50 and fit time.
"""

import pytest

from repro.eval import Workload, evaluate, run_methods
from repro.synth import downbj_config, generate_dataset, subbj_config

BASELINES = ("Geocoding", "GeoRank", "MaxTC-ILC", "MinDist")
BELOW_DLINFMA = ("Geocoding", "MaxTC-ILC")
PRESETS = {"DowBJ-like": downbj_config, "SubBJ-like": subbj_config}


@pytest.fixture(scope="module", params=sorted(PRESETS))
def table(request):
    workload = Workload.from_dataset(generate_dataset(PRESETS[request.param]()))
    runs = run_methods(workload, [*BASELINES, "DLInfMA"])
    results = {
        name: (evaluate(run.predictions, workload.ground_truth), run.fit_seconds)
        for name, run in runs.items()
    }
    rows = "\n".join(
        f"  {name:<10} MAE {m.mae:7.2f} m  beta50 {m.beta50:5.1f}%  fit {fit:6.2f} s"
        for name, (m, fit) in results.items()
    )
    return request.param, {name: m for name, (m, _) in results.items()}, rows


def test_dlinfma_leads_on_beta50(table):
    preset, results, rows = table
    best = max(results[b].beta50 for b in BASELINES)
    assert results["DLInfMA"].beta50 >= best - 1.0, f"{preset}\n{rows}"


def test_dlinfma_mae_within_best_baseline(table):
    preset, results, rows = table
    best = min(results[b].mae for b in BASELINES)
    assert results["DLInfMA"].mae <= 1.15 * best, f"{preset}\n{rows}"


def test_geocoding_and_maxtc_ilc_below_dlinfma(table):
    preset, results, rows = table
    for name in BELOW_DLINFMA:
        assert results[name].beta50 < results["DLInfMA"].beta50, f"{preset}\n{rows}"
