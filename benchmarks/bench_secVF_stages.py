"""Section V-F — pipeline stage timings.

The paper reports stay-point extraction (7 min over 66 M points), candidate
pool construction (1 min), and training times (GeoRank 0.2 min fastest,
DLInfMA 13.6 min, UNet-based 27 min slowest).  At our synthetic scale the
absolute numbers shrink, but the orderings should survive: pool
construction cheaper than stay-point extraction, GeoRank training fastest,
UNet-based slower than GeoRank.

Stage timings come from the fit's ``RunContext`` (``model.context``),
which every pipeline stage reports into; the same numbers are emitted as
a machine-readable JSON artifact next to the text table.
"""

from repro.eval import run_methods, series_table


def test_secVF_stage_timings(dow_workload, write_result, write_json, benchmark):
    workload = dow_workload
    runs = benchmark.pedantic(
        lambda: run_methods(workload, ["GeoRank", "UNet-based", "DLInfMA"]),
        rounds=1,
        iterations=1,
    )

    dlinfma = runs["DLInfMA"].method
    engine = dlinfma.context.timings
    rows = [
        ("stay point extraction", engine["stay_point_extraction_s"]),
        ("candidate pool construction", engine["pool_construction_s"]),
        ("profile build", engine["profile_build_s"]),
        ("feature extraction", engine["feature_extraction_s"]),
        ("train: GeoRank", runs["GeoRank"].fit_seconds),
        ("train: UNet-based", runs["UNet-based"].fit_seconds),
        ("train: DLInfMA (LocMatcher)", engine["training_s"]),
    ]
    text = series_table(
        rows,
        headers=["stage", "seconds"],
        title="Section V-F: pipeline stage timings",
    )
    write_result("secVF_stage_timings", text)
    write_json(
        "secVF_stage_timings",
        {
            "engine_timings_s": dict(engine),
            "engine_counters": dict(dlinfma.context.counters),
            "train_seconds": {
                "GeoRank": runs["GeoRank"].fit_seconds,
                "UNet-based": runs["UNet-based"].fit_seconds,
                "DLInfMA": engine["training_s"],
            },
        },
    )

    timings = dict(rows)
    assert timings["train: GeoRank"] < timings["train: DLInfMA (LocMatcher)"]
    assert timings["train: GeoRank"] < timings["train: UNet-based"]
