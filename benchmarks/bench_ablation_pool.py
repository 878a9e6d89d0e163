"""Ablation — candidate-pool construction strategy.

DESIGN.md calls out two pool-construction choices to validate:

1. *Bi-weekly batching + incremental merge* vs one-shot clustering of all
   stay points (Section III-B adopts batching for efficiency; the result
   should be nearly identical pools).
2. *Hierarchical threshold clustering* vs grid merging: the grid must
   produce more (boundary-split) candidates for the same D.
"""

import numpy as np

from repro.core import (
    CandidatePoolBuilder,
    build_candidate_pool,
    extract_trip_stay_points,
    project_stays,
)
from repro.eval import series_table


def test_ablation_pool_construction(dow_workload, write_result, benchmark):
    workload = dow_workload
    stay_points = [
        sp
        for stays in extract_trip_stay_points(workload.trips).values()
        for sp in stays
    ]
    projection = workload.projection

    single_batch = CandidatePoolBuilder(projection, 40.0)
    single_batch.add_batch(project_stays(stay_points, projection))
    one_shot = single_batch.build()
    biweekly = benchmark.pedantic(
        lambda: build_candidate_pool(stay_points, projection, 40.0),
        rounds=3,
        iterations=1,
    )
    grid = build_candidate_pool(stay_points, projection, 40.0, method="grid")

    # Pool-to-pool distance: for each bi-weekly candidate, the nearest
    # one-shot candidate should be close (merging preserves the geometry).
    dists = []
    for candidate in biweekly.candidates:
        nearest = one_shot.nearest(candidate.x, candidate.y)
        dists.append(float(np.hypot(nearest.x - candidate.x, nearest.y - candidate.y)))
    rows = [
        ("one-shot hierarchical", len(one_shot)),
        ("bi-weekly + merge", len(biweekly)),
        ("grid merging (DLInfMA-Grid)", len(grid)),
        ("merge-vs-oneshot mean centroid gap (m)", float(np.mean(dists))),
    ]
    text = series_table(
        rows,
        headers=["pool strategy", "value"],
        title="Ablation: candidate pool construction (same stay points, D=40 m)",
    )
    write_result("ablation_pool_construction", text)

    assert abs(len(biweekly) - len(one_shot)) <= max(3, 0.15 * len(one_shot))
    assert float(np.mean(dists)) < 20.0
    assert len(grid) >= len(one_shot)
