"""Profiles, address examples and building examples equal the loop reference.

``tests/core/feature_reference.py`` holds the per-candidate loops written
out; here both sides run on the tiny preset, both scale-1 presets and the
``fit-generate`` corpus (DowBJ-like scale 1.5, trips in a shuffled order),
and every number must be bit-equal.
"""

import numpy as np
import pytest

from repro.eval import Workload
from repro.synth import downbj_config, generate_dataset, subbj_config, tiny_config
from tests.core.feature_reference import compare_corpus

CORPORA = {
    "tiny": lambda: tiny_config(),
    "downbj-1": lambda: downbj_config(),
    "subbj-1": lambda: subbj_config(),
    "fit-generate": lambda: downbj_config(scale=1.5, seed=0),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_bit_equal_to_reference(corpus):
    workload = Workload.from_dataset(generate_dataset(CORPORA[corpus]()))
    trips = workload.trips
    if corpus == "fit-generate":
        # The perf workload reads its trips in a seeded shuffle.
        order = np.random.default_rng(0).permutation(len(trips))
        trips = [trips[i] for i in order]
    mismatches, _, n_addresses, n_buildings = compare_corpus(
        trips, workload.addresses, workload.projection
    )
    assert n_addresses > 0 and n_buildings > 0
    assert mismatches == []
