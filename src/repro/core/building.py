"""Building-level delivery-location inference.

The paper chooses address-level inference (addresses in the same building
can have different delivery locations) but notes the solution "can also be
easily adapted to building-level inference" — that adaptation lives here.
A building's candidate set is the time-bounded union over all trips
involving any of its addresses; TC is computed against those trips; the
distance feature uses the centroid of member geocodes
(:meth:`~repro.core.features.FeatureExtractor.build_building_examples`,
the same kernel as address examples); the deployed store uses these for
addresses never seen in history.
"""

from __future__ import annotations

from repro.core.features import FeatureExtractor
from repro.geo import Point


def infer_building_locations(
    extractor: FeatureExtractor, selector, building_ids: list[str]
) -> dict[str, Point]:
    """Selector-driven building-level inference for the fallback store."""
    out: dict[str, Point] = {}
    for building_id, example in extractor.build_building_examples(building_ids).items():
        index = selector.predict_index(example)
        out[building_id] = extractor.candidate_point(example.candidate_ids[index])
    return out
