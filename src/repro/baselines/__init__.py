"""All comparison methods from the paper's evaluation (Section V-B).

The candidate-based heuristics (MinDist, MaxTC, MaxTC-ILC) are DLInfMA
pipelines with heuristic selectors — build them via
:func:`repro.core.make_variant_selector` / :class:`repro.core.DLInfMA`
with ``selector="mindist" | "maxtc" | "maxtc-ilc"``.
"""

from repro.baselines.annotations import AnnotatedLocation, annotated_locations
from repro.baselines.simple import AnnotationBaseline, GeoCloudBaseline, GeocodingBaseline
from repro.baselines.georank import GeoRankBaseline
from repro.baselines.unet import UNetBaseline

__all__ = [
    "AnnotatedLocation",
    "annotated_locations",
    "AnnotationBaseline",
    "GeoCloudBaseline",
    "GeocodingBaseline",
    "GeoRankBaseline",
    "UNetBaseline",
]
