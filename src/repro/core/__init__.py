"""The paper's primary contribution: the DLInfMA pipeline and LocMatcher.

This package exports what the CLI, the applications, the examples and the
benchmarks import; everything else is reached through its defining module
(``repro.core.features``, ``repro.core.locmatcher``, ...).
"""

from repro.core.staypoints import extract_trip_stay_points
from repro.core.candidates import (
    CandidatePool,
    CandidatePoolBuilder,
    LocationProfile,
    build_candidate_pool,
    project_stays,
)
from repro.core.features import AddressExample, FeatureConfig
from repro.core.locmatcher import LocMatcherConfig
from repro.core.selectors import make_variant_selector
from repro.core.pipeline import (
    DLInfMA,
    DLInfMAConfig,
    PipelineArtifacts,
    build_artifacts,
)
from repro.core.building import infer_building_locations
from repro.core.persistence import load_locations, save_locations

__all__ = [
    "extract_trip_stay_points",
    "CandidatePool",
    "LocationProfile",
    "build_candidate_pool",
    "AddressExample",
    "FeatureConfig",
    "LocMatcherConfig",
    "make_variant_selector",
    "DLInfMA",
    "DLInfMAConfig",
    "PipelineArtifacts",
    "build_artifacts",
    "project_stays",
    "load_locations",
    "save_locations",
    "infer_building_locations",
    "CandidatePoolBuilder",
]
