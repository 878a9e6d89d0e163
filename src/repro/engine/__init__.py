"""Staged incremental inference engine.

The production skeleton behind DLInfMA: pipelines are expressed as
registered :class:`Stage` objects with typed input/output contracts, run
by a :class:`StagePlan` under a :class:`RunContext` that records per-stage
wall-clock timings and item counters.
"""

from repro.engine.fingerprint import fingerprint
from repro.engine.context import RunContext, StageRecord
from repro.engine.stage import (
    Stage,
    StagePlan,
    available_stages,
    get_stage,
    register_stage,
    stage,
)

__all__ = [
    "fingerprint",
    "RunContext",
    "StageRecord",
    "Stage",
    "StagePlan",
    "available_stages",
    "get_stage",
    "register_stage",
    "stage",
]
