"""Model/pool drift detection across refresh runs (PSI fingerprints).

The deployed system re-runs inference bi-weekly (Section VI-A); a refresh
that silently halves the candidate pool, collapses the matcher's
confidence, or shifts stay-duration behaviour should *flag*, not pass.
Each refresh is fingerprinted — the candidate pool by size, weight
distribution, per-address candidate counts, and stay-duration
distribution; the matcher by its softmax-confidence histogram and
selected-candidate-rank distribution — and consecutive fingerprints are
compared with the population stability index (PSI):

    PSI = sum_i (p_i - q_i) * ln(p_i / q_i)

with the usual reading: < 0.1 stable, 0.1–0.25 moderate shift, > 0.25
significant drift.  Scalar dimensions (pool size) use a relative-change
score instead, since dropping 30% of candidates uniformly leaves every
*proportion* untouched.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence, Union

from repro.durable import write_text

PathLike = Union[str, pathlib.Path]

#: PSI above this flags a distribution dimension (classic "significant").
DEFAULT_PSI_THRESHOLD = 0.25

#: Relative change above this flags a scalar dimension (e.g. pool size).
DEFAULT_RATIO_THRESHOLD = 0.2

#: Bin edges for candidate weights (stay points per candidate).
WEIGHT_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Bin edges for average stay durations (seconds).
DURATION_EDGES = (60.0, 120.0, 300.0, 600.0, 1200.0, 3600.0)

#: Bin edges for per-address candidate counts.
CANDIDATE_COUNT_EDGES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

#: Bin edges for softmax confidence (max probability).  Deliberately
#: coarse: continued warm-start training sharpens confidence within the
#: top quartile (normal, should not flag), while a collapse toward
#: uniform dumps mass into the low bins (the failure drift must catch).
CONFIDENCE_EDGES = (0.25, 0.5, 0.75)

#: Bin edges for the selected candidate's index (rank in the example).
RANK_EDGES = (0.5, 1.5, 2.5, 3.5, 4.5)


def bin_values(values: Iterable[float], edges: Sequence[float]) -> tuple[int, ...]:
    """Histogram ``values`` into ``len(edges)+1`` bins (upper-inclusive)."""
    counts = [0] * (len(edges) + 1)
    for value in values:
        idx = 0
        while idx < len(edges) and value > edges[idx]:
            idx += 1
        counts[idx] += 1
    return tuple(counts)


def psi(
    expected: Sequence[float], actual: Sequence[float], eps: float = 1e-4
) -> float:
    """Population stability index between two binned count vectors.

    Counts are normalized to proportions with ``eps`` smoothing so empty
    bins contribute a finite penalty instead of an infinity.
    """
    if len(expected) != len(actual):
        raise ValueError(
            f"bin count mismatch: {len(expected)} vs {len(actual)}"
        )
    if not expected:
        return 0.0
    e_total = float(sum(expected)) or 1.0
    a_total = float(sum(actual)) or 1.0
    score = 0.0
    for e, a in zip(expected, actual):
        p = max(e / e_total, eps)
        q = max(a / a_total, eps)
        score += (p - q) * math.log(p / q)
    return score


@dataclass(frozen=True)
class Fingerprint:
    """One run's summary: scalar features + binned distributions."""

    kind: str                                   # "pool" | "matcher"
    scalars: dict[str, float] = field(default_factory=dict)
    dists: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "scalars": dict(self.scalars),
            "dists": {k: list(v) for k, v in self.dists.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Fingerprint":
        return cls(
            kind=str(payload["kind"]),
            scalars={k: float(v) for k, v in (payload.get("scalars") or {}).items()},
            dists={
                k: tuple(int(c) for c in v)
                for k, v in (payload.get("dists") or {}).items()
            },
        )


def pool_fingerprint(pool, profiles=None, examples=None) -> Fingerprint:
    """Fingerprint a candidate pool (plus optional profiles / examples).

    ``profiles`` (``{candidate_id: LocationProfile}``) contributes the
    stay-duration distribution; ``examples``
    (``{address_id: AddressExample}``) contributes per-address candidate
    counts.  Both are optional so a bare pool still fingerprints.
    """
    weights = [float(c.weight) for c in pool.candidates]
    scalars = {
        "n_candidates": float(len(pool.candidates)),
        "total_weight": float(sum(weights)),
    }
    dists = {"weight": bin_values(weights, WEIGHT_EDGES)}
    if profiles:
        dists["stay_duration"] = bin_values(
            (float(p.avg_duration_s) for p in profiles.values()), DURATION_EDGES
        )
    if examples:
        scalars["n_examples"] = float(len(examples))
        dists["candidates_per_address"] = bin_values(
            (float(e.n_candidates) for e in examples.values()),
            CANDIDATE_COUNT_EDGES,
        )
    return Fingerprint(kind="pool", scalars=scalars, dists=dists)


def _normalize_scores(scores) -> list[float]:
    values = [float(s) for s in scores]
    if not values:
        return values
    lo = min(values)
    total = sum(values)
    if lo >= 0.0 and total > 0:
        return [v / total for v in values]
    # Arbitrary-scale scores (margins, log-likelihoods): softmax them.
    peak = max(values)
    exps = [math.exp(v - peak) for v in values]
    denom = sum(exps)
    return [e / denom for e in exps]


def matcher_fingerprint(selector, examples: Mapping[str, Any]) -> Fingerprint:
    """Fingerprint a selector's outputs over the current example set.

    Uses batched scoring when the selector provides it (LocMatcher),
    falling back to per-example ``scores``.  The confidence histogram
    bins the top probability; the rank histogram bins which candidate
    index wins (a matcher that suddenly always picks candidate 0, or
    whose confidence collapses toward uniform, drifts here even when the
    pool itself is stable).
    """
    ordered = [examples[k] for k in sorted(examples)]
    if hasattr(selector, "scores_batch"):
        all_scores = selector.scores_batch(ordered)
    else:
        all_scores = [selector.scores(example) for example in ordered]
    confidences: list[float] = []
    ranks: list[float] = []
    for scores in all_scores:
        probs = _normalize_scores(scores)
        if not probs:
            continue
        best = max(range(len(probs)), key=probs.__getitem__)
        confidences.append(probs[best])
        ranks.append(float(best))
    mean_conf = sum(confidences) / len(confidences) if confidences else 0.0
    return Fingerprint(
        kind="matcher",
        scalars={"n_examples": float(len(ordered)), "mean_confidence": mean_conf},
        dists={
            "confidence": bin_values(confidences, CONFIDENCE_EDGES),
            "selected_rank": bin_values(ranks, RANK_EDGES),
        },
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DriftDimension:
    """One compared axis: a PSI score or a scalar relative change."""

    name: str
    kind: str          # "psi" | "ratio"
    score: float
    threshold: float
    flagged: bool
    baseline: float | None = None
    current: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "score": self.score,
            "threshold": self.threshold,
            "flagged": self.flagged,
            "baseline": self.baseline,
            "current": self.current,
        }


@dataclass(frozen=True)
class DriftReport:
    """Verdict of comparing one fingerprint against its baseline."""

    kind: str
    dimensions: tuple[DriftDimension, ...]

    @property
    def drifted(self) -> bool:
        return any(d.flagged for d in self.dimensions)

    @property
    def max_psi(self) -> float:
        scores = [d.score for d in self.dimensions if d.kind == "psi"]
        return max(scores, default=0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "drifted": self.drifted,
            "max_psi": self.max_psi,
            "dimensions": [d.to_dict() for d in self.dimensions],
        }

    def render(self) -> str:
        lines = [f"{self.kind} drift: " + ("FLAGGED" if self.drifted else "stable")]
        for d in self.dimensions:
            mark = "!!" if d.flagged else "ok"
            lines.append(
                f"  [{mark}] {d.name:<24} {d.kind:<5} "
                f"score={d.score:.4f} (threshold {d.threshold:.2f})"
            )
        return "\n".join(lines)


def compare_fingerprints(
    baseline: Fingerprint,
    current: Fingerprint,
    psi_threshold: float = DEFAULT_PSI_THRESHOLD,
    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD,
) -> DriftReport:
    """PSI every shared distribution, relative-change every shared scalar."""
    if baseline.kind != current.kind:
        raise ValueError(
            f"fingerprint kinds differ: {baseline.kind!r} vs {current.kind!r}"
        )
    dimensions: list[DriftDimension] = []
    for name in sorted(set(baseline.dists) & set(current.dists)):
        score = psi(baseline.dists[name], current.dists[name])
        dimensions.append(DriftDimension(
            name=name, kind="psi", score=score, threshold=psi_threshold,
            flagged=score > psi_threshold,
        ))
    for name in sorted(set(baseline.scalars) & set(current.scalars)):
        base = baseline.scalars[name]
        cur = current.scalars[name]
        denom = max(abs(base), 1e-12)
        score = abs(cur - base) / denom
        dimensions.append(DriftDimension(
            name=name, kind="ratio", score=score, threshold=ratio_threshold,
            flagged=score > ratio_threshold, baseline=base, current=cur,
        ))
    return DriftReport(kind=current.kind, dimensions=tuple(dimensions))


def save_drift_report(
    reports: Iterable[DriftReport], path: PathLike
) -> pathlib.Path:
    """Write drift reports as one JSON document (CI artifact shape)."""
    payload = {
        "reports": [r.to_dict() for r in reports],
    }
    payload["drifted"] = any(r["drifted"] for r in payload["reports"])
    return write_text(path, json.dumps(payload, indent=2) + "\n")
