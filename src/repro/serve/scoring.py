"""Live model scoring on the serving path (the serving model tier).

The table-backed store answers from the last offline refresh.  This tier
instead answers *example-backed* addresses by running LocMatcher right in
the serving path: the router hands it each cold cache miss
(:meth:`ModelScoringTier.query_id`), and a key list given to
:meth:`ModelScoringTier.resolve_batch` is scored with a single padded,
masked ``scores_batch`` forward pass (the JIT-compiled batched path in
:mod:`repro.core.locmatcher`).  Ids without a feature example fall back
to the store's usual address -> building -> geocode chain, so one batch
can mix both kinds and every key still gets an answer.

This is how the batched-inference throughput (paper Figure 13) becomes an
online capability rather than only an offline refresh speedup.
"""

from __future__ import annotations

import threading
import zlib
from typing import Sequence

from repro.apps.store import QueryResult, QuerySource, UnknownAddressError
from repro.obs import get_registry
from repro.obs.drift import pool_fingerprint
from repro.obs.provenance import fingerprint_digest, put_evidence
from repro.serve.shard import ShardedLocationStore

#: Evidence lists are bounded so a pathological example cannot bloat a
#: provenance record past its "compact" contract.
_MAX_EVIDENCE_CANDIDATES = 32


class ModelScoringTier:
    """Batched LocMatcher scoring with store fallback for non-scorable ids.

    Drop-in for the store behind a
    :class:`~repro.serve.router.QueryRouter`: :meth:`query_id` answers
    one id and raises :class:`UnknownAddressError` for a bad one;
    :meth:`resolve_batch` keeps the store's batch-lookup contract
    (:meth:`ShardedLocationStore.resolve_batch`).

    Every scored id also publishes its *evidence* — per-candidate scores
    and ranks, the contributing stay evidence aggregated per candidate,
    and the pool/model fingerprint digests — into the provenance
    side-channel, where the serving loop folds it into the
    :class:`~repro.obs.provenance.ProvenanceRecord` it mints.
    """

    def __init__(self, pipeline, store: ShardedLocationStore) -> None:
        self.pipeline = pipeline
        self.store = store
        registry = get_registry()
        self._scored = registry.counter(
            "serve_model_scored_total", "Addresses answered by live model scoring"
        )
        self._fallback = registry.counter(
            "serve_model_fallback_total",
            "Batch keys without an example, answered by the store chain",
        )
        self._fp_lock = threading.Lock()
        self._pool_fp: str | None = None
        self._model_fp: str | None = None

    # ------------------------------------------------------------------
    # Provenance evidence
    # ------------------------------------------------------------------
    def _fingerprints(self) -> tuple[str, str]:
        """Cached (pool, model) fingerprint digests for this pipeline.

        The pool digest uses the real drift fingerprint (cheap: one pass
        over the pool).  The model digest hashes the matcher's identity —
        selector class + example-id set — rather than re-scoring every
        example on the serve path.
        """
        with self._fp_lock:
            if self._pool_fp is None:
                extractor = self.pipeline.extractor
                pool = getattr(extractor, "pool", None)
                profiles = getattr(extractor, "profiles", None)
                try:
                    self._pool_fp = fingerprint_digest(
                        pool_fingerprint(pool, profiles=profiles)
                    ) if pool is not None else ""
                except Exception:  # noqa: BLE001 — evidence must not fail serving
                    self._pool_fp = ""
                examples = self.pipeline.examples
                ids_crc = zlib.crc32(
                    "\x00".join(sorted(str(k) for k in examples)).encode("utf-8")
                )
                self._model_fp = fingerprint_digest(
                    {
                        "kind": "matcher",
                        "selector": type(self.pipeline.selector).__name__,
                        "n_examples": len(examples),
                        "ids_crc": ids_crc,
                    }
                )
            return self._pool_fp or "", self._model_fp or ""

    def _publish_evidence(self, address_id, example, scores) -> None:
        extractor = self.pipeline.extractor
        pool = getattr(extractor, "pool", None)
        profiles = getattr(extractor, "profiles", None) or {}
        cids = list(example.candidate_ids)[:_MAX_EVIDENCE_CANDIDATES]
        if scores is None:
            score_of = [0.0] * len(cids)
        else:
            score_of = [float(scores[i]) for i in range(len(cids))]
        order = sorted(
            range(len(cids)), key=lambda i: score_of[i], reverse=True
        )
        rank_of = {i: rank + 1 for rank, i in enumerate(order)}
        candidates = []
        stays = []
        for i, cid in enumerate(cids):
            cand = pool.by_id.get(cid) if pool is not None else None
            weight = float(cand.weight) if cand is not None else 0.0
            candidates.append(
                {
                    "candidate_id": cid,
                    "score": score_of[i],
                    "rank": rank_of[i],
                    "weight": weight,
                    "lng": float(cand.lng) if cand is not None else 0.0,
                    "lat": float(cand.lat) if cand is not None else 0.0,
                }
            )
            profile = profiles.get(cid)
            if profile is not None:
                stays.append(
                    {
                        "candidate_id": cid,
                        "weight": weight,
                        "avg_duration_s": float(profile.avg_duration_s),
                        "n_couriers": int(profile.n_couriers),
                    }
                )
        pool_fp, model_fp = self._fingerprints()
        put_evidence(
            address_id,
            {
                "candidates": candidates,
                "stays": stays,
                "pool_fingerprint": pool_fp,
                "model_fingerprint": model_fp,
            },
        )

    def resolve_batch(
        self, address_ids: Sequence[str]
    ) -> dict[str, QueryResult | UnknownAddressError]:
        """Resolve a batch: one model forward for scorable ids, store rest."""
        examples = self.pipeline.examples
        scorable = [a for a in address_ids if a in examples]
        rest = [a for a in address_ids if a not in examples]
        out: dict[str, QueryResult | UnknownAddressError] = {}
        if scorable:
            batch = [examples[a] for a in scorable]
            selector = self.pipeline.selector
            rows: list = [None] * len(batch)
            if hasattr(selector, "scores_batch"):
                # Model path: one padded forward pass; rows are softmax
                # probabilities, so the winner's mass is the confidence.
                score_rows = selector.scores_batch(batch)
                rows = list(score_rows)
                indices = [int(row.argmax()) for row in score_rows]
                confidences: list[float | None] = [
                    float(row[i]) for row, i in zip(score_rows, indices)
                ]
            elif hasattr(selector, "predict_index_batch"):
                indices = selector.predict_index_batch(batch)
                confidences = [None] * len(batch)
            else:  # heuristic selectors: no batch API, score one by one
                indices = [selector.predict_index(e) for e in batch]
                confidences = [None] * len(batch)
            for address_id, example, index, confidence, row in zip(
                scorable, batch, indices, confidences, rows
            ):
                point = self.pipeline.extractor.candidate_point(
                    example.candidate_ids[index]
                )
                out[address_id] = QueryResult(
                    point, QuerySource.MODEL, confidence=confidence
                )
                self._publish_evidence(address_id, example, row)
            self._scored.inc(len(scorable))
        if rest:
            out.update(self.store.resolve_batch(list(rest)))
            self._fallback.inc(len(rest))
        return out

    def query_id(self, address_id: str) -> QueryResult:
        """Resolve one id; raises :class:`UnknownAddressError` on a bad id."""
        result = self.resolve_batch([address_id])[address_id]
        if isinstance(result, UnknownAddressError):
            raise result
        return result
