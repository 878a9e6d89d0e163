"""Content-fingerprint artifact caching for engine stages.

A stage's cache key is a SHA-256 fingerprint over (stage name, config,
inputs).  When the key matches a previous run, the stage's artifacts are
loaded from disk instead of recomputed — this is how a run resumes after
an interruption, and how repeated experiment sweeps skip the expensive
candidate-generation stages when config + data are unchanged.

Artifacts are written through :class:`ArtifactCodec` pairs; the DLInfMA
stages use the save/load functions from :mod:`repro.core.persistence`, so
the cache speaks the same on-disk formats as the deployed system.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

from repro.durable import write_text
from repro.obs import get_registry

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def _update(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one object into the hash, with an unambiguous type prefix."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        h.update(b"I" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"F" + np.float64(obj).tobytes())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"Y" + obj)
    elif isinstance(obj, np.ndarray):
        h.update(b"A" + str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (np.integer, np.floating)):
        _update(h, obj.item())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode())
        for item in obj:
            _update(h, item)
    elif isinstance(obj, (set, frozenset)):
        h.update(b"E" + str(len(obj)).encode())
        for item in sorted(obj, key=repr):
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(b"D" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"C" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            _update(h, f.name)
            _update(h, getattr(obj, f.name))
    elif hasattr(obj, "content_key"):
        h.update(b"K")
        _update(h, obj.content_key())
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__}; add a content_key() "
            "method or pass a fingerprintable summary instead"
        )


def fingerprint(*objects: Any) -> str:
    """Stable hex digest of arbitrarily nested python/numpy content."""
    h = hashlib.sha256()
    for obj in objects:
        _update(h, obj)
    return h.hexdigest()[:20]


# ----------------------------------------------------------------------
# Codecs + cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArtifactCodec:
    """How one stage output goes to/from disk."""

    suffix: str
    save: Callable[[Any, pathlib.Path], None]
    load: Callable[[pathlib.Path], Any]


class ArtifactCache:
    """Directory-backed store of stage artifacts keyed by fingerprint."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _manifest_path(self, stage_name: str, key: str) -> pathlib.Path:
        return self.directory / f"{stage_name}-{key}.manifest.json"

    def _artifact_path(self, stage_name: str, key: str, output: str, suffix: str) -> pathlib.Path:
        return self.directory / f"{stage_name}-{key}.{output}{suffix}"

    def load(
        self, stage_name: str, key: str, codecs: dict[str, ArtifactCodec]
    ) -> dict[str, Any] | None:
        """All cached outputs for (stage, key), or None on any miss.

        Every lookup increments ``artifact_cache_hits_total`` /
        ``artifact_cache_misses_total`` (labeled by stage) in the global
        metrics registry.
        """
        out = self._load(stage_name, key, codecs)
        name = (
            "artifact_cache_hits_total" if out is not None else "artifact_cache_misses_total"
        )
        get_registry().counter(
            name, "Artifact cache lookups by outcome, labeled by stage"
        ).inc(stage=stage_name)
        return out

    def _load(
        self, stage_name: str, key: str, codecs: dict[str, ArtifactCodec]
    ) -> dict[str, Any] | None:
        manifest_path = self._manifest_path(stage_name, key)
        if not manifest_path.exists():
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if set(manifest.get("outputs", [])) != set(codecs):
            return None
        out: dict[str, Any] = {}
        for output, codec in codecs.items():
            path = self._artifact_path(stage_name, key, output, codec.suffix)
            if not path.exists():
                return None
            out[output] = codec.load(path)
        return out

    def store(
        self,
        stage_name: str,
        key: str,
        outputs: dict[str, Any],
        codecs: dict[str, ArtifactCodec],
    ) -> None:
        """Persist the cacheable outputs of one stage execution."""
        get_registry().counter(
            "artifact_cache_stores_total", "Artifact cache writes, labeled by stage"
        ).inc(stage=stage_name)
        for output, codec in codecs.items():
            path = self._artifact_path(stage_name, key, output, codec.suffix)
            codec.save(outputs[output], path)
        manifest = {"stage": stage_name, "key": key, "outputs": sorted(codecs)}
        write_text(self._manifest_path(stage_name, key), json.dumps(manifest))
