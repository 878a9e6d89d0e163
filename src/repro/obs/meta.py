"""Run metadata stamped onto exported metrics and benchmark artifacts.

Every exported metrics document and ``benchmarks/results/*.json`` artifact
carries the same provenance triple: the git sha of the working tree, a
wall-clock timestamp, and a content :func:`fingerprint` of the run
configuration, so results can be matched to the exact code + config that
produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import subprocess
import time
from typing import Any

import numpy as np


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
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(*objects: Any) -> str:
    """Stable hex digest of nested python/numpy content and dataclasses.

    Every value carries a type prefix, so ``1``, ``1.0`` and ``"1"`` hash
    apart; dict and set order does not matter.
    """
    h = hashlib.sha256()
    for obj in objects:
        _update(h, obj)
    return h.hexdigest()[:20]


def git_sha(short: bool = True) -> str | None:
    """The current commit sha, or None outside a git checkout."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=5, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_metadata(config: Any = None) -> dict[str, Any]:
    """Provenance dict: git sha, unix + ISO timestamps, config fingerprint.

    ``config`` may be anything :func:`fingerprint` accepts (dataclasses,
    dicts, scalars); unfingerprintable configs degrade to
    ``None`` rather than failing the export.
    """
    meta: dict[str, Any] = {
        "git_sha": git_sha(),
        "timestamp_unix": time.time(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if config is not None:
        try:
            meta["config_fingerprint"] = fingerprint(config)
        except TypeError:
            meta["config_fingerprint"] = None
    return meta
