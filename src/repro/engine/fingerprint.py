"""Content fingerprints of run configurations and inputs.

:func:`fingerprint` is a SHA-256 digest over arbitrarily nested
python/numpy content — dataclasses, dicts, sequences, arrays and objects
with a ``content_key()`` — with an unambiguous type prefix per value, so
two runs with equal config hash equal and any changed field changes the
digest.  :func:`repro.obs.meta.run_metadata` stamps it on every metrics
and benchmark artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
