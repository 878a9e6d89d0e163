"""Run metadata stamped onto exported metrics and benchmark artifacts.

Every exported metrics document and ``benchmarks/results/*.json`` artifact
carries the same provenance triple: the git sha of the working tree, a
wall-clock timestamp, and a content fingerprint of the run configuration
(via the engine's :func:`~repro.engine.fingerprint.fingerprint`), so results can
be matched to the exact code + config that produced them.
"""

from __future__ import annotations

import subprocess
import time
from typing import Any


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

    ``config`` may be anything the engine's fingerprint accepts
    (dataclasses, dicts, scalars); unfingerprintable configs degrade to
    ``None`` rather than failing the export.
    """
    meta: dict[str, Any] = {
        "git_sha": git_sha(),
        "timestamp_unix": time.time(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if config is not None:
        from repro.engine.fingerprint import fingerprint

        try:
            meta["config_fingerprint"] = fingerprint(config)
        except TypeError:
            meta["config_fingerprint"] = None
    return meta
