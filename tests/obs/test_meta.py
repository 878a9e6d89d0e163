"""Run metadata and the content fingerprint it stamps on artifacts."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.obs.meta import fingerprint, run_metadata


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint({"x": [1, 2.5, "s"], "y": np.arange(4)})
        b = fingerprint({"y": np.arange(4), "x": [1, 2.5, "s"]})
        assert a == b  # dict ordering must not matter

    def test_sensitive_to_content(self):
        assert fingerprint([1, 2, 3]) != fingerprint([1, 2, 4])
        assert fingerprint(np.zeros(3)) != fingerprint(np.zeros(4))
        # type distinctions matter: 1 vs "1" vs 1.0 vs True
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint(True)

    def test_dataclasses_hash_by_field(self):
        @dataclass
        class Config:
            seed: int

        assert fingerprint(Config(1)) == fingerprint(Config(1))
        assert fingerprint(Config(1)) != fingerprint(Config(2))

    def test_unfingerprintable_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())


class TestRunMetadata:
    def test_unfingerprintable_config_degrades_to_none(self):
        assert run_metadata({"seed": 0})["config_fingerprint"] == fingerprint(
            {"seed": 0}
        )
        assert run_metadata(object())["config_fingerprint"] is None
