"""LocMatcher weights round-trip through ``state_dict`` and an ``.npz``.

A reloaded net must score identically, in the float32 it trained in.
"""

from dataclasses import replace

import numpy as np

from repro.core import LocMatcherConfig
from repro.core.locmatcher import LocMatcherSelector
from tests.core.test_locmatcher import synthetic_examples

CFG = LocMatcherConfig(max_epochs=4, patience=4, dropout=0.0)


def _fit(examples, seed=0):
    selector = LocMatcherSelector(config=replace(CFG, seed=seed))
    selector.fit(examples)
    return selector


def _load_state(path):
    archive = np.load(path)
    return {k: archive[k] for k in archive.files}


class TestCheckpointRoundtrip:
    def test_reloaded_net_scores_identically(self, tmp_path):
        examples = synthetic_examples(16, seed=11)
        trained = _fit(examples)
        scores = trained.scores_batch(examples)
        np.savez(tmp_path / "net.npz", **trained.net.state_dict())

        # A differently initialised net takes on the checkpoint wholesale.
        restored = _fit(examples, seed=1)
        assert not np.array_equal(restored.scores_batch(examples)[0], scores[0])
        restored.net.load_state_dict(_load_state(tmp_path / "net.npz"))
        for got, want in zip(restored.scores_batch(examples), scores):
            np.testing.assert_array_equal(got, want)

    def test_state_dict_stays_float32_through_npz(self, tmp_path):
        examples = synthetic_examples(8, seed=5)
        trained = _fit(examples)
        np.savez(tmp_path / "net.npz", **trained.net.state_dict())
        archive = np.load(tmp_path / "net.npz")
        for key in archive.files:
            assert archive[key].dtype == np.float32, key
