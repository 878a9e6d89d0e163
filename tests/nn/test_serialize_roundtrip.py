"""LocMatcher checkpoints: weights and optimizer state round-trip.

A checkpoint is the net's ``state_dict`` in an ``.npz`` plus the Adam
state via :mod:`repro.nn.serialize`.  A reloaded net must score
identically, and a reloaded optimizer must resume training exactly where
the original left off.
"""

from dataclasses import replace

import numpy as np

from repro.core import LocMatcherConfig
from repro.core.locmatcher import LocMatcherSelector
from repro.nn import Adam, load_optimizer, save_optimizer
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

    def test_optimizer_checkpoint_resumes(self, tmp_path):
        examples = synthetic_examples(12, seed=9)

        def steps(selector, optimizer, n):
            batch = selector._make_batch(examples)
            for _ in range(n):
                optimizer.zero_grad()
                selector._train_step(batch)
                optimizer.step()

        trained = _fit(examples)
        opt = Adam(trained.net.parameters(), lr=1e-3)
        steps(trained, opt, 3)
        save_optimizer(opt, tmp_path / "opt.npz")
        np.savez(tmp_path / "net.npz", **trained.net.state_dict())
        steps(trained, opt, 3)
        expected = trained.scores_batch(examples)

        restored = _fit(examples, seed=1)
        restored.net.load_state_dict(_load_state(tmp_path / "net.npz"))
        opt_b = Adam(restored.net.parameters(), lr=1e-3)
        load_optimizer(opt_b, tmp_path / "opt.npz")
        steps(restored, opt_b, 3)
        for got, want in zip(restored.scores_batch(examples), expected):
            np.testing.assert_array_equal(got, want)
