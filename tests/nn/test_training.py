"""End-to-end training sanity checks for the NN framework."""

import numpy as np

from repro.nn import (
    Adam,
    Linear,
    ReLU,
    Sequential,
    Tensor,
    TransformerEncoder,
)
from repro.nn.functional import cross_entropy, masked_softmax


class TestMLPTraining:
    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8)
        y = np.array([0, 1, 1, 0] * 8)
        model = Sequential(
            Linear(2, 16, rng=rng), ReLU(), Linear(16, 2, rng=rng)
        )
        opt = Adam(model.parameters(), lr=0.01)
        first_loss = None
        for _ in range(300):
            opt.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            opt.step()
        final_loss = loss.item()
        assert final_loss < first_loss * 0.1
        pred = model(Tensor(x)).data.argmax(axis=1)
        assert (pred == y).mean() == 1.0


class TestTransformerSelection:
    def test_learns_to_pick_max_feature(self):
        """A LocMatcher-shaped task: select the candidate with the largest
        first feature among a variable-length masked set."""
        rng = np.random.default_rng(1)
        d_in, d_model, n_max, batches = 3, 8, 6, 60
        proj = Linear(d_in, d_model, rng=rng)
        enc = TransformerEncoder(1, d_model, 2, 16, dropout=0.0, rng=rng)
        score = Linear(d_model, 1, rng=rng)
        params = proj.parameters() + enc.parameters() + score.parameters()
        opt = Adam(params, lr=0.01)

        def make_batch(b=16):
            x = rng.normal(size=(b, n_max, d_in))
            lengths = rng.integers(2, n_max + 1, size=b)
            mask = np.arange(n_max)[None, :] < lengths[:, None]
            x[~mask] = 0.0
            masked_feature = np.where(mask, x[:, :, 0], -np.inf)
            target = masked_feature.argmax(axis=1)
            return x, mask, target

        losses = []
        for _ in range(batches):
            x, mask, target = make_batch()
            opt.zero_grad()
            h = enc(proj(Tensor(x)), key_mask=mask)
            logits = score(h).reshape(x.shape[0], n_max)
            loss = cross_entropy(logits, target, mask=mask)
            loss.backward()
            opt.step()
            losses.append(loss.item())

        x, mask, target = make_batch(64)
        h = enc(proj(Tensor(x)), key_mask=mask)
        logits = score(h).reshape(64, n_max)
        probs = masked_softmax(logits, mask).data
        acc = (probs.argmax(axis=1) == target).mean()
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert acc > 0.8
