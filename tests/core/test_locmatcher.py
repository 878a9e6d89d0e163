import numpy as np
import pytest

from repro.core import AddressExample, FeatureConfig, LocMatcherConfig
from repro.core.features import COL_DIST, COL_TC, N_FEATURES
from repro.core.locmatcher import LocMatcherNet, LocMatcherSelector
from repro.core import locmatcher_numpy
from repro.core.locmatcher import MAX_SCORE_BATCH
from repro.nn.functional import cross_entropy, masked_softmax
from repro.synth.city import N_POI_CATEGORIES


def synthetic_examples(n=60, seed=0, n_cands=(3, 8)):
    """Examples where the labeled candidate has max TC and min distance."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = int(rng.integers(*n_cands))
        feats = np.zeros((k, N_FEATURES))
        feats[:, COL_TC] = rng.uniform(0.2, 0.8, k)
        feats[:, COL_DIST] = rng.uniform(50, 400, k)
        label = int(rng.integers(k))
        feats[label, COL_TC] = 1.0
        feats[label, COL_DIST] = rng.uniform(5, 40)
        feats[:, 6:] = rng.dirichlet(np.ones(24), size=k)
        out.append(
            AddressExample(
                address_id=f"x{i}",
                candidate_ids=list(range(k)),
                features=feats,
                n_deliveries=int(rng.integers(1, 20)),
                poi_category=int(rng.integers(21)),
                label=label,
            )
        )
    return out


FAST = LocMatcherConfig(max_epochs=40, patience=10, lr_step=15)


class TestLocMatcherNet:
    def test_output_shape(self):
        net = LocMatcherNet(n_scalar=5, hist_dim=24, config=LocMatcherConfig())
        out = net(
            np.zeros((2, 7, 5)), np.zeros((2, 7, 24)), np.ones((2, 7), dtype=bool),
            np.zeros(2, dtype=int), np.zeros(2),
        )
        assert out.shape == (2, 7)

    def test_no_hist_configuration(self):
        net = LocMatcherNet(n_scalar=3, hist_dim=0, config=LocMatcherConfig())
        out = net(np.zeros((1, 4, 3)), None, np.ones((1, 4), dtype=bool), np.zeros(1, dtype=int), np.zeros(1))
        assert out.shape == (1, 4)

    def test_missing_hist_rejected(self):
        net = LocMatcherNet(n_scalar=3, hist_dim=24, config=LocMatcherConfig())
        with pytest.raises(ValueError):
            net(np.zeros((1, 4, 3)), None, np.ones((1, 4), dtype=bool), np.zeros(1, dtype=int), np.zeros(1))

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError):
            LocMatcherNet(n_scalar=0, hist_dim=0, config=LocMatcherConfig())

    def test_no_context_variant_has_no_u(self):
        net = LocMatcherNet(5, 24, LocMatcherConfig(), use_address_context=False)
        assert net.u is None and net.poi_embedding is None
        out = net(np.zeros((1, 3, 5)), np.zeros((1, 3, 24)), np.ones((1, 3), dtype=bool), np.zeros(1, dtype=int), np.zeros(1))
        assert out.shape == (1, 3)

    def test_lstm_encoder_variant(self):
        net = LocMatcherNet(5, 24, LocMatcherConfig(encoder="lstm"))
        out = net(np.zeros((2, 6, 5)), np.zeros((2, 6, 24)), np.ones((2, 6), dtype=bool), np.zeros(2, dtype=int), np.zeros(2))
        assert out.shape == (2, 6)

    def test_invalid_encoder(self):
        with pytest.raises(ValueError):
            LocMatcherConfig(encoder="gru")


class TestLocMatcherSelector:
    def test_learns_synthetic_rule(self):
        train = synthetic_examples(80, seed=0)
        test = synthetic_examples(40, seed=99)
        selector = LocMatcherSelector(config=FAST).fit(train)
        acc = np.mean([selector.predict_index(e) == e.label for e in test])
        assert acc > 0.8

    def test_scores_are_probabilities(self):
        train = synthetic_examples(30, seed=1)
        selector = LocMatcherSelector(config=FAST).fit(train)
        scores = selector.scores(train[0])
        assert scores.shape == (train[0].n_candidates,)
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert (scores >= 0).all()

    def test_validation_early_stopping_records_history(self):
        train = synthetic_examples(40, seed=2)
        val = synthetic_examples(15, seed=3)
        selector = LocMatcherSelector(config=FAST).fit(train, val)
        assert len(selector.history) >= 1
        assert {"epoch", "train_loss", "monitor"} <= set(selector.history[0])

    def test_unlabeled_training_rejected(self):
        examples = synthetic_examples(5, seed=4)
        for e in examples:
            e.label = None
        with pytest.raises(ValueError):
            LocMatcherSelector(config=FAST).fit(examples)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LocMatcherSelector().scores(synthetic_examples(1)[0])

    def test_feature_ablation_trains(self):
        train = synthetic_examples(30, seed=5)
        cfg = FeatureConfig(use_profile=False, use_lc=False)
        selector = LocMatcherSelector(cfg, FAST).fit(train)
        assert selector.scores(train[0]).shape == (train[0].n_candidates,)

    def test_single_candidate_example(self):
        train = synthetic_examples(30, seed=6)
        selector = LocMatcherSelector(config=FAST).fit(train)
        lone = synthetic_examples(1, seed=7, n_cands=(1, 2))[0]
        assert selector.predict_index(lone) == 0

    def test_deterministic_given_seed(self):
        train = synthetic_examples(25, seed=8)
        s1 = LocMatcherSelector(config=FAST).fit(train)
        s2 = LocMatcherSelector(config=FAST).fit(train)
        np.testing.assert_allclose(s1.scores(train[0]), s2.scores(train[0]))

    def test_batched_scores_match_single(self):
        """Batched inference matches per-example inference to f32 exactness.

        Compute is float32 end-to-end, so BLAS blocking may differ by a
        ulp between batch shapes; anything beyond that is a padding leak.
        """
        train = synthetic_examples(30, seed=10)
        selector = LocMatcherSelector(config=FAST).fit(train)
        probe = synthetic_examples(23, seed=11, n_cands=(1, 9))
        batched = selector.scores_batch(probe)
        for example, scores in zip(probe, batched):
            np.testing.assert_allclose(
                scores, selector.scores(example), rtol=1e-6, atol=1e-8
            )
        indices = selector.predict_index_batch(probe)
        assert indices == [selector.predict_index(e) for e in probe]

    def test_scores_batch_empty(self):
        train = synthetic_examples(10, seed=12)
        selector = LocMatcherSelector(config=FAST).fit(train)
        assert selector.scores_batch([]) == []


#: Ragged parity batches: each row's candidate count, and each row's label.
PARITY_SHAPES = {
    "5x6": ((6, 4, 2, 5, 1), (0, 3, 1, 4, 0)),
    "1x1": ((1,), (0,)),
    "9x13": ((13, 7, 1, 12, 3, 13, 9, 5, 2), (12, 0, 0, 5, 2, 7, 8, 4, 1)),
}


def _parity_batch(hist_dim, shape="5x6", seed=0):
    """A ragged float64 batch padded to its longest row (see PARITY_SHAPES)."""
    counts, labels = PARITY_SHAPES[shape]
    rng = np.random.default_rng(seed)
    b, n = len(counts), max(counts)
    mask = np.arange(n) < np.array(counts)[:, None]
    return dict(
        scalars=rng.normal(size=(b, n, 5)),
        hist=rng.dirichlet(np.ones(hist_dim), size=(b, n)) if hist_dim else None,
        mask=mask,
        poi=rng.integers(0, N_POI_CATEGORIES, b),
        n_deliveries=rng.normal(size=b),
        labels=np.array(labels),
    )


class TestNumpyPassParity:
    """The selector's hand-written pass against the autograd reference.

    Float64 parameters, so both sides agree to rounding; in train mode
    each pass starts from the same generator state, so dropout draws the
    same masks.
    """

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("use_context", [True, False], ids=["ctx", "nA"])
    @pytest.mark.parametrize("hist_dim", [24, 0], ids=["hist", "nohist"])
    @pytest.mark.parametrize("encoder", ["transformer", "lstm"])
    def test_matches_autograd(
        self, encoder, hist_dim, use_context, training
    ):
        self._check(encoder, hist_dim, use_context, training, "5x6")

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("use_context", [True, False], ids=["ctx", "nA"])
    @pytest.mark.parametrize("encoder", ["transformer", "lstm"])
    @pytest.mark.parametrize("shape", ["1x1", "9x13"])
    def test_matches_autograd_across_batch_shapes(self, shape, encoder, use_context, training):
        self._check(encoder, 24, use_context, training, shape)

    def _check(self, encoder, hist_dim, use_context, training, shape):
        net = LocMatcherNet(
            n_scalar=5, hist_dim=hist_dim, config=LocMatcherConfig(encoder=encoder, seed=3),
            use_address_context=use_context,
        )
        for p in net.parameters():
            p.data = p.data.astype(np.float64)
        net.train() if training else net.eval()
        batch = _parity_batch(hist_dim, shape)
        labels = batch.pop("labels")
        mask = batch["mask"]
        rng_state = net.dropout.rng.bit_generator.state

        ref_scores = net(**batch)
        ref_loss = cross_entropy(ref_scores, labels, mask)
        ref_loss.backward()
        ref_probs = masked_softmax(ref_scores, mask).data
        ref_grads = {name: p.grad for name, p in net.named_parameters()}
        net.zero_grad()

        net.dropout.rng.bit_generator.state = rng_state
        scores, tape = locmatcher_numpy.forward(net, **batch)
        loss, d_scores = locmatcher_numpy.masked_cross_entropy(scores, mask, labels)
        locmatcher_numpy.backward(net, tape, d_scores)

        tol = dict(rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(scores[mask], ref_scores.data[mask], **tol)
        np.testing.assert_allclose(
            locmatcher_numpy.masked_softmax(scores, mask), ref_probs, **tol
        )
        np.testing.assert_allclose(loss, ref_loss.item(), **tol)
        assert ref_grads  # every parameter received a gradient on both sides
        for name, p in net.named_parameters():
            assert p.grad is not None and p.grad.dtype == np.float64, name
            np.testing.assert_allclose(p.grad, ref_grads[name], err_msg=name, **tol)

    @pytest.mark.parametrize("encoder", ["transformer", "lstm"])
    def test_scoring_without_a_tape(self, encoder):
        net = LocMatcherNet(5, 24, LocMatcherConfig(encoder=encoder, seed=3))
        net.eval()
        batch = _parity_batch(24, "9x13")
        batch.pop("labels")
        scores, tape = locmatcher_numpy.forward(net, **batch)
        bare, no_tape = locmatcher_numpy.forward(net, **batch, keep_tape=False)
        assert tape is not None and no_tape is None
        np.testing.assert_array_equal(bare, scores)

    def test_dropout_changes_the_train_pass(self):
        net = LocMatcherNet(5, 24, LocMatcherConfig(seed=3))
        batch = _parity_batch(24)
        batch.pop("labels")
        net.eval()
        eval_scores, _ = locmatcher_numpy.forward(net, **batch)
        net.train()
        train_scores, _ = locmatcher_numpy.forward(net, **batch)
        assert not np.allclose(train_scores, eval_scores)

    def test_float32_net_stays_float32(self):
        net = LocMatcherNet(5, 24, LocMatcherConfig())
        batch = _parity_batch(24)
        labels = batch.pop("labels")
        scores, tape = locmatcher_numpy.forward(net, **batch)
        assert scores.dtype == np.float32
        _, d_scores = locmatcher_numpy.masked_cross_entropy(scores, batch["mask"], labels)
        locmatcher_numpy.backward(net, tape, d_scores)
        for name, p in net.named_parameters():
            assert p.grad.dtype == np.float32, name


class TestMakeBatch:
    """The vectorized batch assembly against a per-example reference."""

    @pytest.mark.parametrize(
        "feature_config",
        [FeatureConfig(), FeatureConfig(use_profile=False), FeatureConfig(use_address=False)],
        ids=["all", "no-hist", "no-address"],
    )
    def test_matches_per_example_reference(self, feature_config):
        selector = LocMatcherSelector(feature_config, LocMatcherConfig(max_epochs=1))
        selector.fit(synthetic_examples(12, seed=21))
        examples = synthetic_examples(6, seed=22, n_cands=(2, 9))
        examples[3] = synthetic_examples(1, seed=23, n_cands=(1, 2))[0]
        examples[4].label = None
        scalars, hist, mask, poi, deliveries, labels = selector._make_batch(examples)

        scalar_cols = feature_config.scalar_columns()
        hist_cols = feature_config.hist_columns()
        b, n = len(examples), max(e.n_candidates for e in examples)
        ref_scalars = np.zeros((b, n, len(scalar_cols)), dtype=np.float32)
        ref_hist = np.zeros((b, n, len(hist_cols)), dtype=np.float32)
        ref_mask = np.zeros((b, n), dtype=bool)
        for i, e in enumerate(examples):
            k = e.n_candidates
            ref_scalars[i, :k] = selector.scaler.transform(e.features[:, scalar_cols])
            ref_hist[i, :k] = e.features[:, hist_cols]
            ref_mask[i, :k] = True
        ref_poi = [e.poi_category if feature_config.use_address else 0 for e in examples]
        ref_deliveries = selector._normalize_deliveries(
            np.array([float(e.n_deliveries) for e in examples])
        )

        assert scalars.dtype == np.float32
        np.testing.assert_array_equal(scalars, ref_scalars)
        if hist_cols:
            assert hist.dtype == np.float32
            np.testing.assert_array_equal(hist, ref_hist)
        else:
            assert hist is None
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_array_equal(poi, ref_poi)
        np.testing.assert_array_equal(deliveries, ref_deliveries)
        np.testing.assert_array_equal(labels, [e.label or 0 for e in examples])


#: Deterministic tiny config: dropout off.
PARITY_CFG = LocMatcherConfig(max_epochs=8, patience=8, dropout=0.0)


class TestBatchedScoring:
    @pytest.fixture(scope="class")
    def examples(self):
        return synthetic_examples(24, seed=7)

    @pytest.fixture(scope="class")
    def selector(self, examples):
        return LocMatcherSelector(config=PARITY_CFG).fit(examples)

    def test_scores_batch_matches_per_example(self, selector, examples):
        batched = selector.scores_batch(examples)
        singles = [selector.scores(e) for e in examples]
        for b, s in zip(batched, singles):
            np.testing.assert_allclose(b, s, rtol=1e-5, atol=1e-6)

    def test_padding_is_fully_masked(self, selector, examples):
        # Padding up to the batch's largest candidate set must not leak
        # into real candidates: score one example alone vs inside a large
        # ragged batch.
        alone = selector.scores_batch([examples[0]])[0]
        crowd = selector.scores_batch(examples)[0]
        np.testing.assert_allclose(alone, crowd, rtol=1e-5, atol=1e-6)
        assert alone.shape == (examples[0].n_candidates,)
        assert abs(float(alone.sum()) - 1.0) < 1e-5


def corpus_like_counts(seed=0):
    """Candidate counts shaped like a city's: most sets hold 1-12
    candidates, and a tail reaches 40 (every count from 1 to 40 appears).
    More than ``MAX_SCORE_BATCH`` of them, shuffled."""
    rng = np.random.default_rng(seed)
    counts = np.concatenate([np.arange(1, 41), rng.integers(1, 13, size=MAX_SCORE_BATCH)])
    return rng.permutation(counts)


class TestLengthSortedChunks:
    """Scoring cuts the examples into chunks of similar candidate counts."""

    @pytest.fixture(scope="class", params=["transformer", "lstm"])
    def selector(self, request):
        cfg = LocMatcherConfig(max_epochs=4, patience=4, encoder=request.param)
        return LocMatcherSelector(config=cfg).fit(synthetic_examples(30, seed=20))

    @pytest.fixture(scope="class")
    def probe(self):
        return [
            synthetic_examples(1, seed=100 + i, n_cands=(k, k + 1))[0]
            for i, k in enumerate(corpus_like_counts())
        ]

    def test_input_order_and_per_example_scores(self, selector, probe):
        batched = selector.scores_batch(probe)
        assert [len(s) for s in batched] == [e.n_candidates for e in probe]
        for example, scores in zip(probe, batched):
            np.testing.assert_allclose(
                scores, selector.scores(example), rtol=1e-6, atol=1e-8
            )

    def test_batched_argmax_equals_per_example(self, selector, probe):
        assert selector.predict_index_batch(probe) == [
            selector.predict_index(e) for e in probe
        ]

    def test_chunks_are_capped_and_cut_padding(self, selector, probe, monkeypatch):
        shapes = []
        forward = locmatcher_numpy.forward

        def spy(net, scalars, hist, mask, *args, **kwargs):
            shapes.append(mask.shape)
            return forward(net, scalars, hist, mask, *args, **kwargs)

        monkeypatch.setattr(locmatcher_numpy, "forward", spy)
        selector.scores_batch(probe)
        assert sum(b for b, _ in shapes) == len(probe)
        assert all(b <= MAX_SCORE_BATCH for b, _ in shapes)
        attention_cells = sum(b * n * n for b, n in shapes)
        one_batch = len(probe) * max(e.n_candidates for e in probe) ** 2
        assert attention_cells <= one_batch / 2


class TestPoiCategoryRange:
    @pytest.mark.parametrize("category", [-1, N_POI_CATEGORIES])
    def test_out_of_range_category_rejected_in_fit(self, category):
        train = synthetic_examples(10, seed=13)
        train[4].poi_category = category
        with pytest.raises(ValueError, match=train[4].address_id):
            LocMatcherSelector(config=FAST).fit(train)

    @pytest.mark.parametrize("category", [-1, N_POI_CATEGORIES])
    def test_out_of_range_category_rejected_in_scoring(self, category):
        selector = LocMatcherSelector(config=FAST).fit(synthetic_examples(10, seed=14))
        probe = synthetic_examples(3, seed=15)
        probe[2].poi_category = category
        with pytest.raises(ValueError, match=probe[2].address_id):
            selector.scores_batch(probe)

    def test_categories_ignored_without_address_features(self):
        train = synthetic_examples(10, seed=16)
        train[0].poi_category = -1
        cfg = FeatureConfig(use_address=False)
        selector = LocMatcherSelector(cfg, FAST).fit(train)
        assert selector.scores(train[0]).shape == (train[0].n_candidates,)
