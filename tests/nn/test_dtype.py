"""Float32 end-to-end: the dtype-drift regression tests.

Policy: explicit ``dtype=`` wins; floating ndarray inputs keep their own
dtype (float64 gradchecks stay exact); everything else (ints, lists,
python scalars) lands on ``DEFAULT_DTYPE`` (float32).  Scalars are weak:
they adopt the other operand's dtype instead of promoting to float64.
"""

import numpy as np
import pytest

from repro.core import LocMatcherConfig
from repro.core.locmatcher import LocMatcherNet, LocMatcherSelector
from repro.nn import DEFAULT_DTYPE, Adam, Linear, Tensor, clip_grad_norm
from repro.nn.functional import cross_entropy, softmax
from tests.core.test_locmatcher import synthetic_examples


class TestTensorDtypePolicy:
    def test_default_dtype_is_float32(self):
        assert DEFAULT_DTYPE == np.float32

    def test_list_and_int_inputs_become_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.arange(4)).dtype == np.float32

    def test_float64_ndarray_keeps_its_dtype(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_explicit_dtype_wins(self):
        assert Tensor(np.zeros(3, dtype=np.float64), dtype=np.float32).dtype == np.float32

    @pytest.mark.parametrize(
        "expr",
        [
            lambda t: t + 1.0,
            lambda t: 1.0 - t,
            lambda t: t * 2,
            lambda t: t / 3.0,
            lambda t: t**2,
            lambda t: t.relu(),
            lambda t: t.sigmoid(),
            lambda t: t.tanh(),
            lambda t: t.exp(),
            lambda t: (t + 2.0).sqrt(),
            lambda t: t.sum(axis=-1),
            lambda t: t.mean(),
            lambda t: t.max(axis=-1),
            lambda t: softmax(t, axis=-1),
        ],
    )
    def test_python_scalars_do_not_promote_float32(self, expr):
        t = Tensor(np.random.default_rng(0).normal(size=(2, 3)).astype(np.float32))
        assert expr(t).dtype == np.float32

    def test_backward_grads_stay_float32(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        ((t * 2.0 + 1.0).tanh().sum()).backward()
        assert t.grad.dtype == np.float32


class TestModuleDtype:
    def test_linear_params_and_output_float32(self):
        layer = Linear(4, 2)
        assert layer.weight.dtype == np.float32
        assert layer.bias.dtype == np.float32
        out = layer(Tensor(np.zeros((3, 4), dtype=np.float32)))
        assert out.dtype == np.float32

    def test_training_step_keeps_float32(self):
        layer = Linear(4, 2)
        opt = Adam(layer.parameters(), lr=1e-2)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
        loss = (layer(x) ** 2).sum()
        loss.backward()
        clip_grad_norm(opt.params, 1.0)
        opt.step()
        for p in layer.parameters():
            assert p.data.dtype == np.float32
            assert p.grad.dtype == np.float32

    def test_load_state_dict_casts_to_param_dtype(self):
        layer = Linear(4, 2)
        state = {k: v.astype(np.float64) for k, v in layer.state_dict().items()}
        layer.load_state_dict(state)
        assert layer.weight.data.dtype == np.float32


class TestLocMatcherDtype:
    def test_forward_logits_are_float32(self):
        net = LocMatcherNet(n_scalar=5, hist_dim=24, config=LocMatcherConfig())
        out = net(
            np.zeros((2, 7, 5)),  # float64 in: the entry point casts
            np.zeros((2, 7, 24)),
            np.ones((2, 7), dtype=bool),
            np.zeros(2, dtype=int),
            np.zeros(2),
        )
        assert out.dtype == np.float32

    def test_fitted_selector_is_float32_end_to_end(self):
        examples = synthetic_examples(16, seed=3)
        cfg = LocMatcherConfig(max_epochs=2, patience=2)
        selector = LocMatcherSelector(config=cfg).fit(examples)
        for p in selector.net.parameters():
            assert p.data.dtype == np.float32
        batch = selector._make_batch(examples[:4])
        assert batch[0].dtype == np.float32  # scalars
        assert batch[1].dtype == np.float32  # histograms
        for probs in selector.scores_batch(examples[:4]):
            assert probs.dtype == np.float32

    def test_loss_is_float32(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        mask = np.array([[True, True, True, True], [True, True, False, False]])
        loss = cross_entropy(logits, np.array([0, 1]), mask)
        assert loss.dtype == np.float32
