import numpy as np
import pytest

from repro.nn import Tensor, cat, stack
from tests.nn.gradcheck import check_grad


class TestTensorBasics:
    def test_wraps_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert len(t) == 2

    def test_item(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_detach_shares_data_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_grad_shape_check(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward(np.ones((3,)))

    def test_lift_from_tensor(self):
        a = Tensor([1.0])
        assert Tensor(a).data is a.data


class TestArithmetic:
    def test_add_forward_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_radd_scalar(self):
        a = Tensor([1.0], requires_grad=True)
        out = 5.0 + a
        np.testing.assert_allclose(out.data, [6.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_sub_and_rsub(self):
        a = Tensor([3.0], requires_grad=True)
        (10.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_grad(self):
        check_grad(lambda t: (t / Tensor([2.0, 4.0])).sum(), np.array([1.0, 3.0]))
        check_grad(lambda t: (Tensor([1.0, 1.0]) / t).sum(), np.array([2.0, 5.0]))

    def test_pow_grad(self):
        check_grad(lambda t: (t ** 3).sum(), np.array([1.5, -2.0]))
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        a = Tensor([1.0], requires_grad=True)
        (-a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0)

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.ones((3, 5)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (3, 1)
        np.testing.assert_allclose(a.grad, 5.0)


#: Scalar-loss builders for the ops no other gradcheck here covers
#: (arithmetic with scalars and tensors, negation, scalar division, and
#: two composites), each over one leaf inside the op's smooth domain.
GRADCHECK_OPS = {
    "add": (lambda t: (t + 1.5).sum(), (3, 4)),
    "radd_scalar": (lambda t: (2.0 + t).sum(), (3, 4)),
    "sub": (lambda t: (t - 0.5).sum(), (3, 4)),
    "mul": (lambda t: (t * t).sum(), (3, 4)),
    "rdiv": (lambda t: (1.0 / (t + 3.0)).sum(), (3, 4)),
    "neg": (lambda t: (-t).sum(), (3, 4)),
    "maximum_chain": (lambda t: ((t * 2.0 + 1.0).tanh() * t.sigmoid()).sum(), (5,)),
    "matmul_fused": (lambda t: ((t @ t.transpose(1, 0)).relu() + 1.0).log().sum(), (4, 4)),
}


class TestOpGradcheck:
    @pytest.mark.parametrize("name", sorted(GRADCHECK_OPS))
    def test_gradcheck(self, name):
        build, shape = GRADCHECK_OPS[name]
        x = np.random.default_rng(0).uniform(-2.0, 2.0, size=shape)
        check_grad(build, x, rtol=1e-3, atol=1e-5)


class TestMatmul:
    def test_2d(self):
        rng = np.random.default_rng(0)
        a_np, b_np = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        check_grad(lambda t: (t @ Tensor(b_np)).sum(), a_np)
        check_grad(lambda t: (Tensor(a_np) @ t).sum(), b_np)

    def test_batched_times_2d(self):
        rng = np.random.default_rng(1)
        a_np, b_np = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        check_grad(lambda t: (t @ Tensor(b_np)).sum(), a_np)
        check_grad(lambda t: (Tensor(a_np) @ t).sum(), b_np)

    def test_batched_times_batched(self):
        rng = np.random.default_rng(2)
        a_np, b_np = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        check_grad(lambda t: (t @ Tensor(b_np)).sum(), a_np)
        check_grad(lambda t: (Tensor(a_np) @ t).sum(), b_np)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0]) @ Tensor([1.0])


class TestElementwise:
    @pytest.mark.parametrize(
        "op",
        ["exp", "tanh", "sigmoid", "relu", "sqrt"],
    )
    def test_gradcheck(self, op):
        x = np.array([0.5, 1.5, 2.5]) if op == "sqrt" else np.array([-1.0, 0.3, 2.0])
        check_grad(lambda t: getattr(t, op)().sum(), x)

    def test_log_gradcheck(self):
        check_grad(lambda t: t.log().sum(), np.array([0.5, 1.0, 3.0]))

    def test_relu_zeroes_negatives(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.backward(np.array([[2.0], [3.0]]))
        np.testing.assert_allclose(a.grad, [[2.0] * 3, [3.0] * 3])

    def test_sum_multi_axis(self):
        check_grad(lambda t: (t.sum(axis=(0, 2)) ** 2).sum(), np.random.default_rng(0).normal(size=(2, 3, 4)))

    def test_mean(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])

    def test_mean_axis(self):
        check_grad(lambda t: (t.mean(axis=0) ** 2).sum(), np.random.default_rng(1).normal(size=(4, 3)))

    def test_max_forward(self):
        a = Tensor([[1.0, 5.0], [7.0, 2.0]])
        np.testing.assert_allclose(a.max(axis=1).data, [5.0, 7.0])

    def test_max_grad_to_first_argmax(self):
        a = Tensor([[3.0, 3.0, 1.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[1.0, 0.0, 0.0]])

    def test_max_gradcheck(self):
        # Distinct values so the finite difference is clean.
        x = np.array([[0.1, 0.9, 0.4], [1.2, -0.3, 0.8]])
        check_grad(lambda t: (t.max(axis=1) ** 2).sum(), x)

    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.zeros(6)).reshape((2, 3)).shape == (2, 3)

    def test_transpose_grad(self):
        check_grad(
            lambda t: (t.transpose(1, 0, 2) * Tensor(np.arange(24.0).reshape(3, 2, 4))).sum(),
            np.random.default_rng(3).normal(size=(2, 3, 4)),
        )

    def test_swapaxes(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.swapaxes(0, 1)
        assert out.shape == (3, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_slicing_grad(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expect = np.zeros(10)
        expect[2:5] = 1.0
        np.testing.assert_allclose(a.grad, expect)

    def test_getitem_fancy_duplicate_indices(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        a[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 1.0, 0.0])


class TestGraph:
    def test_diamond_graph_accumulates_once(self):
        # y = (a*2) + (a*3); dy/da = 5
        a = Tensor([1.0], requires_grad=True)
        ((a * 2.0) + (a * 3.0)).backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_reused_intermediate(self):
        # b = a*2; y = b*b -> dy/da = 2*b*2 = 8a
        a = Tensor([3.0], requires_grad=True)
        b = a * 2.0
        (b * b).backward()
        np.testing.assert_allclose(a.grad, [24.0])

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        (a * 2.0).backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_tracking_when_not_required(self):
        a = Tensor([1.0])
        out = a * 2.0 + 3.0
        assert not out.requires_grad
        assert out._backward is None

    def test_deep_chain(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(200):
            x = x * 1.01
        x.backward()
        assert a.grad[0] == pytest.approx(1.01 ** 200, rel=1e-9)


class TestCatStack:
    def test_cat_forward_backward(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = cat([a, b], axis=0)
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[1.0, 1.0]])
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_cat_last_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        out = cat([a, b], axis=-1)
        assert out.shape == (2, 4)
        (out * Tensor(np.arange(8.0).reshape(2, 4))).sum().backward()
        np.testing.assert_allclose(b.grad, [[3.0], [7.0]])

    def test_cat_empty_rejected(self):
        with pytest.raises(ValueError):
            cat([])

    def test_stack_forward_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out[0].sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        assert b.grad is None or np.allclose(b.grad, 0.0)

    def test_stack_middle_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = stack([a, a, a, a], axis=1)
        assert out.shape == (2, 4, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, 4.0 * np.ones((2, 3)))
