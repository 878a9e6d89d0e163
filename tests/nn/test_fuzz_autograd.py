"""Randomized autograd fuzzing: random op DAGs vs finite differences."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, cat, stack
from tests.nn.gradcheck import check_grad

# Unary ops safe on any real input.
UNARY_SAFE = ["tanh", "sigmoid", "relu", "exp"]
# Binary composition patterns.
BINARY = ["add", "sub", "mul"]


def random_graph(rng: np.random.Generator, depth: int):
    """Build f(leaf) as a random composition; returns a closure."""
    ops = []
    for _ in range(depth):
        kind = rng.choice(["unary", "binary", "reduce", "shape"])
        if kind == "unary":
            ops.append(("unary", rng.choice(UNARY_SAFE)))
        elif kind == "binary":
            const = rng.normal(size=(1,)) * 0.5
            ops.append(("binary", rng.choice(BINARY), float(const[0])))
        elif kind == "reduce":
            ops.append(("reduce", None))
        else:
            ops.append(("shape", None))

    def f(t: Tensor) -> Tensor:
        x = t
        for op in ops:
            if op[0] == "unary":
                # Keep exp bounded to avoid FD blow-ups.
                if op[1] == "exp":
                    x = (x * 0.2).exp()
                else:
                    x = getattr(x, op[1])()
            elif op[0] == "binary":
                if op[1] == "add":
                    x = x + op[2]
                elif op[1] == "sub":
                    x = op[2] - x
                else:
                    x = x * (op[2] + 0.7)
            elif op[0] == "reduce":
                if x.ndim > 1:
                    x = x.mean(axis=0, keepdims=True)
            else:  # shape
                x = x.reshape(-1, 1).transpose(1, 0).reshape(*x.shape)
        return (x * x).sum()

    return f


class TestAutogradFuzz:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    def test_random_dag_matches_finite_differences(self, seed, depth):
        rng = np.random.default_rng(seed)
        f = random_graph(rng, depth)
        x = rng.normal(size=(3, 4)) * 0.8
        check_grad(f, x, rtol=2e-3, atol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_cat_stack_composition(self, seed):
        rng = np.random.default_rng(seed)
        a_np = rng.normal(size=(2, 3)) * 0.5
        b_np = rng.normal(size=(2, 3)) * 0.5

        def f(t: Tensor) -> Tensor:
            other = Tensor(b_np)
            joined = cat([t.tanh(), other], axis=1)  # (2, 6)
            piled = stack([joined, joined * 0.5], axis=0)  # (2, 2, 6)
            return (piled.sigmoid() * piled).sum()

        check_grad(f, a_np, rtol=2e-3, atol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_shared_subexpression(self, seed):
        """Gradients accumulate correctly through re-used nodes."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4,)) * 0.5

        def f(t: Tensor) -> Tensor:
            h = t.tanh()
            return (h * h + h.sigmoid() * h).sum()

        check_grad(f, x, rtol=2e-3, atol=1e-6)
