"""Optimizers and learning-rate schedules."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float) -> None:
        params = list(params)
        if not params:
            raise ValueError("no parameters to optimize")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v


class Adam(Optimizer):
    """Adam (Kingma & Ba); paper settings: beta1=0.9, beta2=0.999, lr=1e-4."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        # Moments live in one flat buffer per kind when every parameter
        # shares a dtype; the per-param lists below are then views into
        # it, so serialization and the per-param fallback see the same
        # memory while the fast path runs ~10 big ufunc calls instead of
        # ~10 per parameter.
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) == 1:
            total = sum(p.data.size for p in self.params)
            dtype = dtypes.pop()
            self._flat_m = np.zeros(total, dtype=dtype)
            self._flat_v = np.zeros(total, dtype=dtype)
            self._flat_g = np.empty(total, dtype=dtype)
            self._flat_u = np.empty(total, dtype=dtype)

            def views(flat: np.ndarray) -> list[np.ndarray]:
                out, offset = [], 0
                for p in self.params:
                    out.append(flat[offset : offset + p.data.size].reshape(p.data.shape))
                    offset += p.data.size
                return out

            self._m = views(self._flat_m)
            self._v = views(self._flat_v)
            self._gviews = views(self._flat_g)
            self._scratch = views(self._flat_u)
        else:
            self._flat_m = None
            self._m = [np.zeros_like(p.data) for p in self.params]
            self._v = [np.zeros_like(p.data) for p in self.params]
            self._scratch = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        self._t += 1
        b1c = 1.0 - self.beta1 ** self._t
        b2c = 1.0 - self.beta2 ** self._t
        b1, b2 = self.beta1, self.beta2
        scale = self.lr / b1c
        grads = [p.grad for p in self.params]
        if self._flat_m is not None and all(g is not None for g in grads):
            for gv, g in zip(self._gviews, grads):
                np.copyto(gv, g)
            if self.weight_decay:
                for gv, p in zip(self._gviews, self.params):
                    gv += self.weight_decay * p.data
            g, m, v, u = self._flat_g, self._flat_m, self._flat_v, self._flat_u
            m *= b1
            np.multiply(g, 1.0 - b1, out=u)
            m += u
            v *= b2
            np.multiply(g, g, out=u)
            u *= 1.0 - b2
            v += u
            np.divide(v, b2c, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            np.divide(m, u, out=u)
            u *= scale
            for p, uview in zip(self.params, self._scratch):
                p.data -= uview
            return
        for p, m, v, u in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            # All update math runs in the per-param scratch buffer: an
            # optimizer step allocates nothing, which matters when it runs
            # once per (small) batch.
            m *= b1
            np.multiply(g, 1.0 - b1, out=u)
            m += u
            v *= b2
            np.multiply(g, g, out=u)
            u *= 1.0 - b2
            v += u
            np.divide(v, b2c, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            np.divide(m, u, out=u)
            u *= scale
            p.data -= u


class StepLR:
    """Halve-style decay: multiply lr by ``gamma`` every ``step_size`` epochs.

    The paper halves the LocMatcher learning rate every 5 epochs.
    """

    def __init__(self, optimizer: Optimizer, step_size: int = 5, gamma: float = 0.5) -> None:
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        """Advance one epoch, decaying when the boundary is crossed."""
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma

    @property
    def current_lr(self) -> float:
        """The optimizer's current learning rate."""
        return self.optimizer.lr
