"""Basic neural-network layers."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import DEFAULT_DTYPE, Tensor


class Linear(Module):
    """Affine map on the last axis: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.xavier_uniform((in_features, out_features), rng), requires_grad=True)
        self.bias = (
            Tensor(np.zeros(out_features, dtype=DEFAULT_DTYPE), requires_grad=True)
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(f"expected last dim {self.in_features}, got {x.shape[-1]}")
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(init.normal((num_embeddings, embedding_dim), 0.1, rng), requires_grad=True)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ValueError("embedding index out of range")
        return self.weight[indices]


class LayerNorm(Module):
    """Layer normalization over the last axis with learned scale/shift."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim, dtype=DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=DEFAULT_DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected last dim {self.dim}, got {x.shape[-1]}")
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def mask(self, shape: tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray | None:
        """A fresh inverted-dropout mask (0 or ``1/(1-p)``), or ``None`` in
        eval mode or at ``p == 0``.

        Each call draws from the module's generator, so two passes that
        draw the same shapes in the same order see the same masks.
        """
        if not self.training or self.p == 0.0:
            return None
        keep = 1.0 - self.p
        # Draw in float32 and scale in place: half the RNG bits and no
        # bool/float64 temporaries on the training hot path.
        m = self.rng.random(shape, dtype=np.float32)
        np.less(m, keep, out=m)
        m *= 1.0 / keep
        return m.astype(dtype, copy=False)

    def forward(self, x: Tensor) -> Tensor:
        m = self.mask(x.shape, x.dtype)
        return x if m is None else x * Tensor(m)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, idx: int) -> Module:
        return self.steps[idx]
