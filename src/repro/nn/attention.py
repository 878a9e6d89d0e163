"""Multi-head self-attention and the transformer encoder (Vaswani et al.).

LocMatcher uses a transformer encoder over the (orderless, variable-size)
set of location candidates: self-attention models candidate correlations
without imposing a sequence order, which is exactly why the paper prefers it
over an RNN (Section IV-B).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import mask_bias, softmax
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``n_heads`` heads.

    Inputs are ``(B, N, d_model)``; ``key_mask`` is a constant ``(B, N)``
    0/1 array marking real (non-padded) positions.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.w_q = Linear(d_model, d_model, rng=rng)
        self.w_k = Linear(d_model, d_model, rng=rng)
        self.w_v = Linear(d_model, d_model, rng=rng)
        self.w_o = Linear(d_model, d_model, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        b, n, _ = x.shape
        return x.reshape(b, n, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        if x.ndim != 3 or x.shape[-1] != self.d_model:
            raise ValueError(f"expected (B, N, {self.d_model}), got {x.shape}")
        b, n, _ = x.shape
        q = self._split_heads(self.w_q(x))  # (B, H, N, dh)
        k = self._split_heads(self.w_k(x))
        v = self._split_heads(self.w_v(x))
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.d_head))  # (B, H, N, N)
        if key_mask is not None:
            key_mask = np.asarray(key_mask, dtype=bool)
            if key_mask.shape != (b, n):
                raise ValueError(f"key_mask must be (B, N)={b, n}, got {key_mask.shape}")
            # 0 on real keys, NEG_INF on padding; broadcast over heads and queries.
            scores = scores + Tensor(mask_bias(key_mask, x.dtype)[:, None, None, :])
        attn = softmax(scores, axis=-1)
        attn = self.attn_dropout(attn)
        out = attn @ v  # (B, H, N, dh)
        out = out.transpose(0, 2, 1, 3).reshape(b, n, self.d_model)
        return self.w_o(out)


class TransformerEncoderLayer(Module):
    """One encoder block: self-attention + position-wise FFN.

    Post-norm arrangement as in the original transformer (and the paper):
    residual connection around each sub-layer followed by layer norm.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        d_ff: int,
        dropout: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.attn = MultiHeadSelfAttention(d_model, n_heads, dropout, rng=rng)
        self.ff1 = Linear(d_model, d_ff, rng=rng)
        self.ff2 = Linear(d_ff, d_model, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout1 = Dropout(dropout, rng=rng)
        self.dropout2 = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        attn_out = self.dropout1(self.attn(x, key_mask))
        x = self.norm1(x + attn_out)
        ff_out = self.dropout2(self.ff2(self.ff1(x).relu()))
        return self.norm2(x + ff_out)


class TransformerEncoder(Module):
    """A stack of ``n_layers`` encoder blocks (the paper uses 3 layers,
    2 heads, 32 dense-sublayer neurons)."""

    def __init__(
        self,
        n_layers: int,
        d_model: int,
        n_heads: int,
        d_ff: int,
        dropout: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        self.layers = [
            TransformerEncoderLayer(d_model, n_heads, d_ff, dropout, rng=rng)
            for _ in range(n_layers)
        ]

    def forward(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, key_mask)
        return x
