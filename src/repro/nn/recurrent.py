"""Recurrent layers: LSTM (the DLInfMA-PN pointer-network variant) and GRU."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import DEFAULT_DTYPE, Tensor, stack


class LSTM(Module):
    """A single-layer LSTM processing ``(B, T, input_size)`` batches.

    Returns the full hidden sequence ``(B, T, hidden_size)`` and the final
    ``(h, c)`` pair.  Gate order in the fused weight matrices is
    ``[input, forget, cell, output]``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Tensor(init.xavier_uniform((input_size, 4 * hidden_size), rng), requires_grad=True)
        self.w_h = Tensor(init.xavier_uniform((hidden_size, 4 * hidden_size), rng), requires_grad=True)
        bias = np.zeros(4 * hidden_size, dtype=DEFAULT_DTYPE)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Tensor(bias, requires_grad=True)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        if x.ndim != 3 or x.shape[-1] != self.input_size:
            raise ValueError(f"expected (B, T, {self.input_size}), got {x.shape}")
        b, t, _ = x.shape
        h_dim = self.hidden_size
        if state is None:
            h = Tensor(np.zeros((b, h_dim), dtype=x.dtype))
            c = Tensor(np.zeros((b, h_dim), dtype=x.dtype))
        else:
            h, c = state
        outputs = []
        for step in range(t):
            x_t = x[:, step, :]  # (B, input)
            gates = x_t @ self.w_x + h @ self.w_h + self.bias  # (B, 4H)
            i_gate = gates[:, 0:h_dim].sigmoid()
            f_gate = gates[:, h_dim : 2 * h_dim].sigmoid()
            g_gate = gates[:, 2 * h_dim : 3 * h_dim].tanh()
            o_gate = gates[:, 3 * h_dim : 4 * h_dim].sigmoid()
            c = f_gate * c + i_gate * g_gate
            h = o_gate * c.tanh()
            outputs.append(h)
        return stack(outputs, axis=1), (h, c)


class GRU(Module):
    """A single-layer GRU over ``(B, T, input_size)`` batches.

    Gate order in the fused weights is ``[reset, update, new]``.  Returns
    the hidden sequence and the final hidden state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Tensor(init.xavier_uniform((input_size, 3 * hidden_size), rng), requires_grad=True)
        self.w_h = Tensor(init.xavier_uniform((hidden_size, 3 * hidden_size), rng), requires_grad=True)
        self.bias = Tensor(np.zeros(3 * hidden_size, dtype=DEFAULT_DTYPE), requires_grad=True)

    def forward(
        self, x: Tensor, state: Tensor | None = None
    ) -> tuple[Tensor, Tensor]:
        if x.ndim != 3 or x.shape[-1] != self.input_size:
            raise ValueError(f"expected (B, T, {self.input_size}), got {x.shape}")
        b, t, _ = x.shape
        h_dim = self.hidden_size
        h = Tensor(np.zeros((b, h_dim), dtype=x.dtype)) if state is None else state
        outputs = []
        for step in range(t):
            x_t = x[:, step, :]
            gx = x_t @ self.w_x + self.bias  # (B, 3H)
            gh = h @ self.w_h
            r = (gx[:, 0:h_dim] + gh[:, 0:h_dim]).sigmoid()
            z = (gx[:, h_dim : 2 * h_dim] + gh[:, h_dim : 2 * h_dim]).sigmoid()
            n = (gx[:, 2 * h_dim :] + r * gh[:, 2 * h_dim :]).tanh()
            h = (1.0 - z) * n + z * h
            outputs.append(h)
        return stack(outputs, axis=1), h
