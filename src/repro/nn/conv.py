"""2-D convolution, pooling and upsampling (for the UNet baseline).

All ops take ``(B, C, H, W)`` tensors.  Kernels are small (the UNet baseline
works on 9 x 9 GeoHash-grid images), so the convolution accumulates one
kernel offset at a time via tensordot — simple, exact and fast enough.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import DEFAULT_DTYPE, Tensor


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two axes by ``padding`` on every side."""
    if padding < 0:
        raise ValueError("padding must be non-negative")
    if padding == 0:
        return x
    a = x
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))

    def backward(g) -> None:
        a._receive(g[:, :, padding:-padding, padding:-padding])

    return a._make(np.pad(a.data, pad_width), (a,), backward)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """Stride-1 2-D convolution (cross-correlation, as in deep learning).

    ``x`` is ``(B, C, H, W)``, ``weight`` is ``(OC, C, KH, KW)``; output is
    ``(B, OC, H - KH + 1 + 2p, W - KW + 1 + 2p)``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weight")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, weight {weight.shape[1]}")
    xp = pad2d(x, padding)
    b, c, h, w = xp.shape
    oc, _, kh, kw = weight.shape
    oh, ow = h - kh + 1, w - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {(kh, kw)} larger than padded input {(h, w)}")

    a, wt = xp, weight
    out_data = np.zeros((b, oc, oh, ow), dtype=a.data.dtype)
    for ki in range(kh):
        for kj in range(kw):
            patch = a.data[:, :, ki : ki + oh, kj : kj + ow]  # (B, C, OH, OW)
            # (B, C, OH, OW) x (OC, C) -> (B, OH, OW, OC)
            out_data += np.tensordot(patch, wt.data[:, :, ki, kj], axes=([1], [1])).transpose(
                0, 3, 1, 2
            )

    def backward(g) -> None:
        if a.requires_grad:
            gx = np.zeros_like(a.data)
            for ki in range(kh):
                for kj in range(kw):
                    # (B, OC, OH, OW) x (OC, C) -> (B, OH, OW, C)
                    contrib = np.tensordot(g, wt.data[:, :, ki, kj], axes=([1], [0]))
                    gx[:, :, ki : ki + oh, kj : kj + ow] += contrib.transpose(0, 3, 1, 2)
            a._receive(gx)
        if wt.requires_grad:
            gw = np.zeros_like(wt.data)
            for ki in range(kh):
                for kj in range(kw):
                    patch = a.data[:, :, ki : ki + oh, kj : kj + ow]
                    # sum over B, OH, OW: (B,OC,OH,OW) x (B,C,OH,OW) -> (OC, C)
                    gw[:, :, ki, kj] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
            wt._receive(gw)

    out = a._make(out_data, (a, wt), backward)
    if bias is not None:
        out = out + bias.reshape(1, oc, 1, 1)
    return out


class Conv2d(Module):
    """Learned stride-1 convolution layer."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Tensor(init.kaiming_uniform(shape, rng), requires_grad=True)
        self.bias = (
            Tensor(np.zeros(out_channels, dtype=DEFAULT_DTYPE), requires_grad=True)
            if bias
            else None
        )
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, padding=self.padding)


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that don't fill a
    window are dropped (floor semantics)."""
    if x.ndim != 4:
        raise ValueError("max_pool2d expects a 4-D tensor")
    if kernel < 1:
        raise ValueError("kernel must be >= 1")
    b, c, h, w = x.shape
    oh, ow = h // kernel, w // kernel
    if oh < 1 or ow < 1:
        raise ValueError(f"input {(h, w)} smaller than pool kernel {kernel}")
    a = x
    trimmed = a.data[:, :, : oh * kernel, : ow * kernel]
    windows = trimmed.reshape(b, c, oh, kernel, ow, kernel)
    out_data = windows.max(axis=(3, 5))
    # Record the argmax (first max) per window for the backward pass.
    flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, kernel * kernel)
    argmax = flat.argmax(axis=-1)

    def backward(g) -> None:
        gx = np.zeros_like(a.data)
        ki, kj = np.divmod(argmax, kernel)
        bi, ci, oi, oj = np.indices((b, c, oh, ow))
        gx[bi, ci, oi * kernel + ki, oj * kernel + kj] += g
        a._receive(gx)

    return a._make(out_data, (a,), backward)


class MaxPool2d(Module):
    """Module wrapper around :func:`max_pool2d`."""

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel)


def upsample_nearest(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Nearest-neighbour resize of the last two axes to ``out_hw``.

    Handles non-integer ratios, which the UNet needs for odd input sizes
    (9 -> 4 -> 9 round trips).
    """
    if x.ndim != 4:
        raise ValueError("upsample_nearest expects a 4-D tensor")
    _, _, h, w = x.shape
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise ValueError("target size must be positive")
    rows = (np.arange(oh) * h) // oh
    cols = (np.arange(ow) * w) // ow
    # Single fancy-index op so autograd's add.at routes gradients correctly.
    return x[:, :, rows[:, None], cols[None, :]]
