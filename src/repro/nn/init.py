"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import DEFAULT_DTYPE

_GLOBAL_SEED = np.random.default_rng(0)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out)-style shape."""
    rng = rng or _GLOBAL_SEED
    fan_in, fan_out = _fans(shape)
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(DEFAULT_DTYPE)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """He uniform init (ReLU gain)."""
    rng = rng or _GLOBAL_SEED
    fan_in, _ = _fans(shape)
    limit = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-limit, limit, size=shape).astype(DEFAULT_DTYPE)


def normal(shape: tuple[int, ...], std: float = 0.02, rng: np.random.Generator | None = None) -> np.ndarray:
    """Zero-mean Gaussian init."""
    rng = rng or _GLOBAL_SEED
    return rng.normal(0.0, std, size=shape).astype(DEFAULT_DTYPE)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Conv kernels (out_ch, in_ch, kh, kw).
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
