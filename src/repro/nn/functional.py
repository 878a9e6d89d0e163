"""Composite differentiable functions built on Tensor primitives."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import DEFAULT_DTYPE, NEG_INF, Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def mask_bias(mask: np.ndarray, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """``0`` where ``mask`` is truthy, ``NEG_INF`` elsewhere, in ``dtype``."""
    return np.where(np.asarray(mask, dtype=bool), 0.0, NEG_INF).astype(dtype)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax where positions with ``mask == 0`` get zero probability.

    ``mask`` is a constant boolean/0-1 array broadcastable to ``x``; padded
    candidate slots in a LocMatcher batch use this to stay out of the
    probability distribution (Eq. 4 over real candidates only).
    """
    bias = Tensor(mask_bias(mask, x.dtype))
    return softmax(x + bias, axis=axis)


def cross_entropy(logits: Tensor, target_index: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of ``(B, N)`` logits against integer targets.

    ``mask`` (``(B, N)``, optional) marks valid positions; invalid logits are
    excluded from the normalization — this is the training loss of
    LocMatcher (one-hot over the candidate set, Section IV-B).
    """
    target_index = np.asarray(target_index, dtype=int)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (B, N), got shape {logits.shape}")
    batch, n = logits.shape
    if target_index.shape != (batch,):
        raise ValueError("target_index must have shape (B,)")
    if np.any(target_index < 0) or np.any(target_index >= n):
        raise ValueError("target_index out of range")
    if mask is not None:
        logits = logits + Tensor(mask_bias(mask, logits.dtype))
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(batch), target_index]
    return -picked.mean()


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, pos_weight: float = 1.0
) -> Tensor:
    """Mean weighted BCE; ``pos_weight`` scales the positive-class term.

    Used by the classification variants (DLInfMA-MLP) where positive labels
    (the true delivery location among many candidates) are rare — the paper
    uses an 8:2 class weight.
    """
    targets_t = Tensor(np.asarray(targets), dtype=logits.dtype)
    p = logits.sigmoid()
    eps = 1e-12
    pos = targets_t * (p + eps).log() * pos_weight
    neg = (1.0 - targets_t) * ((1.0 - p) + eps).log()
    return -(pos + neg).mean()


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = pred - Tensor(np.asarray(target), dtype=pred.dtype)
    return (diff * diff).mean()


def pairwise_logistic_loss(score_pos: Tensor, score_neg: Tensor) -> Tensor:
    """RankNet loss: ``log(1 + exp(s_neg - s_pos))`` averaged.

    Drives the positive candidate's score above each negative's.
    """
    diff = score_neg - score_pos
    # log(1 + e^d) = softplus(d); stable via max trick.
    zeros = diff * 0.0
    m = _maximum(diff, zeros)
    return (m + ((diff - m).exp() + (zeros - m).exp()).log()).mean()


def _maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max via relu composition (differentiable a.e.)."""
    return (a - b).relu() + b
