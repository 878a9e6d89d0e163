"""LocMatcher's hand-written numpy forward and backward pass.

:class:`~repro.core.locmatcher.LocMatcherSelector` trains, validates and
scores through :func:`forward`, :func:`masked_cross_entropy` and
:func:`backward`; :meth:`LocMatcherNet.forward` (autograd) is the
reference they are tested against.  The pass reads the net's parameter
arrays (``p.data``) and writes ``p.grad``, so the optimizer, gradient
clipping, ``state_dict`` and model persistence see the same tensors
either way.

Covered: the time-histogram dense, the input dense, the transformer
(post-norm blocks of multi-head self-attention and a ReLU FFN) or LSTM
encoder, the additive attention of Eq. 3 with or without the ``U c``
address context, and the masked softmax / cross-entropy of Eq. 4.
Dropout masks come from each :class:`~repro.nn.Dropout` module's own
generator, drawn in the same order and shapes as the autograd forward.

Everything computes in the parameters' dtype (float32 in the selector).
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import key_bias_from_mask
from repro.nn.functional import mask_bias
from repro.nn.tensor import sigmoid


def _dense(x: np.ndarray, layer) -> np.ndarray:
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _dense_backward(layer, x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Write ``layer``'s gradients; return the gradient w.r.t. ``x``."""
    x2 = x.reshape(-1, x.shape[-1])
    d2 = d_out.reshape(-1, d_out.shape[-1])
    layer.weight.grad = x2.T @ d2
    if layer.bias is not None:
        layer.bias.grad = d2.sum(axis=0)
    return d_out @ layer.weight.data.T


def _dropout(module, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    mask = module.mask(x.shape, x.dtype)
    return (x, None) if mask is None else (x * mask, mask)


# ----------------------------------------------------------------------
# Layer norm
# ----------------------------------------------------------------------
def _layer_norm(norm, x: np.ndarray):
    # Same operations, in the same order, as ``LayerNorm.forward``.
    inv_dim = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_dim
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
    std = np.sqrt(var + norm.eps)
    xhat = centered / std
    return xhat * norm.gamma.data + norm.beta.data, (xhat, std)


def _layer_norm_backward(norm, tape, d_out: np.ndarray) -> np.ndarray:
    xhat, std = tape
    norm.gamma.grad = (d_out * xhat).sum(axis=(0, 1))
    norm.beta.grad = d_out.sum(axis=(0, 1))
    d_xhat = d_out * norm.gamma.data
    return (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
    ) / std


# ----------------------------------------------------------------------
# Transformer encoder block
# ----------------------------------------------------------------------
def _qkv_params(attn) -> tuple[np.ndarray, np.ndarray]:
    """``W_q | W_k | W_v`` (and biases) side by side: one matmul for all three."""
    weight = np.concatenate([attn.w_q.weight.data, attn.w_k.weight.data, attn.w_v.weight.data], 1)
    bias = np.concatenate([attn.w_q.bias.data, attn.w_k.bias.data, attn.w_v.bias.data])
    return weight, bias


def _block(layer, x: np.ndarray, key_bias: np.ndarray):
    """One post-norm encoder block (``TransformerEncoderLayer.forward``)."""
    attn = layer.attn
    b, n, z = x.shape
    heads, d_head = attn.n_heads, attn.d_head
    w_qkv, b_qkv = _qkv_params(attn)
    qkv = (x @ w_qkv + b_qkv).reshape(b, n, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv  # (B, H, N, dh) each
    scale = float(1.0 / np.sqrt(d_head))
    s = (q @ k.swapaxes(-1, -2)) * scale + key_bias  # (B, H, N, N)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    probs_d, mask_a = _dropout(attn.attn_dropout, probs)
    merged = (probs_d @ v).transpose(0, 2, 1, 3).reshape(b, n, z)
    attn_out, mask_1 = _dropout(layer.dropout1, _dense(merged, attn.w_o))
    n1, ln1 = _layer_norm(layer.norm1, x + attn_out)
    f1 = _dense(n1, layer.ff1)
    r = np.maximum(f1, 0.0)
    ff_out, mask_2 = _dropout(layer.dropout2, _dense(r, layer.ff2))
    out, ln2 = _layer_norm(layer.norm2, n1 + ff_out)
    tape = (x, w_qkv, q, k, v, scale, probs, probs_d, mask_a, merged, mask_1,
            n1, ln1, f1, r, mask_2, ln2)
    return out, tape


def _block_backward(layer, tape, d_out: np.ndarray) -> np.ndarray:
    (x, w_qkv, q, k, v, scale, probs, probs_d, mask_a, merged, mask_1,
     n1, ln1, f1, r, mask_2, ln2) = tape
    attn = layer.attn
    b, n, z = x.shape

    d_y2 = _layer_norm_backward(layer.norm2, ln2, d_out)
    d_ff = d_y2 if mask_2 is None else d_y2 * mask_2
    d_r = _dense_backward(layer.ff2, r, d_ff)
    d_n1 = d_y2 + _dense_backward(layer.ff1, n1, d_r * (f1 > 0))

    d_y1 = _layer_norm_backward(layer.norm1, ln1, d_n1)
    d_attn = d_y1 if mask_1 is None else d_y1 * mask_1
    d_merged = _dense_backward(attn.w_o, merged, d_attn)
    d_o = d_merged.reshape(b, n, attn.n_heads, attn.d_head).transpose(0, 2, 1, 3)
    d_probs = d_o @ v.swapaxes(-1, -2)
    d_v = probs_d.swapaxes(-1, -2) @ d_o
    if mask_a is not None:
        d_probs = d_probs * mask_a
    d_s = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_s *= scale
    d_q = d_s @ k
    d_k = d_s.swapaxes(-1, -2) @ q
    d_qkv = np.stack([d_q, d_k, d_v]).transpose(1, 3, 0, 2, 4).reshape(b, n, 3 * z)

    d2 = d_qkv.reshape(-1, 3 * z)
    w_grad = x.reshape(-1, z).T @ d2
    b_grad = d2.sum(axis=0)
    for i, lin in enumerate((attn.w_q, attn.w_k, attn.w_v)):
        lin.weight.grad = w_grad[:, i * z : (i + 1) * z].copy()
        lin.bias.grad = b_grad[i * z : (i + 1) * z].copy()
    return d_y1 + d_qkv @ w_qkv.T


# ----------------------------------------------------------------------
# LSTM encoder (DLInfMA-PN)
# ----------------------------------------------------------------------
def _lstm(lstm, x: np.ndarray):
    """``LSTM.forward`` from a zero state; gate order ``[i, f, g, o]``."""
    b, t, _ = x.shape
    hd = lstm.hidden_size
    w_h = lstm.w_h.data
    gx = x @ lstm.w_x.data + lstm.bias.data  # (B, T, 4H)
    h = np.zeros((b, hd), dtype=x.dtype)
    c = np.zeros((b, hd), dtype=x.dtype)
    hs = np.empty((b, t, hd), dtype=x.dtype)
    steps = []
    for step in range(t):
        gates = gx[:, step] + h @ w_h
        act = sigmoid(gates)
        act[:, 2 * hd : 3 * hd] = np.tanh(gates[:, 2 * hd : 3 * hd])
        c_prev = c
        c = act[:, hd : 2 * hd] * c_prev + act[:, :hd] * act[:, 2 * hd : 3 * hd]
        tanh_c = np.tanh(c)
        steps.append((act, c_prev, tanh_c, h))
        h = act[:, 3 * hd :] * tanh_c
        hs[:, step] = h
    return hs, (x, steps)


def _lstm_backward(lstm, tape, d_hs: np.ndarray) -> np.ndarray:
    x, steps = tape
    b, t, _ = x.shape
    hd = lstm.hidden_size
    w_h = lstm.w_h.data
    d_gates = np.empty((b, t, 4 * hd), dtype=x.dtype)
    h_prev = np.empty((b, t, hd), dtype=x.dtype)
    d_h = np.zeros((b, hd), dtype=x.dtype)
    d_c = np.zeros((b, hd), dtype=x.dtype)
    for step in reversed(range(t)):
        act, c_prev, tanh_c, h_before = steps[step]
        i, f, g, o = (act[:, j * hd : (j + 1) * hd] for j in range(4))
        d_h = d_h + d_hs[:, step]
        d_c = d_c + d_h * o * (1.0 - tanh_c * tanh_c)
        da = d_gates[:, step]
        da[:, :hd] = d_c * g * i * (1.0 - i)
        da[:, hd : 2 * hd] = d_c * c_prev * f * (1.0 - f)
        da[:, 2 * hd : 3 * hd] = d_c * i * (1.0 - g * g)
        da[:, 3 * hd :] = d_h * tanh_c * o * (1.0 - o)
        h_prev[:, step] = h_before
        d_c = d_c * f
        d_h = da @ w_h.T
    g2 = d_gates.reshape(-1, 4 * hd)
    lstm.w_h.grad = h_prev.reshape(-1, hd).T @ g2
    lstm.w_x.grad = x.reshape(-1, x.shape[-1]).T @ g2
    lstm.bias.grad = g2.sum(axis=0)
    return d_gates @ lstm.w_x.data.T


# ----------------------------------------------------------------------
# The whole net
# ----------------------------------------------------------------------
def forward(net, scalars, hist, mask, poi, n_deliveries) -> tuple[np.ndarray, tuple]:
    """Raw matching scores ``(B, N)`` and the tape :func:`backward` needs.

    Same inputs as :meth:`LocMatcherNet.forward`.  Dropout is active when
    the net is in training mode.
    """
    dtype = net.input_dense.weight.data.dtype
    x = np.asarray(scalars, dtype=dtype)
    hist_tape = None
    if net.hist_dense is not None:
        if hist is None:
            raise ValueError("model was built with a time-histogram input")
        hist = np.asarray(hist, dtype=dtype)
        hist_out = np.tanh(_dense(hist, net.hist_dense))
        hist_tape = (hist, hist_out)
        x = np.concatenate([x, hist_out], axis=-1)
    pre_relu = _dense(x, net.input_dense)
    h, mask_0 = _dropout(net.dropout, np.maximum(pre_relu, 0.0))
    if net.config.encoder == "transformer":
        key_bias = key_bias_from_mask(np.asarray(mask, dtype=bool), dtype)
        enc_tapes = []
        encoded = h
        for layer in net.encoder.layers:
            encoded, layer_tape = _block(layer, encoded, key_bias)
            enc_tapes.append(layer_tape)
    else:
        encoded, enc_tapes = _lstm(net.encoder, h)
    pre = _dense(encoded, net.w)  # (B, N, p)
    context = None
    if net.use_address_context:
        ndel = np.asarray(n_deliveries, dtype=dtype).reshape(-1, 1)
        context = np.concatenate([net.poi_embedding.weight.data[poi], ndel], axis=-1)
        pre = pre + (context @ net.u.weight.data)[:, None, :]
    act = np.tanh(pre)
    scores = (act * net.v.weight.data[:, 0]).sum(axis=-1)  # as in LocMatcherNet.forward
    tape = (x, hist_tape, pre_relu, mask_0, enc_tapes, encoded, poi, context, act)
    return scores, tape


def backward(net, tape, d_scores: np.ndarray) -> None:
    """Backpropagate ``d_scores`` (``(B, N)``); sets every parameter's ``grad``."""
    x, hist_tape, pre_relu, mask_0, enc_tapes, encoded, poi, context, act = tape
    p = act.shape[-1]
    net.v.weight.grad = act.reshape(-1, p).T @ d_scores.reshape(-1, 1)
    d_pre = (d_scores[..., None] * net.v.weight.data[:, 0]) * (1.0 - act * act)
    if context is not None:
        d_uc = d_pre.sum(axis=1)  # (B, p)
        net.u.weight.grad = context.T @ d_uc
        d_context = d_uc @ net.u.weight.data.T
        emb = net.poi_embedding.weight
        emb.grad = np.zeros_like(emb.data)
        np.add.at(emb.grad, poi, d_context[:, : emb.data.shape[1]])
    d = _dense_backward(net.w, encoded, d_pre)
    if net.config.encoder == "transformer":
        for layer, layer_tape in zip(reversed(net.encoder.layers), reversed(enc_tapes)):
            d = _block_backward(layer, layer_tape, d)
    else:
        d = _lstm_backward(net.encoder, enc_tapes, d)
    if mask_0 is not None:
        d = d * mask_0
    d_x = _dense_backward(net.input_dense, x, d * (pre_relu > 0))
    if hist_tape is not None:
        hist, hist_out = hist_tape
        r = hist_out.shape[-1]
        d_hist = d_x[..., -r:] * (1.0 - hist_out * hist_out)
        _dense_backward(net.hist_dense, hist, d_hist)


def _masked_exp(scores: np.ndarray, mask: np.ndarray):
    """Max-shifted scores with padding at ``NEG_INF``, their exp and its row sums."""
    z = scores + mask_bias(mask, scores.dtype)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Selection probabilities (Eq. 4): zero on padded candidates."""
    _, e, total = _masked_exp(scores, mask)
    return e / total


def masked_cross_entropy(
    scores: np.ndarray, mask: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the labelled candidates, and its gradient
    w.r.t. ``scores`` (``functional.cross_entropy`` with a mask)."""
    shifted, e, total = _masked_exp(scores, mask)
    rows = np.arange(len(labels))
    loss = -float((shifted[rows, labels] - np.log(total[:, 0])).mean())
    d_scores = e / total
    d_scores[rows, labels] -= 1.0
    d_scores *= 1.0 / len(labels)
    return loss, d_scores
