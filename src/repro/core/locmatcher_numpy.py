"""LocMatcher's hand-written numpy forward and backward pass.

:class:`~repro.core.locmatcher.LocMatcherSelector` trains, validates and
scores through :func:`forward`, :func:`masked_cross_entropy` and
:func:`backward`; :meth:`LocMatcherNet.forward` (autograd) is the
reference they are tested against.  The pass reads the net's parameter
arrays (``p.data``) and writes ``p.grad``, so the optimizer, gradient
clipping and ``state_dict`` see the same tensors either way.

Covered: the time-histogram dense, the input dense, the transformer
(post-norm blocks of multi-head self-attention and a ReLU FFN) or LSTM
encoder, the additive attention of Eq. 3 with or without the ``U c``
address context, and the masked softmax / cross-entropy of Eq. 4.
Dropout masks come from each :class:`~repro.nn.Dropout` module's own
generator, drawn in the same order and shapes as the autograd forward.

Two layouts.  Around the encoder, arrays are candidate-major
``(B, N, features)`` and a dense is one 2-D matmul over all candidates.
Inside the transformer, hidden states are feature-major ``(z, B, N)`` and
attention maps keys-major ``(N_k, B, H, N_q)``: the softmax and layer-norm
reductions run along axis 0 over contiguous rows of ``B * N`` or
``B * H * N`` elements, not along a trailing axis of 8 or ~20, where numpy
is slowest.  Axis-0 sums add rows in order (a score does not depend on its
batch) and differ from the reference's trailing-axis sums in the last bit.

Everything computes in the parameters' dtype (float32 in the selector).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import mask_bias
from repro.nn.tensor import sigmoid


def _dense(x: np.ndarray, layer) -> np.ndarray:
    """A dense on ``(..., in)``, as one 2-D matmul over all candidates."""
    out = x.reshape(-1, x.shape[-1]) @ layer.weight.data
    out += layer.bias.data
    return out.reshape(x.shape[:-1] + (-1,))


def _dense_backward(layer, x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Write ``layer``'s gradients; return the gradient w.r.t. ``x``."""
    x2 = x.reshape(-1, x.shape[-1])
    d2 = d_out.reshape(-1, d_out.shape[-1])
    layer.weight.grad = x2.T @ d2
    layer.bias.grad = d2.sum(axis=0)
    return (d2 @ layer.weight.data.T).reshape(x.shape)


def _dropout(module, x: np.ndarray, axes: tuple[int, ...]):
    """``x`` times a fresh mask of ``module``, and the mask (``None`` in eval).
    ``x`` is the autograd reference's array transposed by ``axes``; the mask
    is drawn in the reference's shape and applied as the same view."""
    mask = module.mask(tuple(x.shape[axes.index(i)] for i in range(x.ndim)), x.dtype)
    if mask is None:
        return x, None
    mask = mask.transpose(axes)
    return x * mask, mask


# ----------------------------------------------------------------------
# Transformer encoder, feature-major
# ----------------------------------------------------------------------
#: ``(B, N, z)`` hidden states and dropout masks -> feature-major ``(z, B, N)``.
_HIDDEN = (2, 0, 1)
#: ``(B, H, N_q, N_k)`` attention maps -> keys-major ``(N_k, B, H, N_q)``.
_KEYS = (3, 0, 1, 2)
_HEADS = (2, 0, 1, 3)  # per-head matmul views: (H, dh, B, N) -> (B, H, dh, N)
_BY_HEAD = (1, 2, 0, 3)  # and keys-major maps -> (B, H, N_k, N_q)


def _dense_t(layer, x: np.ndarray) -> np.ndarray:
    """A dense on feature-major ``x`` (``(in, ...)`` -> ``(out, ...)``)."""
    out = layer.weight.data.T @ x.reshape(len(x), -1)
    out += layer.bias.data[:, None]
    return out.reshape((-1,) + x.shape[1:])


def _dense_t_backward(layer, x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Write ``layer``'s gradients; return the gradient w.r.t. feature-major ``x``."""
    d2 = d_out.reshape(len(d_out), -1)
    layer.weight.grad = x.reshape(len(x), -1) @ d2.T
    layer.bias.grad = d2.sum(axis=1)
    return (layer.weight.data @ d2).reshape(x.shape)


def _layer_norm(norm, x: np.ndarray):
    """``LayerNorm.forward`` over axis 0 of a feature-major ``(z, B, N)``;
    normalizes ``x`` in place (it becomes the tape's ``xhat``)."""
    inv_dim = 1.0 / len(x)
    x -= x.sum(axis=0) * inv_dim
    var = np.square(x).sum(axis=0) * inv_dim
    std = np.sqrt(var + norm.eps)
    x /= std
    out = x * norm.gamma.data[:, None, None]
    out += norm.beta.data[:, None, None]
    return out, (x, std)


def _layer_norm_backward(norm, tape, d_out: np.ndarray) -> np.ndarray:
    xhat, std = tape
    z = len(xhat)
    norm.gamma.grad = (d_out * xhat).reshape(z, -1).sum(axis=1)
    norm.beta.grad = d_out.reshape(z, -1).sum(axis=1)
    d_xhat = d_out * norm.gamma.data[:, None, None]
    inv_dim = 1.0 / z
    d_x = d_xhat - d_xhat.sum(axis=0) * inv_dim
    d_x -= xhat * ((d_xhat * xhat).sum(axis=0) * inv_dim)
    d_x /= std
    return d_x


def _block(layer, x: np.ndarray, key_bias: np.ndarray, tapes: list | None) -> np.ndarray:
    """One post-norm encoder block (``TransformerEncoderLayer.forward``) on a
    feature-major ``(z, B, N)``; ``key_bias`` is keys-major ``(N_k, B, 1, 1)``.
    Appends the block's tape to ``tapes`` unless that is ``None``."""
    attn = layer.attn
    z, b, n = x.shape
    heads, d_head = attn.n_heads, attn.d_head
    qkv_layers = (attn.w_q, attn.w_k, attn.w_v)  # one matmul for all three
    w_qkv = np.concatenate([lin.weight.data for lin in qkv_layers], 1)
    b_qkv = np.concatenate([lin.bias.data for lin in qkv_layers])
    qkv = w_qkv.T @ x.reshape(z, -1)
    qkv += b_qkv[:, None]
    # (B, H, dh, N) views of the feature-major (H, dh, B, N) q, k and v.
    q, k, v = qkv.reshape(3, heads, d_head, b, n).transpose(0, 3, 1, 2, 4)
    scale = float(1.0 / np.sqrt(d_head))
    s = np.empty((n, b, heads, n), dtype=x.dtype)  # keys-major scores
    np.matmul(k.swapaxes(-1, -2), q, out=s.transpose(_BY_HEAD))
    s *= scale
    s += key_bias
    # Softmax over keys, in place: the scores become the attention map.
    s -= s.max(axis=0)
    probs = np.exp(s, out=s)
    probs /= probs.sum(axis=0)
    probs_d, mask_a = _dropout(attn.attn_dropout, probs, _KEYS)
    merged = np.empty((heads, d_head, b, n), dtype=x.dtype)
    np.matmul(v, probs_d.transpose(_BY_HEAD), out=merged.transpose(_HEADS))
    merged = merged.reshape(z, b, n)
    attn_out, mask_1 = _dropout(layer.dropout1, _dense_t(attn.w_o, merged), _HIDDEN)
    attn_out += x
    n1, ln1 = _layer_norm(layer.norm1, attn_out)
    f1 = _dense_t(layer.ff1, n1)
    r = np.maximum(f1, 0.0, out=f1)
    ff_out, mask_2 = _dropout(layer.dropout2, _dense_t(layer.ff2, r), _HIDDEN)
    ff_out += n1
    out, ln2 = _layer_norm(layer.norm2, ff_out)
    if tapes is not None:
        tapes.append((x, w_qkv, q, k, v, scale, probs, probs_d, mask_a, merged, mask_1,
                      n1, ln1, r, mask_2, ln2))
    return out


def _block_backward(layer, tape, d_out: np.ndarray) -> np.ndarray:
    (x, w_qkv, q, k, v, scale, probs, probs_d, mask_a, merged, mask_1,
     n1, ln1, r, mask_2, ln2) = tape
    attn = layer.attn
    z, b, n = x.shape

    d_y2 = _layer_norm_backward(layer.norm2, ln2, d_out)
    d_ff = d_y2 if mask_2 is None else d_y2 * mask_2
    d_r = _dense_t_backward(layer.ff2, r, d_ff)
    d_n1 = d_y2 + _dense_t_backward(layer.ff1, n1, d_r * (r > 0))

    d_y1 = _layer_norm_backward(layer.norm1, ln1, d_n1)
    d_attn = d_y1 if mask_1 is None else d_y1 * mask_1
    d_o = _dense_t_backward(attn.w_o, merged, d_attn)
    d_o = d_o.reshape(attn.n_heads, attn.d_head, b, n).transpose(_HEADS)
    d_probs = np.empty_like(probs)
    np.matmul(v.swapaxes(-1, -2), d_o, out=d_probs.transpose(_BY_HEAD))
    d_qkv = np.empty((3, attn.n_heads, attn.d_head, b, n), dtype=x.dtype)
    d_q, d_k, d_v = d_qkv.transpose(0, 3, 1, 2, 4)  # as q, k and v
    np.matmul(d_o, probs_d.transpose(_BY_HEAD).swapaxes(-1, -2), out=d_v)
    if mask_a is not None:
        d_probs *= mask_a
    d_probs -= (d_probs * probs).sum(axis=0)
    d_s = d_probs  # softmax backward over keys, in place
    d_s *= probs
    d_s *= scale
    np.matmul(k, d_s.transpose(_BY_HEAD), out=d_q)
    np.matmul(q, d_s.transpose(_BY_HEAD).swapaxes(-1, -2), out=d_k)

    d2 = d_qkv.reshape(3 * z, -1)
    w_grad = x.reshape(z, -1) @ d2.T
    b_grad = d2.sum(axis=1)
    for i, lin in enumerate((attn.w_q, attn.w_k, attn.w_v)):
        lin.weight.grad = w_grad[:, i * z : (i + 1) * z].copy()
        lin.bias.grad = b_grad[i * z : (i + 1) * z].copy()
    return d_y1 + (w_qkv @ d2).reshape(z, b, n)


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
def forward(
    net, scalars, hist, mask, poi, n_deliveries, keep_tape: bool = True
) -> tuple[np.ndarray, tuple | None]:
    """Raw matching scores ``(B, N)`` and the tape :func:`backward` needs.

    Same inputs as :meth:`LocMatcherNet.forward`.  Dropout is active when
    the net is in training mode.  With ``keep_tape=False`` (scoring) each
    block's activations are freed as soon as the next block has read them.
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
    h, mask_0 = _dropout(net.dropout, np.maximum(pre_relu, 0.0), (0, 1, 2))
    if net.config.encoder == "transformer":
        key_bias = mask_bias(np.asarray(mask, dtype=bool), dtype).T[:, :, None, None]
        enc_tapes = [] if keep_tape else None
        encoded = np.ascontiguousarray(h.transpose(_HIDDEN))
        for layer in net.encoder.layers:
            encoded = _block(layer, encoded, key_bias, enc_tapes)
        encoded = np.ascontiguousarray(encoded.transpose(1, 2, 0))
    else:
        encoded, enc_tapes = _lstm(net.encoder, h)
    pre = _dense(encoded, net.w)  # (B, N, p)
    context = None
    if net.use_address_context:
        ndel = np.asarray(n_deliveries, dtype=dtype).reshape(-1, 1)
        context = np.concatenate([net.poi_embedding.weight.data[poi], ndel], axis=-1)
        pre += (context @ net.u.weight.data)[:, None, :]
    act = np.tanh(pre, out=pre)
    scores = (act * net.v.weight.data[:, 0]).sum(axis=-1)  # as in LocMatcherNet.forward
    tape = (x, hist_tape, pre_relu, mask_0, enc_tapes, encoded, poi, context, act)
    return scores, tape if keep_tape else None


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
        d = np.ascontiguousarray(d.transpose(_HIDDEN))
        for layer, layer_tape in zip(reversed(net.encoder.layers), reversed(enc_tapes)):
            d = _block_backward(layer, layer_tape, d)
        d = d.transpose(1, 2, 0)
    else:
        d = _lstm_backward(net.encoder, enc_tapes, d)
    if mask_0 is not None:
        d = d * mask_0
    d_x = _dense_backward(net.input_dense, x, d * (pre_relu > 0))
    if hist_tape is not None:
        hist, hist_out = hist_tape
        d_hist = d_x[..., -hist_out.shape[-1] :] * (1.0 - hist_out * hist_out)
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
