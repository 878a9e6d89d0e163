"""Reverse-mode autodiff on numpy arrays.

A :class:`Tensor` holds an ndarray (``data``) and records the operations
applied to it.  Every op computes its value immediately and, when a parent
requires a gradient, keeps a ``_backward`` closure that, given the output
gradient, deposits contributions into each parent's ``_pending`` slot via
:meth:`Tensor._receive`.  :meth:`Tensor.backward` drains ``_pending`` in
reverse topological order and accumulates leaf gradients on ``.grad``.

This is the substrate replacing PyTorch for the paper's neural models:
LocMatcher's reference forward (the selector itself trains through the
hand-written pass in :mod:`repro.core.locmatcher_numpy`), the UNet
baseline, and the MLP and RankNet variants.

Dtype policy: an explicit ``dtype=`` wins; floating-point input arrays
keep their precision (finite-difference checks hand in float64);
everything else is cast to float32, the standard compute dtype.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

import numpy as np

#: The standard compute dtype; float64 creeps in only when the caller
#: explicitly provides float64 arrays (e.g. finite-difference checks).
DEFAULT_DTYPE = np.dtype(np.float32)

#: Additive mask value for attention/softmax padding (float32-safe).
NEG_INF = -1e9

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]


def sigmoid_clip(dtype) -> float:
    """Pre-exp clamp keeping ``exp`` finite in the given dtype."""
    return 88.0 if np.dtype(dtype).itemsize <= 4 else 500.0


def sigmoid(a: np.ndarray) -> np.ndarray:
    """The logistic function, clamped so ``exp`` never overflows."""
    clip = sigmoid_clip(a.dtype)
    return 1.0 / (1.0 + np.exp(-np.clip(a, -clip, clip)))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_pending", "name")
    __array_priority__ = 100  # make numpy defer to our __r*__ operators

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        name: str | None = None,
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):
            arr = data.data
            if dtype is not None and np.dtype(dtype) != arr.dtype:
                arr = arr.astype(dtype)
        else:
            arr = np.asarray(data)
            if dtype is not None:
                arr = np.asarray(arr, dtype=dtype)
            elif arr.dtype.kind != "f":
                arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._pending: np.ndarray | None = None  # gradient sum during backward()
        self.name = name

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """The scalar value; raises if not a one-element tensor."""
        if self.size != 1:
            raise ValueError("item() requires a one-element tensor")
        return float(self.data.reshape(-1)[0])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        if not self.data.shape:
            raise TypeError("len() of a 0-d tensor")
        return self.data.shape[0]

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: TensorLike, ref_dtype=None) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        if ref_dtype is not None and isinstance(value, (int, float)):
            # Weak scalar: adopt the other operand's dtype so python
            # constants never promote float32 graphs to float64.
            return Tensor(np.asarray(value, dtype=ref_dtype))
        return Tensor(value)

    def _make(self, value: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(value)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def detach(self) -> "Tensor":
        """A tensor sharing the same array, off the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def _receive(self, g: np.ndarray) -> None:
        """Deposit a gradient contribution (called by child op closures)."""
        self._pending = g if self._pending is None else self._pending + g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones, so a scalar loss needs no argument.
        Leaf tensors with ``requires_grad`` end up with ``.grad`` set.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones(self.shape, dtype=self.dtype)
        else:
            grad = np.array(grad, dtype=self.dtype, copy=True)
            if grad.shape != self.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor {self.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._receive(grad)
        assigned: set[int] = set()
        for node in reversed(topo):
            g = node._pending
            node._pending = None
            if g is None:
                continue
            if node._backward is not None:
                node._backward(g)
                continue
            # A leaf: clip utilities mutate grads in place, so each leaf
            # gets an array of its own.
            if id(g) in assigned or g.base is not None or not g.flags.writeable:
                g = g.copy()
            assigned.add(id(g))
            node.grad = g if node.grad is None else node.grad + g

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        a, b = self, self._lift(other, self.dtype)

        def backward(g) -> None:
            if a.requires_grad:
                a._receive(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._receive(_unbroadcast(g, b.shape))

        return self._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g) -> None:
            a._receive(-g)

        return self._make(-a.data, (a,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        a, b = self, self._lift(other, self.dtype)

        def backward(g) -> None:
            if a.requires_grad:
                a._receive(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._receive(_unbroadcast(-g, b.shape))

        return self._make(a.data - b.data, (a, b), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._lift(other, self.dtype).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        a, b = self, self._lift(other, self.dtype)

        def backward(g) -> None:
            if a.requires_grad:
                a._receive(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._receive(_unbroadcast(g * a.data, b.shape))

        return self._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        a, b = self, self._lift(other, self.dtype)

        def backward(g) -> None:
            if a.requires_grad:
                a._receive(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._receive(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return self._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._lift(other, self.dtype).__truediv__(self)

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self
        exponent = float(exponent)

        def backward(g) -> None:
            a._receive(g * exponent * np.power(a.data, exponent - 1.0))

        return self._make(np.power(a.data, exponent), (a,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        a, b = self, self._lift(other, self.dtype)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")

        def backward(g) -> None:
            if a.requires_grad:
                a._receive(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
            if b.requires_grad:
                b._receive(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

        return self._make(a.data @ b.data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out = np.exp(a.data)

        def backward(g) -> None:
            a._receive(g * out)

        return self._make(out, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g) -> None:
            a._receive(g / a.data)

        return self._make(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        out = np.sqrt(a.data)

        def backward(g) -> None:
            a._receive(g / (out * 2.0))

        return self._make(out, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out = np.tanh(a.data)

        def backward(g) -> None:
            a._receive(g * (1.0 - out * out))

        return self._make(out, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        out = sigmoid(a.data)

        def backward(g) -> None:
            a._receive(g * out * (1.0 - out))

        return self._make(out, (a,), backward)

    def relu(self) -> "Tensor":
        a = self

        def backward(g) -> None:
            a._receive(g * (a.data > 0))

        return self._make(np.maximum(a.data, 0.0), (a,), backward)

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        a_shape = a.shape

        def backward(g) -> None:
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                keep = list(g.shape)
                for ax in sorted(ax % len(a_shape) for ax in axes):
                    keep.insert(ax, 1)
                g = g.reshape(keep)
            elif axis is None and not keepdims:
                g = np.reshape(g, tuple(1 for _ in a_shape))
            a._receive(np.broadcast_to(g, a_shape))

        return self._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max along ``axis``; gradient flows to the first argmax per slice."""
        a = self
        out_keep = a.data.max(axis=axis, keepdims=True)

        def backward(g) -> None:
            hit = a.data == out_keep
            first = np.cumsum(hit, axis=axis) == 1
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._receive(g * (hit & first))

        out = out_keep if keepdims else out_keep.squeeze(axis)
        return self._make(out, (a,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = a.shape

        def backward(g) -> None:
            a._receive(g.reshape(old_shape))

        return self._make(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(g) -> None:
            a._receive(g.transpose(inverse))

        return self._make(a.data.transpose(axes), (a,), backward)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self

        def backward(g) -> None:
            a._receive(g.swapaxes(ax1, ax2))

        return self._make(a.data.swapaxes(ax1, ax2), (a,), backward)

    def __getitem__(self, index) -> "Tensor":
        a = self

        def backward(g) -> None:
            out = np.zeros(a.shape, dtype=a.dtype)
            np.add.at(out, index, g)
            a._receive(out)

        return self._make(a.data[index], (a,), backward)


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    ts = [Tensor._lift(t) for t in tensors]
    if not ts:
        raise ValueError("cat() of no tensors")
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])
    ndim = ts[0].ndim

    def backward(g) -> None:
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * ndim
                index[axis % ndim] = slice(int(start), int(stop))
                t._receive(g[tuple(index)])

    return ts[0]._make(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    ts = [Tensor._lift(t) for t in tensors]
    if not ts:
        raise ValueError("stack() of no tensors")

    def backward(g) -> None:
        for t, part in zip(ts, np.moveaxis(g, axis, 0)):
            if t.requires_grad:
                t._receive(part)

    return ts[0]._make(np.stack([t.data for t in ts], axis=axis), tuple(ts), backward)
