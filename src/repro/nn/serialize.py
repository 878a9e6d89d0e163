"""Optimizer-state serialization for resumable training.

Module weights round-trip through ``Module.state_dict``; this adds the
optimizer side (Adam moments / SGD velocity and step counters), so long
LocMatcher runs can checkpoint and resume exactly.
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np

from repro.durable import write_npz
from repro.nn.optim import SGD, Adam, Optimizer

PathLike = Union[str, pathlib.Path]


def optimizer_state(optimizer: Optimizer) -> dict[str, np.ndarray]:
    """Arrays describing the optimizer's mutable state."""
    state: dict[str, np.ndarray] = {"lr": np.array([optimizer.lr])}
    if isinstance(optimizer, Adam):
        state["t"] = np.array([optimizer._t])
        for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
            state[f"m::{i}"] = m.copy()
            state[f"v::{i}"] = v.copy()
    elif isinstance(optimizer, SGD):
        for i, vel in enumerate(optimizer._velocity):
            state[f"vel::{i}"] = vel.copy()
    else:
        raise TypeError(f"unsupported optimizer type: {type(optimizer).__name__}")
    return state


def load_optimizer_state(optimizer: Optimizer, state: dict[str, np.ndarray]) -> None:
    """Restore state captured by :func:`optimizer_state`.

    The optimizer must wrap parameters with identical shapes in identical
    order.
    """
    optimizer.lr = float(np.asarray(state["lr"]).reshape(-1)[0])
    if isinstance(optimizer, Adam):
        optimizer._t = int(np.asarray(state["t"]).reshape(-1)[0])
        for i in range(len(optimizer.params)):
            m = np.asarray(state[f"m::{i}"])
            v = np.asarray(state[f"v::{i}"])
            if m.shape != optimizer._m[i].shape:
                raise ValueError(f"moment shape mismatch at parameter {i}")
            optimizer._m[i][...] = m
            optimizer._v[i][...] = v
    elif isinstance(optimizer, SGD):
        for i in range(len(optimizer.params)):
            vel = np.asarray(state[f"vel::{i}"])
            if vel.shape != optimizer._velocity[i].shape:
                raise ValueError(f"velocity shape mismatch at parameter {i}")
            optimizer._velocity[i][...] = vel
    else:
        raise TypeError(f"unsupported optimizer type: {type(optimizer).__name__}")


def save_optimizer(optimizer: Optimizer, path: PathLike) -> None:
    """Write optimizer state as a compressed ``.npz``."""
    write_npz(path, optimizer_state(optimizer))


def load_optimizer(optimizer: Optimizer, path: PathLike) -> None:
    """Restore optimizer state from :func:`save_optimizer` output."""
    archive = np.load(pathlib.Path(path))
    load_optimizer_state(optimizer, {k: archive[k] for k in archive.files})
