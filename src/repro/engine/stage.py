"""The stage abstraction: typed, registered pipeline steps.

A :class:`Stage` is a named function with a declared input/output contract
over a shared state dict.  A :class:`StagePlan` executes a sequence of
stages, enforcing the contract and timing and counting every step through
the :class:`~repro.engine.context.RunContext`.

Stages register globally by name (:func:`register_stage` / :func:`stage`)
so plans can be declared as name lists and later PRs can swap
implementations (sharded, async, multi-backend) behind stable names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.engine.context import RunContext
from repro.obs import event, get_registry


@dataclass(frozen=True)
class Stage:
    """One pipeline step with a declared state contract.

    ``fn(ctx, **inputs)`` must return a dict covering ``outputs``.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable[..., dict[str, Any]]

    def run(self, ctx: RunContext, state: dict[str, Any]) -> dict[str, Any]:
        """Execute against ``state``, validating the contract."""
        missing = [k for k in self.inputs if k not in state]
        if missing:
            raise KeyError(f"stage {self.name!r} missing inputs: {missing}")
        out = self.fn(ctx, **{k: state[k] for k in self.inputs})
        if not isinstance(out, dict):
            raise TypeError(f"stage {self.name!r} must return a dict of outputs")
        undeclared = set(out) - set(self.outputs)
        absent = set(self.outputs) - set(out)
        if undeclared or absent:
            raise ValueError(
                f"stage {self.name!r} output mismatch: "
                f"undeclared={sorted(undeclared)} absent={sorted(absent)}"
            )
        return out


_REGISTRY: dict[str, Stage] = {}


def register_stage(stage_obj: Stage, replace: bool = False) -> Stage:
    """Add a stage to the global registry (name collision is an error)."""
    if not replace and stage_obj.name in _REGISTRY:
        raise ValueError(f"stage {stage_obj.name!r} is already registered")
    _REGISTRY[stage_obj.name] = stage_obj
    return stage_obj


def stage(
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    replace: bool = False,
) -> Callable[[Callable[..., dict[str, Any]]], Stage]:
    """Decorator: register ``fn`` as a stage and return the Stage object."""

    def decorator(fn: Callable[..., dict[str, Any]]) -> Stage:
        return register_stage(
            Stage(
                name=name,
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                fn=fn,
            ),
            replace=replace,
        )

    return decorator


def get_stage(name: str) -> Stage:
    """Look a registered stage up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_stages() -> list[str]:
    """Registered stage names, sorted."""
    return sorted(_REGISTRY)


def _maybe_len(value: Any) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


class StagePlan:
    """An ordered sequence of stages executed over a shared state dict."""

    def __init__(self, stages: Iterable[Stage | str]) -> None:
        self.stages: list[Stage] = [
            get_stage(s) if isinstance(s, str) else s for s in stages
        ]

    def run(self, ctx: RunContext, state: dict[str, Any]) -> dict[str, Any]:
        """Run every stage in order, mutating and returning ``state``."""
        stage_hist = get_registry().histogram(
            "engine_stage_seconds", "Wall-clock seconds per engine stage execution"
        )
        for stg in self.stages:
            t0 = time.perf_counter()
            with ctx.timed(stg.name) as sp:
                out = stg.run(ctx, state)
                items_in = _maybe_len(state.get(stg.inputs[0])) if stg.inputs else None
                items_out = _maybe_len(out.get(stg.outputs[0])) if stg.outputs else None
                if sp is not None:
                    sp.set("items_in", items_in)
                    sp.set("items_out", items_out)
            seconds = time.perf_counter() - t0
            stage_hist.observe(seconds, stage=stg.name)
            ctx.record(stg.name, seconds, items_in=items_in, items_out=items_out)
            state.update(out)
            event(
                "stage.complete", level="debug", component="engine",
                stage=stg.name, run=ctx.label, seconds=seconds,
                items_in=items_in, items_out=items_out,
            )
        return state
