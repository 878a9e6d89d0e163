"""Stage accounting: every DLInfMA stage is run and accounted by one
``RunContext.stage`` block, in ``build_artifacts``, ``fit`` and ``update``."""

from collections import Counter

import pytest

from repro.core import DLInfMA, DLInfMAConfig, LocMatcherConfig, build_artifacts
from repro.core.locmatcher import LocMatcherSelector
from repro.core.run import RunContext
from repro.obs import get_registry

GENERATION = [
    "stay_point_extraction",
    "pool_construction",
    "profile_build",
    "feature_extraction",
]
ALL_STAGES = GENERATION + ["training"]


def _observations(stages) -> Counter:
    hist = get_registry().histogram("engine_stage_seconds")
    return Counter({name: hist.count(stage=name) for name in stages})


def _run_and_account(action, stages=ALL_STAGES + ["unit_a", "unit_b"]):
    """Run ``action``; return its result and the observations it added."""
    before = _observations(stages)
    result = action()
    added = _observations(stages)
    added.subtract(before)
    return result, +added


def _fit(workload, artifacts=None, trips=None, selector="maxtc-ilc", **config):
    model = DLInfMA(DLInfMAConfig(selector=selector, **config))
    return model.fit(
        trips if trips is not None else workload.trips,
        workload.addresses,
        workload.ground_truth,
        workload.train_ids,
        workload.val_ids,
        projection=workload.projection,
        artifacts=artifacts,
    )


def _split(workload):
    trips = sorted(workload.trips, key=lambda t: t.t_start)
    k = len(trips) * 3 // 4
    return trips[:k], trips[k:]


def _assert_accounted(ctx: RunContext, expected_names, added: Counter, ran):
    names = [r.name for r in ctx.records]
    assert names == expected_names
    assert all(r.seconds >= 0 for r in ctx.records)
    # One histogram observation per stage this call ran, none for others.
    assert added == Counter(ran)
    assert list(ctx.timings) == [f"{name}_s" for name in expected_names]


class TestRunContext:
    def test_stage_records_and_observes_once(self):
        ctx = RunContext("unit")

        def run():
            with ctx.stage("unit_a"):
                pass
            with ctx.stage("unit_b"):
                ctx.count("unit_b", "items", 3)

        _, added = _run_and_account(run)
        _assert_accounted(ctx, ["unit_a", "unit_b"], added, ["unit_a", "unit_b"])
        assert ctx.counters == {"unit_b.items": 3}

    def test_timings_sum_repeated_stages(self):
        ctx = RunContext()
        for _ in range(2):
            with ctx.stage("unit_a"):
                pass
        assert [r.name for r in ctx.records] == ["unit_a", "unit_a"]
        assert ctx.timings == {"unit_a_s": sum(r.seconds for r in ctx.records)}

    def test_timings_follow_execution_order(self):
        ctx = RunContext()
        for name in ("unit_b", "unit_a", "unit_b"):
            with ctx.stage(name):
                pass
        assert list(ctx.timings) == ["unit_b_s", "unit_a_s"]

    def test_failed_stage_is_not_recorded(self):
        ctx = RunContext()

        def run():
            with pytest.raises(ValueError):
                with ctx.stage("unit_a"):
                    raise ValueError("boom")

        _, added = _run_and_account(run)
        assert ctx.records == [] and not added


class TestPipelineStageAccounting:
    def test_build_artifacts(self, tiny_workload):
        artifacts, added = _run_and_account(lambda: build_artifacts(
            tiny_workload.trips, tiny_workload.addresses, tiny_workload.projection
        ))
        _assert_accounted(artifacts.context, GENERATION, added, GENERATION)
        assert artifacts.context.counters["pool_construction.candidates"] == len(
            artifacts.pool
        )

    def test_fit_with_own_artifacts(self, tiny_workload):
        model, added = _run_and_account(lambda: _fit(tiny_workload))
        _assert_accounted(model.context, ALL_STAGES, added, ALL_STAGES)
        assert model.timings == model.context.timings

    def test_fit_with_shared_artifacts(self, tiny_workload, tiny_artifacts):
        model, added = _run_and_account(
            lambda: _fit(tiny_workload, artifacts=tiny_artifacts)
        )
        # The shared artifacts' records come first; only training ran here.
        _assert_accounted(model.context, ALL_STAGES, added, ["training"])
        assert model.context.records[:4] == tiny_artifacts.context.records

    def test_update_with_labels(self, tiny_workload):
        base, new = _split(tiny_workload)
        model = _fit(tiny_workload, trips=base)
        _, added = _run_and_account(lambda: model.update(
            new, tiny_workload.ground_truth, tiny_workload.train_ids,
            tiny_workload.val_ids,
        ))
        _assert_accounted(model.context, ALL_STAGES, added, ALL_STAGES)
        assert model.counters["stay_point_extraction.trips"] == len(new)

    def test_update_without_labels(self, tiny_workload):
        base, new = _split(tiny_workload)
        model = _fit(tiny_workload, trips=base)
        selector = model.selector
        _, added = _run_and_account(lambda: model.update(new))
        _assert_accounted(model.context, GENERATION, added, GENERATION)
        assert model.selector is selector


class TestWarmStart:
    def test_update_propagates_warm_start_errors(self, tiny_workload, monkeypatch):
        original = LocMatcherSelector.fit

        def fit(self, train, val=None, warm_start=False):
            if warm_start:
                raise TypeError("raised inside a warm start")
            return original(self, train, val)

        monkeypatch.setattr(LocMatcherSelector, "fit", fit)
        base, new = _split(tiny_workload)
        model = _fit(
            tiny_workload, trips=base, selector="locmatcher",
            locmatcher=LocMatcherConfig(max_epochs=2),
        )
        with pytest.raises(TypeError, match="inside a warm start"):
            model.update(
                new, tiny_workload.ground_truth, tiny_workload.train_ids,
                tiny_workload.val_ids,
            )
