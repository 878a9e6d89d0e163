"""Engine unit tests: stage contract, plan execution, fingerprints."""


import numpy as np
import pytest

from repro.engine import (
    RunContext,
    Stage,
    StagePlan,
    available_stages,
    fingerprint,
    get_stage,
    register_stage,
)


def make_stage(name="double", fn=None, **kwargs):
    def default_fn(ctx, xs):
        ctx.count(name, "items", len(xs))
        return {"ys": [x * 2 for x in xs]}

    return Stage(
        name=name, inputs=("xs",), outputs=("ys",), fn=fn or default_fn, **kwargs
    )


class TestStageContract:
    def test_run_produces_declared_outputs(self):
        ctx = RunContext()
        out = make_stage().run(ctx, {"xs": [1, 2, 3]})
        assert out == {"ys": [2, 4, 6]}

    def test_missing_input_raises_keyerror(self):
        with pytest.raises(KeyError, match="missing inputs"):
            make_stage().run(RunContext(), {})

    def test_non_dict_return_raises_typeerror(self):
        bad = make_stage(fn=lambda ctx, xs: [1, 2])
        with pytest.raises(TypeError, match="must return a dict"):
            bad.run(RunContext(), {"xs": []})

    def test_undeclared_output_raises_valueerror(self):
        bad = make_stage(fn=lambda ctx, xs: {"ys": [], "zs": []})
        with pytest.raises(ValueError, match="undeclared=\\['zs'\\]"):
            bad.run(RunContext(), {"xs": []})

    def test_absent_output_raises_valueerror(self):
        bad = make_stage(fn=lambda ctx, xs: {})
        with pytest.raises(ValueError, match="absent=\\['ys'\\]"):
            bad.run(RunContext(), {"xs": []})


class TestRegistry:
    def test_pipeline_stages_are_registered(self):
        # Importing repro.core registers the DLInfMA stages.
        import repro.core  # noqa: F401

        names = available_stages()
        for expected in (
            "stay_point_extraction",
            "pool_construction",
            "profile_build",
            "feature_extraction",
            "training",
        ):
            assert expected in names
            assert get_stage(expected).name == expected

    def test_duplicate_registration_rejected(self):
        stage_obj = make_stage(name="test_engine_dup")
        register_stage(stage_obj)
        with pytest.raises(ValueError, match="already registered"):
            register_stage(make_stage(name="test_engine_dup"))
        register_stage(stage_obj, replace=True)  # explicit replace is fine

    def test_unknown_stage_lookup(self):
        with pytest.raises(KeyError, match="unknown stage"):
            get_stage("no-such-stage")


class TestStagePlan:
    def test_plan_runs_stages_in_order_with_instrumentation(self):
        first = make_stage(name="plan_first")

        def second_fn(ctx, ys):
            return {"total": sum(ys)}

        second = Stage(name="plan_second", inputs=("ys",), outputs=("total",), fn=second_fn)
        ctx = RunContext()
        state = StagePlan([first, second]).run(ctx, {"xs": [1, 2, 3]})
        assert state["total"] == 12
        assert set(ctx.timings) == {"plan_first_s", "plan_second_s"}
        assert ctx.counters["plan_first.items"] == 3
        assert [r.name for r in ctx.records] == ["plan_first", "plan_second"]
        assert ctx.records[0].items_in == 3
        assert ctx.records[0].items_out == 3

    def test_timed_accumulates_over_repeated_runs(self):
        stage_obj = make_stage(name="plan_repeat")
        ctx = RunContext()
        plan = StagePlan([stage_obj])
        plan.run(ctx, {"xs": [1]})
        t1 = ctx.timings["plan_repeat_s"]
        plan.run(ctx, {"xs": [1]})
        assert ctx.timings["plan_repeat_s"] >= t1
        assert ctx.counters["plan_repeat.items"] == 2


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint({"x": [1, 2.5, "s"], "y": np.arange(4)})
        b = fingerprint({"y": np.arange(4), "x": [1, 2.5, "s"]})
        assert a == b  # dict ordering must not matter

    def test_sensitive_to_content(self):
        assert fingerprint([1, 2, 3]) != fingerprint([1, 2, 4])
        assert fingerprint(np.zeros(3)) != fingerprint(np.zeros(4))
        # type distinctions matter: 1 vs "1" vs 1.0 vs True
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(1) != fingerprint(1.0)

    def test_content_key_protocol(self):
        class Blob:
            def __init__(self, payload):
                self.payload = payload

            def content_key(self):
                return ("Blob", self.payload)

        assert fingerprint(Blob("a")) == fingerprint(Blob("a"))
        assert fingerprint(Blob("a")) != fingerprint(Blob("b"))

    def test_unfingerprintable_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())


class TestRunContext:
    def test_merge_timings_accumulates(self):
        ctx = RunContext()
        ctx.merge_timings({"a_s": 1.0})
        ctx.merge_timings({"a_s": 0.5, "b_s": 2.0})
        assert ctx.timings == {"a_s": 1.5, "b_s": 2.0}

    def test_timing_rows_strip_suffix(self):
        ctx = RunContext()
        ctx.merge_timings({"stay_point_extraction_s": 1.25})
        assert ctx.timing_rows() == [("stay_point_extraction", 1.25)]

    def test_timing_rows_follow_execution_order_not_dict_order(self):
        ctx = RunContext()
        # Timings inserted in one order...
        ctx.timings = {"late_s": 3.0, "early_s": 1.0}
        # ...but executed in another (records are authoritative).
        ctx.record("early", 1.0)
        ctx.record("late", 3.0)
        assert ctx.timing_rows() == [("early", 1.0), ("late", 3.0)]

    def test_timing_rows_dedupe_repeated_executions(self):
        ctx = RunContext()
        with ctx.timed("loop"):
            pass
        with ctx.timed("loop"):
            pass
        ctx.record("loop", 0.0)
        ctx.record("loop", 0.0)
        rows = ctx.timing_rows()
        assert [name for name, _ in rows] == ["loop"]
        assert rows[0][1] == ctx.timings["loop_s"]

    def test_merge_timings_with_records_keeps_producer_order(self):
        producer = RunContext(label="artifacts")
        producer.record("extract", 1.0)
        producer.record("pool", 2.0)
        producer.merge_timings({"extract_s": 1.0, "pool_s": 2.0})

        consumer = RunContext(label="fit")
        consumer.merge_timings(producer.timings, producer.records)
        consumer.record("training", 0.5)
        consumer.timings["training_s"] = 0.5
        assert [name for name, _ in consumer.timing_rows()] == [
            "extract", "pool", "training",
        ]

    def test_merge_timings_without_records_appends_after_recorded(self):
        ctx = RunContext()
        ctx.record("training", 0.5)
        ctx.timings["training_s"] = 0.5
        ctx.merge_timings({"extract_s": 1.0})
        # No records for the merged stage: it trails the executed ones.
        assert [name for name, _ in ctx.timing_rows()] == ["training", "extract"]

    def test_timed_yields_span_handle(self):
        ctx = RunContext()
        with ctx.timed("op") as sp:
            assert sp is None  # tracing disabled -> no span, still timed
        assert "op_s" in ctx.timings


class TestSharedArtifactOrdering:
    def test_fit_with_shared_artifacts_reports_generation_stages_first(
        self, tiny_workload, tiny_artifacts
    ):
        from repro.core import DLInfMA, DLInfMAConfig

        model = DLInfMA(DLInfMAConfig(selector="maxtc-ilc"))
        model.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            tiny_workload.val_ids,
            projection=tiny_workload.projection,
            artifacts=tiny_artifacts,
        )
        names = [name for name, _ in model.context.timing_rows()]
        assert names == [
            "stay_point_extraction",
            "pool_construction",
            "profile_build",
            "feature_extraction",
            "training",
        ]
