"""Gate refusals arm the flight recorder: one refusal, one black box."""

import pytest

from repro.obs.recorder import (
    configure_recorder,
    load_blackbox,
    reset_recorder,
)
from repro.stream import GateConfig

from tests.stream.test_scheduler import (
    legit_batch,
    make_scheduler,
    poison_batch,
)


@pytest.fixture(autouse=True)
def _fresh_recorder():
    reset_recorder()
    yield
    reset_recorder()


def _run_poisoned(gate=None):
    scheduler, metrics, versions = make_scheduler(
        [legit_batch("a"), legit_batch("b", 5_000.0), poison_batch()],
        gate=gate or GateConfig(warmup_promotions=2, psi_threshold=0.25),
    )
    records = [scheduler.tick() for _ in range(3)]
    return scheduler, records


class TestGateRefusalDump:
    def test_poisoned_tick_dumps_exactly_one_blackbox(self, tmp_path):
        configure_recorder(capacity=64, dump_dir=tmp_path)
        _, records = _run_poisoned()
        assert records[-1].outcome == "rejected_drift"
        dumps = sorted(tmp_path.glob("blackbox-*.json"))
        assert len(dumps) == 1
        assert "gate_refusal" in dumps[0].name

    def test_dump_references_the_rejected_version(self, tmp_path):
        configure_recorder(capacity=64, dump_dir=tmp_path)
        _, records = _run_poisoned()
        dump = load_blackbox(next(tmp_path.glob("blackbox-*.json")))
        context = dump["context"]
        assert context["served_version"] == 2  # two warmup promotions
        assert context["rejected_candidate_version"] == 3
        assert context["outcome"] == "rejected_drift"
        assert "PSI" in context["reason"]
        assert dump["registry"] is not None

    def test_promotions_do_not_dump(self, tmp_path):
        configure_recorder(capacity=64, dump_dir=tmp_path)
        scheduler, metrics, versions = make_scheduler(
            [legit_batch("a"), legit_batch("b", 5_000.0)]
        )
        scheduler.tick()
        scheduler.tick()
        assert not list(tmp_path.glob("blackbox-*.json"))
