"""run_stream_bench builds its serving backend from its config."""

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.stream.bench import StreamBenchConfig, run_stream_bench


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def test_process_backend_promotes_into_the_worker_pool(tmp_path):
    snapshot_dir = tmp_path / "snap"
    payload = run_stream_bench(StreamBenchConfig(
        backend="process", workers=1, duration_s=1.0, serve_rate_rps=50.0,
        poison=False, parity_check=False, snapshot_dir=str(snapshot_dir),
    ))
    promotions = payload["promotions"]
    assert promotions["n_promoted"] >= 1, promotions
    # Every promotion was published for the workers, newest version last.
    versions = sorted(
        int(p.stem.split("-")[1]) for p in snapshot_dir.glob("snapshot-*.rsnap")
    )
    assert versions and versions[-1] == promotions["final_version"] > 1
    # The load was answered by the worker pool, not an in-process server.
    assert (snapshot_dir / "obs" / "metrics-worker-0.shm").exists()
    serve = payload["serve"]
    assert serve["n_ok"] > 0 and serve["n_errors"] == 0, serve


@pytest.mark.parametrize("config, message", [
    (StreamBenchConfig(backend="process"), "snapshot_dir"),
    (StreamBenchConfig(backend="grpc"), "unknown backend"),
])
def test_backend_config_is_checked_before_the_run(config, message):
    with pytest.raises(ValueError, match=message):
        run_stream_bench(config)
