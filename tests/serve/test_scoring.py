"""Live model scoring in the serving path (ModelScoringTier + wiring)."""

import numpy as np
import pytest

from repro.apps import DeliveryLocationService, QuerySource, UnknownAddressError
from repro.core import DLInfMAConfig
from repro.geo import Point
from repro.serve import ModelScoringTier, QueryRouter, ServerConfig, TTLLRUCache
from repro.serve.shard import ShardedLocationStore
from tests.core.helpers import make_address, point_at


class _StubExample:
    def __init__(self, candidate_ids):
        self.candidate_ids = candidate_ids


class _StubSelector:
    """Batch-capable selector that records how it was called."""

    def __init__(self):
        self.batch_calls = []

    def predict_index_batch(self, examples):
        self.batch_calls.append(len(examples))
        return [0] * len(examples)


class _StubExtractor:
    def candidate_point(self, candidate_id):
        return Point(float(candidate_id), 0.0)


class _StubPipeline:
    def __init__(self, examples):
        self.examples = examples
        self.selector = _StubSelector()
        self.extractor = _StubExtractor()


@pytest.fixture()
def stub_world():
    addresses = {
        f"a{i}": make_address(f"a{i}", f"b{i % 2}", (float(i), 0.0))
        for i in range(6)
    }
    locations = {f"a{i}": point_at(float(i) + 0.5, 0.0) for i in range(6)}
    store = ShardedLocationStore(locations, addresses, n_shards=2)
    examples = {"a0": _StubExample([7]), "a1": _StubExample([9])}
    return _StubPipeline(examples), store


class TestModelScoringTier:
    def test_scorable_ids_answered_by_model(self, stub_world):
        pipeline, store = stub_world
        tier = ModelScoringTier(pipeline, store)
        out = tier.resolve_batch(["a0", "a1"])
        assert out["a0"].source == QuerySource.MODEL
        assert out["a0"].location == Point(7.0, 0.0)
        assert out["a1"].location == Point(9.0, 0.0)
        # One batched forward for the whole burst, not one per key.
        assert pipeline.selector.batch_calls == [2]

    def test_mixed_batch_falls_back_to_store(self, stub_world):
        pipeline, store = stub_world
        tier = ModelScoringTier(pipeline, store)
        out = tier.resolve_batch(["a0", "a3", "missing"])
        assert out["a0"].source == QuerySource.MODEL
        assert out["a3"].source == QuerySource.ADDRESS
        assert isinstance(out["missing"], KeyError)

    def test_query_id_scores_one_id_and_raises_on_unknown(self, stub_world):
        pipeline, store = stub_world
        tier = ModelScoringTier(pipeline, store)
        assert tier.query_id("a1").location == Point(9.0, 0.0)
        assert tier.query_id("a3").source == QuerySource.ADDRESS
        with pytest.raises(UnknownAddressError):
            tier.query_id("missing")
        assert pipeline.selector.batch_calls == [1]

    def test_router_over_tier_scores_cold_misses_only(self, stub_world):
        pipeline, store = stub_world
        router = QueryRouter(ModelScoringTier(pipeline, store),
                             cache=TTLLRUCache(8, 30.0))
        routed = router.resolve("a0")
        assert routed.result.source == QuerySource.MODEL
        assert routed.cache_state == "miss"
        assert pipeline.selector.batch_calls == [1]
        # A cache hit must not re-invoke the model.
        again = router.resolve("a0")
        assert again.cache_state == "hit"
        assert again.result == routed.result
        assert pipeline.selector.batch_calls == [1]


class TestLiveScoringServer:
    @pytest.fixture(scope="class")
    def service(self, tiny_workload):
        svc = DeliveryLocationService(
            tiny_workload.addresses,
            tiny_workload.projection,
            config=DLInfMAConfig(selector="maxtc-ilc"),  # fast, no NN training
        )
        svc.refresh(
            tiny_workload.trips,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            tiny_workload.val_ids,
        )
        return svc

    def test_requires_fitted_pipeline(self, tiny_workload):
        svc = DeliveryLocationService(
            tiny_workload.addresses, tiny_workload.projection
        )
        with pytest.raises(RuntimeError, match="fitted"):
            svc.server(live_scoring=True)

    def test_model_answers_match_refresh_table(self, service, tiny_workload):
        example_backed = [
            a for a in tiny_workload.test_ids if a in service.pipeline.examples
        ]
        assert example_backed, "tiny workload should produce example-backed ids"
        config = ServerConfig(cache_capacity=0)  # force every query cold
        with service.server(config, live_scoring=True) as server:
            for address_id in example_backed[:4]:
                response = server.query(address_id)
                assert response.ok
                assert response.result.source == QuerySource.MODEL
                # Live scoring recomputes the same argmax the refresh stored.
                table = service.query_id(address_id)
                assert np.isclose(
                    response.result.location.lng, table.location.lng
                )
                assert np.isclose(
                    response.result.location.lat, table.location.lat
                )
