"""LRU + TTL cache: recency eviction, expiry, and counter accounting."""

import pathlib

import pytest

from repro.serve import TTLLRUCache

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


class TestLRU:
    def test_hit_and_miss_counters(self, clock):
        cache = TTLLRUCache(capacity=2, ttl_s=10.0, clock=clock)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self, clock):
        cache = TTLLRUCache(capacity=2, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_existing_updates_without_eviction(self, clock):
        cache = TTLLRUCache(capacity=2, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert cache.get("b") == 2
        assert cache.stats().evictions == 0

    def test_invalidate_and_clear(self, clock):
        cache = TTLLRUCache(capacity=4, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.clear() == 1
        assert len(cache) == 0


class TestTTL:
    def test_entry_expires_after_ttl(self, clock):
        cache = TTLLRUCache(capacity=4, ttl_s=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(4.999)
        assert cache.get("a") == 1
        clock.advance(0.002)
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.size == 0

    def test_put_refreshes_ttl(self, clock):
        cache = TTLLRUCache(capacity=4, ttl_s=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(4.0)
        cache.put("a", 2)
        clock.advance(4.0)
        assert cache.get("a") == 2

    def test_invalid_parameters(self, clock):
        with pytest.raises(ValueError):
            TTLLRUCache(capacity=0)
        with pytest.raises(ValueError):
            TTLLRUCache(ttl_s=0.0)


def test_only_the_router_builds_a_result_cache():
    """Both serving backends cache through :class:`QueryRouter`: no other
    module builds its own cache (and its own cache loop around it)."""
    allowed = {"serve/cache.py", "serve/router.py"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() in allowed:
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "TTLLRUCache(" in line:
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, offenders
