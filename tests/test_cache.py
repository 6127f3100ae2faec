from __future__ import annotations

import numpy as np
import pytest

from tradesim.cache import (
    L1,
    L2,
    L3,
    CacheConfig,
    HashRing,
    TieredCache,
    stable_hash64,
)
from tradesim.errors import ConfigError

from cachetrace import run_read_trace, zipf_trading_trace


def small_cache(**overrides) -> TieredCache:
    cfg = dict(l1_capacity=4, l2_capacity=16)
    cfg.update(overrides)
    return TieredCache(CacheConfig(**cfg))


class TestTtlSemantics:
    def test_hit_l1_within_ttl(self):
        c = small_cache()
        c.put(b"k", b"v", now=0.0)
        value, version, tier = c.get(b"k", now=5.0)
        assert (value, version, tier) == (b"v", 1, L1)

    def test_l1_expired_falls_to_l2(self):
        c = small_cache()
        c.put(b"k", b"v", now=0.0)
        value, version, tier = c.get(b"k", now=10.1)
        assert (value, version, tier) == (b"v", 1, L2)

    def test_l2_expired_falls_to_l3(self):
        c = small_cache()
        c.put(b"k", b"v", now=0.0)
        value, version, tier = c.get(b"k", now=60.5)
        assert (value, version, tier) == (b"v", 1, L3)

    def test_unknown_key_misses_everywhere(self):
        c = small_cache()
        assert c.get(b"nope", now=0.0) is None
        assert c.stats.l1.misses == c.stats.l2.misses == c.stats.l3.misses == 1

    def test_promotion_resets_ttl_clock(self):
        c = small_cache()
        c.put(b"k", b"v", now=0.0)
        assert c.get(b"k", now=12.0)[2] == L2  # L1 expired, promotes back
        assert c.get(b"k", now=20.0)[2] == L1  # fresh L1 clock from t=12

    def test_no_stale_reads(self):
        # age at the serving tier never exceeds that tier's TTL; only
        # promotion (re-install) resets a tier's clock, not its own hits
        c = small_cache()
        c.put(b"k", b"v", now=0.0)
        for now, want in ((9.9, L1), (10.1, L2), (60.05, L3), (65.0, L1)):
            got = c.get(b"k", now=now)
            assert got is not None and got[2] == want


class TestMvcc:
    def test_first_put_is_version_one(self):
        c = small_cache()
        assert c.put(b"k", b"v1", 0.0) == 1

    def test_snapshot_read_sees_old_version(self):
        c = small_cache()
        c.put(b"k", b"v1", 0.0)
        assert c.put(b"k", b"v2", 1.0) == 2
        assert c.get(b"k", 2.0, snapshot_version=1) == (b"v1", 1, L3)
        assert c.get(b"k", 2.0)[0] == b"v2"

    def test_snapshot_repeatable_across_puts(self):
        c = small_cache()
        c.put(b"k", b"v1", 0.0)
        first = c.get(b"k", 0.5, snapshot_version=1)
        for i in range(2, 6):
            c.put(b"k", b"v%d" % i, float(i))
        second = c.get(b"k", 9.0, snapshot_version=1)
        assert first[:2] == second[:2] == (b"v1", 1)

    def test_retention_depth_drops_oldest(self):
        c = small_cache(mvcc_retention=2)
        for i in range(1, 5):
            c.put(b"k", b"v%d" % i, float(i))
        assert c.get(b"k", 9.0, snapshot_version=1) is None
        assert c.get(b"k", 9.0, snapshot_version=3)[:2] == (b"v3", 3)

    def test_l3_is_authoritative(self):
        c = small_cache(l1_capacity=1, l2_capacity=1)
        for i in range(50):
            c.put(b"k%d" % i, b"x%d" % i, float(i))
        for i in range(50):
            got = c.get(b"k%d" % i, now=1e9)  # all TTLs long expired -> L3
            assert got is not None and got[0] == b"x%d" % i


class TestLru:
    def test_canonical_lru_eviction(self):
        c = small_cache(l1_capacity=2)
        c.put(b"a", b"1", 0.0)
        c.put(b"b", b"2", 0.1)
        c.get(b"a", 0.2)
        c.put(b"c", b"3", 0.3)
        assert list(c._l1._entries) == [b"a", b"c"]

    def test_capacity_never_exceeded(self):
        c = small_cache(l1_capacity=3, l2_capacity=5)
        for i in range(40):
            c.put(b"k%d" % i, b"v", float(i) * 0.01)
            assert len(c._l1._entries) <= 3 and len(c._l2._entries) <= 5

    def test_hot_key_survives_insert_pressure(self):
        c = small_cache(l1_capacity=4)
        c.put(b"hot", b"v", 0.0)
        for i in range(100):
            now = 0.01 * (i + 1)
            c.get(b"hot", now)
            c.put(b"filler%d" % i, b"v", now)
            assert b"hot" in c._l1._entries


class ReferenceModel:
    """Flat map + timestamps; mirrors the tiered contract for equivalence tests."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.l1: dict[bytes, tuple[int, float, float]] = {}  # version, inserted, last_access
        self.l2: dict[bytes, tuple[int, float, float]] = {}
        self.l3: dict[bytes, list[tuple[int, bytes, float]]] = {}

    def _alive(self, tier: dict, key: bytes, ttl: float, now: float) -> bool:
        if key not in tier:
            return False
        if now - tier[key][1] > ttl:
            del tier[key]
            return False
        return True

    def _install(self, tier: dict, cap: int, key: bytes, version: int, now: float) -> None:
        tier.pop(key, None)
        while len(tier) >= cap:
            victim = min(tier.items(), key=lambda kv: kv[1][2])[0]
            del tier[victim]
        tier[key] = (version, now, now)

    def put(self, key: bytes, value: bytes, now: float) -> int:
        versions = self.l3.setdefault(key, [])
        version = versions[-1][0] + 1 if versions else 1
        versions.append((version, value, now))
        del versions[: max(0, len(versions) - self.cfg.mvcc_retention)]
        self._install(self.l2, self.cfg.l2_capacity, key, version, now)
        self._install(self.l1, self.cfg.l1_capacity, key, version, now)
        return version

    def get(self, key: bytes, now: float) -> tuple[bytes, int, str] | None:
        for tier, name in ((self.l1, L1), (self.l2, L2)):
            ttl = self.cfg.l1_ttl if name == L1 else self.cfg.l2_ttl
            if self._alive(tier, key, ttl, now):
                version = tier[key][0]
                value = dict((v, val) for v, val, _ in self.l3[key]).get(version)
                tier[key] = (version, tier[key][1], now)
                if name == L2:
                    self._install(self.l1, self.cfg.l1_capacity, key, version, now)
                return value, version, name
        if key in self.l3 and self.l3[key]:
            version, value, _ = self.l3[key][-1]
            self._install(self.l2, self.cfg.l2_capacity, key, version, now)
            self._install(self.l1, self.cfg.l1_capacity, key, version, now)
            return value, version, L3
        return None


class TestReferenceEquivalence:
    def test_randomized_ops_match_reference(self):
        cfg = CacheConfig(l1_capacity=6, l2_capacity=20)
        real, ref = TieredCache(cfg), ReferenceModel(cfg)
        rng = np.random.default_rng(42)
        now = 0.0
        keyspace = [b"key%d" % i for i in range(40)]
        for _ in range(10_000):
            now += float(rng.exponential(0.8))
            key = keyspace[int(rng.integers(len(keyspace)))]
            if rng.random() < 0.4:
                value = b"v%d" % int(rng.integers(1000))
                assert real.put(key, value, now) == ref.put(key, value, now)
            else:
                assert real.get(key, now) == ref.get(key, now)


class TestConsistentHashing:
    def test_single_shard_takes_everything(self):
        ring = HashRing(shards=1, virtual_nodes=16)
        assert all(ring.assign(b"k%d" % i) == 0 for i in range(100))

    def test_empty_ring_is_config_error(self):
        ring = HashRing(shards=1, virtual_nodes=4)
        ring.remove_shard(0)
        with pytest.raises(ConfigError):
            ring.assign(b"k")

    def test_adding_shard_relocates_small_fraction(self):
        n = 4
        ring = HashRing(shards=n, virtual_nodes=128)
        keys = [b"key:%d" % i for i in range(100_000)]
        before = [ring.assign(k) for k in keys]
        ring.add_shard(n)
        after = [ring.assign(k) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        assert moved / len(keys) <= 1.5 / (n + 1)
        # every moved key landed on the new shard
        assert all(a == n for b, a in zip(before, after) if b != a)

    def test_removing_shard_only_moves_its_keys(self):
        ring = HashRing(shards=4, virtual_nodes=64)
        keys = [b"key:%d" % i for i in range(20_000)]
        before = [ring.assign(k) for k in keys]
        ring.remove_shard(2)
        after = [ring.assign(k) for k in keys]
        for b, a in zip(before, after):
            if b != 2:
                assert a == b

    def test_hash_is_stable(self):
        assert stable_hash64(b"abc") == stable_hash64(b"abc")
        assert stable_hash64(b"abc") != stable_hash64(b"abd")


class TestStats:
    def test_no_lookups_reports_zero_with_flag(self):
        c = small_cache()
        assert c.stats.memory_hit_rate == 0.0

    def test_all_l1_hits_rate_one(self):
        c = small_cache()
        c.put(b"k", b"v", 0.0)
        for _ in range(10):
            c.get(b"k", 1.0)
        assert c.stats.memory_hit_rate == 1.0

    def test_hits_plus_misses_equals_lookups(self):
        c = small_cache()
        rng = np.random.default_rng(1)
        for i in range(500):
            key = b"k%d" % int(rng.integers(30))
            if rng.random() < 0.3:
                c.put(key, b"v", float(i))
            else:
                c.get(key, float(i))
        # each get looks in L1, then in L2 on an L1 miss, then in L3 on an L2 miss
        s = c.stats
        assert s.l1.hits + s.l1.misses == s.total_gets
        assert s.l2.hits + s.l2.misses == s.l1.misses
        assert s.l3.hits + s.l3.misses == s.l2.misses

    def test_zipf_trading_trace_hits_memory_80_percent(self):
        c = TieredCache(CacheConfig(l1_capacity=1000, l2_capacity=10_000))
        keys = zipf_trading_trace(n_keys=100_000, length=250_000, warmup=50_000, seed=7)
        run_read_trace(c, keys, warmup=50_000)
        assert c.stats.memory_hit_rate >= 0.80
