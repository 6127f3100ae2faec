from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tradesim.cache import (
    L1,
    L2,
    L3,
    CacheConfig,
    CacheStats,
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


class TestConfigChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("l1_ttl", math.nan),
            ("l2_ttl", math.nan),
            ("l1_capacity", 2.5),
            ("l2_capacity", 16.0),
            ("l1_capacity", True),
            ("l2_capacity", "16"),
            ("mvcc_retention", 1.5),
            ("mvcc_retention", True),
        ],
    )
    def test_bad_values_are_config_errors(self, field, value):
        with pytest.raises(ConfigError):
            CacheConfig(**{field: value})

    def test_nan_ttl_no_longer_serves_forever(self):
        with pytest.raises(ConfigError):
            TieredCache(CacheConfig(l1_ttl=math.nan))

    def test_numpy_integers_and_infinite_ttls_are_accepted(self):
        cfg = CacheConfig(l1_capacity=np.int64(2), l2_ttl=math.inf, mvcc_retention=np.int32(1))
        c = TieredCache(cfg)
        c.put(b"k", b"v", 0.0)
        assert c.get(b"k", 1e12) == (b"v", 1, L2)


class PerKeyCache:
    """Test-only copy of the per-key cache that `read_through` replaced: one
    chain of tier lookups per read, each tier counting into `stats` as it goes,
    and an entry object per install."""

    class Entry:
        def __init__(self, value, version, inserted_at):
            self.value, self.version, self.inserted_at = value, version, inserted_at

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.stats = CacheStats()
        self.tiers = [OrderedDict(), OrderedDict()]
        self.limits = [(cfg.l1_capacity, cfg.l1_ttl), (cfg.l2_capacity, cfg.l2_ttl)]
        self.l3: dict[bytes, list[tuple[int, bytes]]] = {}

    def _stats(self, i):
        return (self.stats.l1, self.stats.l2)[i]

    def _lookup(self, i, key, now, snapshot):
        entries, (_, ttl), stats = self.tiers[i], self.limits[i], self._stats(i)
        entry = entries.get(key)
        if entry is None:
            stats.misses += 1
            return None
        if now - entry.inserted_at > ttl:
            del entries[key]
            stats.expired += 1
            stats.misses += 1
            return None
        if snapshot is not None and entry.version > snapshot:
            stats.misses += 1
            return None
        entries.move_to_end(key)
        stats.hits += 1
        return entry

    def _install(self, i, key, value, version, now):
        entries, (capacity, ttl), stats = self.tiers[i], self.limits[i], self._stats(i)
        if key in entries:
            del entries[key]
        while len(entries) >= capacity:
            _, victim = entries.popitem(last=False)
            if now - victim.inserted_at > ttl:
                stats.expired += 1
            else:
                stats.evictions += 1
        entries[key] = self.Entry(value, version, now)

    def get(self, key, now, snapshot=None):
        self.stats.total_gets += 1
        entry = self._lookup(0, key, now, snapshot)
        if entry is not None:
            self.stats.memory_hits += 1
            return entry.value, entry.version, L1
        entry = self._lookup(1, key, now, snapshot)
        if entry is not None:
            self.stats.memory_hits += 1
            self._install(0, key, entry.value, entry.version, now)
            return entry.value, entry.version, L2
        versions = [v for v in self.l3.get(key, []) if snapshot is None or v[0] <= snapshot]
        if not versions:
            self.stats.l3.misses += 1
            return None
        version, value = versions[-1]
        self.stats.l3.hits += 1
        if snapshot is None:
            self._install(1, key, value, version, now)
            self._install(0, key, value, version, now)
        return value, version, L3

    def put(self, key, value, now):
        versions = self.l3.setdefault(key, [])
        version = versions[-1][0] + 1 if versions else 1
        versions.append((version, value))
        del versions[: max(0, len(versions) - self.cfg.mvcc_retention)]
        self._install(1, key, value, version, now)
        self._install(0, key, value, version, now)
        return version

    def contents(self):
        return [[(k, (e.value, e.version, e.inserted_at)) for k, e in t.items()] for t in self.tiers]


def contents(cache: TieredCache):
    """Each memory tier's (key, entry) pairs in LRU order, least recent first."""
    return [list(cache._l1._entries.items()), list(cache._l2._entries.items())]


small_configs = st.builds(
    CacheConfig,
    l1_capacity=st.integers(1, 4),
    l1_ttl=st.sampled_from([1.0, 2.5]),
    l2_capacity=st.integers(1, 6),
    l2_ttl=st.sampled_from([3.0, 6.0]),
    mvcc_retention=st.integers(1, 3),
)
# steps that stay within both TTLs, cross the L1 TTL only, or cross both
clock_steps = st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.5, 7.0])
key_ids = st.integers(0, 6)
walks = st.tuples(
    st.just("walk"),
    st.lists(key_ids, max_size=10),  # repeated keys are likely
    clock_steps,
    st.none() | st.sampled_from([b"v", b"w"]),  # the fill, or no fill
    st.none() | st.integers(0, 4),  # the snapshot version
)
puts = st.tuples(st.just("put"), key_ids, clock_steps, st.sampled_from([b"a", b"b"]))


class TestReadThrough:
    @given(small_configs, st.lists(walks | puts, max_size=30))
    def test_walk_equals_per_key_get_then_put(self, cfg, calls):
        walk, per_key, replaced = TieredCache(cfg), TieredCache(cfg), PerKeyCache(cfg)
        now = 0.0
        for call in calls:
            now += call[2]
            if call[0] == "put":
                key, value = b"k%d" % call[1], call[3]
                assert walk.put(key, value, now) == per_key.put(key, value, now)
                replaced.put(key, value, now)
            else:
                _, ids, _, fill, snapshot = call
                keys = [b"k%d" % i for i in ids]
                last = walk.read_through(keys, now, fill, snapshot)
                expected = replaced_last = None
                for key in keys:
                    expected = per_key.get(key, now, snapshot)
                    replaced_last = replaced.get(key, now, snapshot)
                    if expected is None and fill is not None:
                        per_key.put(key, fill, now)
                        replaced.put(key, fill, now)
                assert last == expected == replaced_last
            assert walk.stats == per_key.stats == replaced.stats
            assert contents(walk) == contents(per_key) == replaced.contents()
            assert walk._l3 == per_key._l3 == replaced.l3

    def test_counts_of_a_walk(self):
        c = small_cache(l1_capacity=1, l2_capacity=2)
        assert c.read_through([b"a", b"b", b"a", b"c", b"a"], 0.0, b"v") == (b"v", 1, L2)
        s = c.stats
        assert (s.total_gets, s.memory_hits) == (5, 2)
        assert astuple(s.l1) == (0, 5, 4, 0)  # hits, misses, evictions, expired
        assert astuple(s.l2) == (2, 3, 1, 0)
        assert astuple(s.l3) == (0, 3, 0, 0)

    def test_no_keys_reads_nothing(self):
        c = small_cache()
        assert c.read_through([], 0.0, b"v") is None
        assert c.stats == CacheStats()


class CacheMachine(RuleBasedStateMachine):
    """A `TieredCache` driven by puts, reads, snapshot reads, walks and a
    clock, checked against a dict of each key's retained versions."""

    @initialize(cfg=small_configs)
    def start(self, cfg):
        self.cfg = cfg
        self.cache = TieredCache(cfg)
        self.versions: dict[bytes, dict[int, bytes]] = {}  # key -> {version: value}
        self.now = 0.0

    def _latest(self, key):
        kept = self.versions.get(key)
        return max(kept) if kept else None

    def _write(self, key, value):
        kept = self.versions.setdefault(key, {})
        version = max(kept, default=0) + 1
        kept[version] = value
        for old in sorted(kept)[: -self.cfg.mvcc_retention]:
            del kept[old]
        return version

    def _expected(self, key, snapshot):
        kept = [v for v in self.versions.get(key, {}) if snapshot is None or v <= snapshot]
        return max(kept) if kept else None

    @rule(dt=clock_steps)
    def advance(self, dt):
        self.now += dt

    @rule(key=key_ids, value=st.sampled_from([b"a", b"b", b"c"]))
    def put(self, key, value):
        key = b"k%d" % key
        assert self.cache.put(key, value, self.now) == self._write(key, value)

    @rule(key=key_ids, snapshot=st.none() | st.integers(0, 5))
    def get(self, key, snapshot):
        key = b"k%d" % key
        tiers = ((self.cache._l1, L1), (self.cache._l2, L2))
        before = [tier._entries.get(key) for tier, _ in tiers]
        got = self.cache.get(key, self.now, snapshot)
        version = self._expected(key, snapshot)
        if version is None:
            assert got is None
            return
        value, got_version, tier = got
        if snapshot is not None:
            assert got_version <= snapshot
        assert (value, got_version) == (self.versions[key][version], version)
        # on time: the nearest tier whose entry is within its TTL serves the read
        alive = [
            name for (t, name), e in zip(tiers, before)
            if e is not None and self.now - e[2] <= t.ttl and (snapshot is None or e[1] <= snapshot)
        ]
        assert tier == (alive[0] if alive else L3)
        for (t, _), e in zip(tiers, before):
            if e is not None and self.now - e[2] > t.ttl:  # expired: dropped or refreshed
                assert t._entries.get(key, (None, None, self.now))[2] == self.now

    @rule(ids=st.lists(key_ids, max_size=6), fill=st.sampled_from([b"f", b"g"]),
          snapshot=st.none() | st.integers(0, 5))
    def read_through(self, ids, fill, snapshot):
        keys = [b"k%d" % i for i in ids]
        last = self.cache.read_through(keys, self.now, fill, snapshot)
        expected = None
        for key in keys:
            version = self._expected(key, snapshot)
            if version is None:
                self._write(key, fill)
                expected = None
            else:
                expected = (self.versions[key][version], version)
        assert (last if last is None else last[:2]) == expected

    @invariant()
    def tiers_within_capacity(self):
        assert len(self.cache._l1._entries) <= self.cfg.l1_capacity
        assert len(self.cache._l2._entries) <= self.cfg.l2_capacity

    @invariant()
    def memory_tiers_hold_the_latest_values(self):
        # promotion preserves values: a cached entry is its key's latest write
        for tier in (self.cache._l1, self.cache._l2):
            for key, (value, version, inserted_at) in tier._entries.items():
                assert version == self._latest(key)
                assert value == self.versions[key][version]
                assert inserted_at <= self.now

    @invariant()
    def l3_keeps_the_retained_versions(self):
        assert self.cache._l3 == {k: sorted(v.items()) for k, v in self.versions.items()}

    @invariant()
    def lookups_chain_through_the_tiers(self):
        s = self.cache.stats
        assert s.l1.hits + s.l1.misses == s.total_gets
        assert s.l2.hits + s.l2.misses == s.l1.misses
        assert s.l3.hits + s.l3.misses == s.l2.misses
        assert s.memory_hits == s.l1.hits + s.l2.hits


TestCacheMachine = CacheMachine.TestCase
