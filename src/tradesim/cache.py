"""Three-level cache: in-process LRU (L1), a larger LRU tier (L2) and an
authoritative in-memory map (L3) with MVCC versioned reads.

L2 is one LRU tier, not sharded. `HashRing`, a consistent-hash ring with
virtual nodes, stands alone: no tier routes keys through it, and acceptance
criterion c08 bounds how many keys it relocates when a shard joins. Time is
caller-driven, in seconds; expiry is lazy (checked on access, or when an
expired entry is the LRU victim). Single-writer / multi-reader: the simulator
drives it single-threaded.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

L1 = "L1"
L2 = "L2"
L3 = "L3"


def stable_hash64(data: bytes) -> int:
    """64-bit hash, stable across runs and platforms."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@dataclass
class CacheEntry:
    value: bytes
    version: int
    inserted_at: float


@dataclass(frozen=True)
class CacheConfig:
    l1_capacity: int = 1024
    l1_ttl: float = 10.0
    l2_capacity: int = 16384
    l2_ttl: float = 60.0
    mvcc_retention: int = 8  # versions kept per key in L3

    def __post_init__(self) -> None:
        if self.l1_capacity <= 0 or self.l2_capacity <= 0:
            raise ConfigError("cache capacities must be > 0")
        if self.l1_ttl <= 0 or self.l2_ttl <= 0:
            raise ConfigError("cache TTLs must be > 0")
        if self.mvcc_retention < 1:
            raise ConfigError("mvcc_retention must be >= 1")


@dataclass
class TierStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expired: int = 0


@dataclass
class CacheStats:
    l1: TierStats = field(default_factory=TierStats)
    l2: TierStats = field(default_factory=TierStats)
    l3: TierStats = field(default_factory=TierStats)
    total_gets: int = 0
    memory_hits: int = 0  # L1 + L2

    @property
    def memory_hit_rate(self) -> float:
        return self.memory_hits / self.total_gets if self.total_gets else 0.0


class HashRing:
    """Consistent-hash ring with virtual nodes; shard changes relocate only
    keys whose ring segment moved."""

    def __init__(self, shards: int, virtual_nodes: int):
        if virtual_nodes < 1:
            raise ConfigError("virtual_nodes must be >= 1")
        self._virtual = virtual_nodes
        self._points: list[tuple[int, int]] = []  # (hash, shard) sorted by hash
        self._shards: set[int] = set()
        for shard in range(shards):
            self.add_shard(shard)

    @property
    def shards(self) -> set[int]:
        return set(self._shards)

    def add_shard(self, shard: int) -> None:
        if shard in self._shards:
            raise ConfigError(f"shard {shard} already on ring")
        self._shards.add(shard)
        for v in range(self._virtual):
            h = stable_hash64(f"shard:{shard}:vnode:{v}".encode())
            self._points.append((h, shard))
        self._points.sort()

    def remove_shard(self, shard: int) -> None:
        if shard not in self._shards:
            raise ConfigError(f"shard {shard} not on ring")
        self._shards.discard(shard)
        self._points = [(h, s) for h, s in self._points if s != shard]

    def assign(self, key: bytes) -> int:
        if not self._points:
            raise ConfigError("cannot assign on an empty ring")
        h = stable_hash64(key)
        idx = bisect_right(self._points, (h, 1 << 64))
        if idx == len(self._points):
            idx = 0  # wrap around
        return self._points[idx][1]


class _LruTier:
    """One bounded LRU tier with per-entry TTL; holds the latest version only.
    The `OrderedDict` order is the recency order, least recent first."""

    def __init__(self, capacity: int, ttl: float, stats: TierStats):
        self.capacity = capacity
        self.ttl = ttl
        self.stats = stats
        self._entries: OrderedDict[bytes, CacheEntry] = OrderedDict()

    def lookup(self, key: bytes, now: float, max_version: int | None = None) -> CacheEntry | None:
        """TTL-aware lookup; refreshes recency on hit, drops expired entries.

        An entry newer than `max_version` is unusable for a snapshot read and
        counts as a miss at this tier.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if now - entry.inserted_at > self.ttl:
            del self._entries[key]
            self.stats.expired += 1
            self.stats.misses += 1
            return None
        if max_version is not None and entry.version > max_version:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def install(self, key: bytes, value: bytes, version: int, now: float) -> None:
        if key in self._entries:
            del self._entries[key]
        while len(self._entries) >= self.capacity:
            # O(1) capacity eviction: pop the LRU victim, classifying it as
            # expired when its TTL had lapsed
            k, victim = self._entries.popitem(last=False)
            if now - victim.inserted_at > self.ttl:
                self.stats.expired += 1
            else:
                self.stats.evictions += 1
        self._entries[key] = CacheEntry(value, version, now)


class TieredCache:
    """L1 -> L2 -> L3 lookup with upward promotion and MVCC snapshot reads."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        self._l1 = _LruTier(self.config.l1_capacity, self.config.l1_ttl, self.stats.l1)
        self._l2 = _LruTier(self.config.l2_capacity, self.config.l2_ttl, self.stats.l2)
        # L3: key -> list of (version, value), oldest first; never expires
        self._l3: dict[bytes, list[tuple[int, bytes]]] = {}

    def get(
        self, key: bytes, now: float, snapshot_version: int | None = None
    ) -> tuple[bytes, int, str] | None:
        """Return (value, version, tier) or None on a full miss.

        With `snapshot_version`, returns the newest version <= it; memory tiers
        only serve the request when their (latest) version qualifies.
        """
        self.stats.total_gets += 1

        entry = self._l1.lookup(key, now, snapshot_version)
        if entry is not None:
            self.stats.memory_hits += 1
            return entry.value, entry.version, L1

        entry = self._l2.lookup(key, now, snapshot_version)
        if entry is not None:
            self.stats.memory_hits += 1
            self._l1.install(key, entry.value, entry.version, now)
            return entry.value, entry.version, L2

        versions = self._l3.get(key)
        if versions:
            if snapshot_version is None:
                version, value = versions[-1]
            else:
                candidates = [v for v in versions if v[0] <= snapshot_version]
                if not candidates:
                    self.stats.l3.misses += 1
                    return None
                version, value = candidates[-1]
            self.stats.l3.hits += 1
            if snapshot_version is None:  # promote only latest-version reads
                self._l2.install(key, value, version, now)
                self._l1.install(key, value, version, now)
            return value, version, L3
        self.stats.l3.misses += 1
        return None

    def put(self, key: bytes, value: bytes, now: float) -> int:
        """Write through to L3 (authoritative) and install in L2/L1."""
        versions = self._l3.setdefault(key, [])
        version = versions[-1][0] + 1 if versions else 1
        versions.append((version, value))
        if len(versions) > self.config.mvcc_retention:
            del versions[: len(versions) - self.config.mvcc_retention]
        self._l2.install(key, value, version, now)
        self._l1.install(key, value, version, now)
        return version

    def reset_stats(self) -> None:
        self.stats = CacheStats()
        self._l1.stats = self.stats.l1
        self._l2.stats = self.stats.l2


class Pcg64Draws:
    """`Generator.random()` and `Generator.integers(high)` of a PCG64 generator,
    called one value at a time, answered from raw words read in bulk.

    numpy reads a double from the top 53 bits of one 64-bit word. It reads an
    integer below `high` <= 2**32 from 32-bit halves by Lemire's
    multiply-and-reject method: the low half of a fresh word, with the high
    half kept in the state (`has_uint32`, `uinteger`) for the next 32-bit read,
    across calls. `integers(1)` reads nothing. `close` leaves the generator
    exactly where the same scalar calls would have left it.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self._bits = rng.bit_generator
        if not isinstance(self._bits, np.random.PCG64):
            raise TypeError(f"raw words are read as PCG64's, got {type(self._bits).__name__}")
        self._start = self._bits.state
        self._size = max(size, 1)
        self._words = self._bits.random_raw(self._size).tolist()
        self._used = 0
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]

    def _next_word(self) -> int:
        if self._used == len(self._words):  # past the buffer: only Lemire's rejections get here
            self._words += self._bits.random_raw(self._size).tolist()
        self._used += 1
        return self._words[self._used - 1]

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self._next_word()
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        return (self._next_word() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, high: int) -> int:
        if high == 1:
            return 0
        m = self._uint32() * high
        if m & 0xFFFFFFFF < high:
            threshold = (0x100000000 - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * high
        return m >> 32

    def close(self) -> None:
        """Move the generator past the words used, with the half they left."""
        # back to the start with the final half; reading raw words leaves the half alone
        self._bits.state = {**self._start, "has_uint32": self._has_half, "uinteger": self._half}
        self._bits.random_raw(self._used)


class ZipfAccessDriver:
    """Feeds the cache a Zipf-popular, session-local key stream during simulation
    so the latency model sees a live memory hit rate.

    Accesses per tick are capped; misses fill the hierarchy (cache-aside). The
    key stream is that of scalar `random()` and `integers()` calls on a PCG64
    generator; `Pcg64Draws` reads their words in bulk, which relies on PCG64.
    """

    def __init__(
        self,
        cache: TieredCache,
        n_keys: int = 20_000,
        seed: int = 0,
        per_tick_cap: int = 50,
        reaccess_p: float = 0.5,
    ):
        if n_keys < 1:
            raise ConfigError(f"the access driver needs at least one key, got {n_keys}")
        self.cache = cache
        self.per_tick_cap = per_tick_cap
        self._rng = np.random.Generator(np.random.PCG64([seed, 0xCAC4E]))
        ranks = np.arange(1, n_keys + 1, dtype=float)
        probs = (1.0 / ranks) / np.sum(1.0 / ranks)
        # Generator.choice(n_keys, p=probs) builds this CDF on every call and
        # then draws exactly as on_tick does; building it once keeps the stream.
        self._cdf = probs.cumsum()
        self._cdf /= self._cdf[-1]
        self._keys = [b"k%d" % i for i in range(n_keys)]
        self._recent: list[int] = []
        self._reaccess_p = reaccess_p

    def on_tick(self, tick: float, request_count: int) -> float:
        """Run up to `per_tick_cap` sampled accesses; returns the running
        combined memory hit rate."""
        n = min(int(request_count), self.per_tick_cap)
        if n > 0:
            fresh = self._cdf.searchsorted(self._rng.random(n), side="right").tolist()
            # n coins, and n picks of 32 bits each, two to a word (rejections aside)
            draws = Pcg64Draws(self._rng, n + (n + 1) // 2)
            recent, keys, cache = self._recent, self._keys, self.cache
            for key_id in fresh:
                if recent and draws.random() < self._reaccess_p:
                    key_id = recent[draws.integers(len(recent))]
                key = keys[key_id]
                if cache.get(key, tick) is None:
                    cache.put(key, b"v", tick)
                recent.append(key_id)
            draws.close()
            if len(recent) > 64:
                del recent[: len(recent) - 64]
        return self.cache.stats.memory_hit_rate
