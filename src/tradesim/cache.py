"""Three-level cache: in-process LRU (L1), a larger LRU tier (L2) and an
authoritative in-memory map (L3) with MVCC versioned reads.

L2 is one LRU tier, not sharded. `HashRing`, a consistent-hash ring with
virtual nodes, stands alone: no tier routes keys through it, and acceptance
criterion c08 bounds how many keys it relocates when a shard joins. Time is
caller-driven, in seconds; expiry is lazy (checked on access, or when an
expired entry is the LRU victim). Single-writer / multi-reader: the simulator
drives it single-threaded.

`TieredCache.read_through` reads a list of keys in one call, in order, and
writes a fill value after each full miss. `ZipfAccessDriver` draws each tick's
keys with one array call to its generator and makes one such walk per tick.
`get` is its one-key case without a fill, and `put` shares its write, so
each tier rule (expiry on access, the snapshot check, promotion, LRU eviction,
MVCC retention) is written once. Memory-tier entries are plain
`(value, version, inserted_at)` tuples, and a walk adds its counts to `stats`
once, at its end.
"""

from __future__ import annotations

import hashlib
import numbers
from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

L1 = "L1"
L2 = "L2"
L3 = "L3"
TIERS = (L1, L2, L3)

# the access driver: the chance that an access re-reads a recent key, and how
# many of the most recent keys it picks from
REACCESS_P = 0.5
RECENT_KEYS = 64


def stable_hash64(data: bytes) -> int:
    """64-bit hash, stable across runs and platforms."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class CacheConfig:
    l1_capacity: int = 1024
    l1_ttl: float = 10.0
    l2_capacity: int = 16384
    l2_ttl: float = 60.0
    mvcc_retention: int = 8  # versions kept per key in L3

    def __post_init__(self) -> None:
        for name in ("l1_capacity", "l2_capacity", "mvcc_retention"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.l1_capacity <= 0 or self.l2_capacity <= 0:
            raise ConfigError("cache capacities must be > 0")
        if not (self.l1_ttl > 0 and self.l2_ttl > 0):  # NaN fails the comparison
            raise ConfigError(f"cache TTLs must be > 0, got {self.l1_ttl} and {self.l2_ttl}")
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
    Entries are `(value, version, inserted_at)` tuples. The `OrderedDict` order
    is the recency order, least recent first."""

    def __init__(self, level: int, capacity: int, ttl: float):
        self.level = level  # 0 for L1, 1 for L2
        self.capacity = capacity
        self.ttl = ttl
        self._entries: OrderedDict[bytes, tuple[bytes, int, float]] = OrderedDict()

    def install(self, key: bytes, entry: tuple[bytes, int, float], now: float,
                dropped: tuple[list[int], ...]) -> None:
        """Make `entry` the most recent. A full tier first drops its LRU victim
        (O(1)), counted in `dropped[level]` ([expired, evicted]) as expired
        when its TTL had lapsed, else as evicted."""
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            _, victim = entries.popitem(last=False)
            if now - victim[2] > self.ttl:
                dropped[self.level][0] += 1
            else:
                dropped[self.level][1] += 1
        entries[key] = entry


class TieredCache:
    """L1 -> L2 -> L3 lookup with upward promotion and MVCC snapshot reads."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        self._l1 = _LruTier(0, self.config.l1_capacity, self.config.l1_ttl)
        self._l2 = _LruTier(1, self.config.l2_capacity, self.config.l2_ttl)
        self._looked = tuple((tier._entries, tier.ttl) for tier in (self._l1, self._l2))
        # Promotion: a read served at L1, L2 or L3 installs its entry in these
        # tiers, in this order. A write installs as a read from L3 does.
        self._above = ((), (self._l1,), (self._l2, self._l1))
        # L3: key -> list of (version, value), oldest first; never expires
        self._l3: dict[bytes, list[tuple[int, bytes]]] = {}

    def get(
        self, key: bytes, now: float, snapshot_version: int | None = None
    ) -> tuple[bytes, int, str] | None:
        """Return (value, version, tier) or None on a full miss.

        With `snapshot_version`, returns the newest version <= it; memory tiers
        only serve the request when their (latest) version qualifies.
        """
        return self.read_through((key,), now, None, snapshot_version)

    def put(self, key: bytes, value: bytes, now: float) -> int:
        """Write through to L3 (authoritative) and install in L2/L1."""
        dropped = ([0, 0], [0, 0])
        version = self._write(key, value, now, dropped)
        self._add([0, 0, 0, 0], dropped)
        return version

    def read_through(
        self,
        keys: Sequence[bytes],
        now: float,
        fill: bytes | None = None,
        snapshot_version: int | None = None,
    ) -> tuple[bytes, int, str] | None:
        """Read `keys` in order, each as `get` reads it, and after each full
        miss write `fill` as `put` does (unless `fill` is None). Returns what
        `get` returns for the last key (None for no keys).

        The walk's counts are added to `stats` once, at the end.
        """
        looked, above, l3 = self._looked, self._above, self._l3
        served = [0, 0, 0, 0]  # reads served at L1, L2, L3; full misses
        dropped = ([0, 0], [0, 0])  # L1's and L2's expired and evicted entries
        entry = level = None
        for key in keys:
            level = 0
            for entries, ttl in looked:
                entry = entries.get(key)
                if entry is not None:
                    if now - entry[2] > ttl:
                        del entries[key]
                        dropped[level][0] += 1
                    elif snapshot_version is None or entry[1] <= snapshot_version:
                        entries.move_to_end(key)
                        break
                level += 1
            else:
                versions = l3.get(key)
                if versions and snapshot_version is not None:
                    versions = [v for v in versions if v[0] <= snapshot_version]
                if not versions:
                    served[-1] += 1
                    entry = None
                    if fill is not None:
                        self._write(key, fill, now, dropped)
                    continue
                version, value = versions[-1]
                entry = (value, version)
            if level:
                served[level] += 1
                # an L3 read for a snapshot may be older than what L1 and L2 hold
                if snapshot_version is None or level < len(looked):
                    promoted = (entry[0], entry[1], now)
                    for tier in above[level]:
                        tier.install(key, promoted, now, dropped)
        served[0] = len(keys) - sum(served)
        self._add(served, dropped)
        return None if entry is None else (entry[0], entry[1], TIERS[level])

    def _write(self, key: bytes, value: bytes, now: float, dropped: tuple[list[int], ...]) -> int:
        """Append the next version to L3, keeping the newest `mvcc_retention`,
        and install it as an L3 read is promoted."""
        versions = self._l3.setdefault(key, [])
        version = versions[-1][0] + 1 if versions else 1
        versions.append((version, value))
        if len(versions) > self.config.mvcc_retention:
            del versions[: len(versions) - self.config.mvcc_retention]
        entry = (value, version, now)
        for tier in self._above[-1]:
            tier.install(key, entry, now, dropped)
        return version

    def _add(self, served: list[int], dropped: tuple[list[int], ...]) -> None:
        """Add a walk's counts to `stats`: how many of its reads L1, L2 and L3
        served and how many none did, and what L1 and L2 dropped. A read looks
        in L1 first, and each miss at a tier looks in the next."""
        at_l1, at_l2, at_l3, at_none = served
        stats = self.stats
        stats.total_gets += at_l1 + at_l2 + at_l3 + at_none
        stats.memory_hits += at_l1 + at_l2
        stats.l1.hits += at_l1
        stats.l1.misses += at_l2 + at_l3 + at_none
        stats.l2.hits += at_l2
        stats.l2.misses += at_l3 + at_none
        stats.l3.hits += at_l3
        stats.l3.misses += at_none
        for total, (expired, evicted) in zip((stats.l1, stats.l2), dropped):
            total.expired += expired
            total.evictions += evicted

    def reset_stats(self) -> None:
        self.stats = CacheStats()


class ZipfAccessDriver:
    """Feeds the cache a Zipf-popular, session-local key stream during simulation
    so the latency model sees a live memory hit rate.

    Accesses per tick are capped; misses fill the hierarchy (cache-aside). A
    tick of n accesses draws 3n uniforms in one call: the first n pick fresh
    key ids by Zipf rank, the next n are re-access coins, and the last n pick
    the key re-accessed from the `RECENT_KEYS` most recent ones (those of this
    tick included) when the coin falls below `REACCESS_P`. Then the tick's
    keys are read in one `read_through`.
    """

    def __init__(
        self,
        cache: TieredCache,
        n_keys: int = 20_000,
        seed: int = 0,
        per_tick_cap: int = 50,
    ):
        if n_keys < 1:
            raise ConfigError(f"the access driver needs at least one key, got {n_keys}")
        self.cache = cache
        self.per_tick_cap = per_tick_cap
        self._rng = np.random.default_rng([seed, 0xCAC4E])
        ranks = np.arange(1, n_keys + 1, dtype=float)
        probs = (1.0 / ranks) / np.sum(1.0 / ranks)
        # Generator.choice(n_keys, p=probs) builds this CDF on every call and
        # then draws as on_tick draws its fresh keys; building it once keeps them.
        self._cdf = probs.cumsum()
        self._cdf /= self._cdf[-1]
        self._keys = [b"k%d" % i for i in range(n_keys)]
        self._recent: list[int] = []

    def on_tick(self, tick: float, request_count: int) -> float:
        """Run up to `per_tick_cap` sampled accesses; returns the running
        combined memory hit rate."""
        n = min(int(request_count), self.per_tick_cap)
        if n > 0:
            u = self._rng.random(3 * n)
            fresh = self._cdf.searchsorted(u[:n], side="right").tolist()
            again = (u[n : 2 * n] < REACCESS_P).tolist()
            recent = self._recent
            # int(pick * len) < len: u <= 1 - 2**-53, and len is far below 2**52
            for key_id, reaccess, pick in zip(fresh, again, u[2 * n :].tolist()):
                if reaccess and recent:
                    key_id = recent[int(pick * len(recent))]
                recent.append(key_id)
            keys = self._keys  # this tick's key ids are the last n in `recent`
            self.cache.read_through([keys[i] for i in recent[-n:]], tick, b"v")
            if len(recent) > RECENT_KEYS:
                del recent[: len(recent) - RECENT_KEYS]
        return self.cache.stats.memory_hit_rate
