"""Reference trading-day cache trace shared by the cache and acceptance suites.

Key popularity is Zipf(s=1.0); accesses carry short-range session locality
(an instrument touched once tends to be touched again within a few dozen
operations), which is what makes an LRU tier effective on trading data.
Pure independent Zipf draws cap the reachable memory hit rate well below the
80% production figure regardless of eviction policy; see the analysis notes.
"""

from __future__ import annotations

import numpy as np

from tradesim.cache import TieredCache


def zipf_trading_trace(
    n_keys: int,
    length: int,
    warmup: int = 0,
    seed: int = 7,
    reaccess_p: float = 0.5,
    reaccess_span: int = 50,
) -> list[int]:
    """Key-id sequence of `length + warmup` reads with Zipf(1.0) popularity.

    Each fresh draw schedules Geometric(reaccess_p) follow-up touches at
    uniform offsets within the next `reaccess_span` operations.
    """
    ranks = np.arange(1, n_keys + 1, dtype=float)
    probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    rng = np.random.default_rng(seed)
    total = length + warmup
    fresh = rng.choice(n_keys, size=total, p=probs)
    pending: dict[int, list[int]] = {}
    trace: list[int] = []
    fresh_idx = 0
    while len(trace) < total:
        t = len(trace)
        queued = pending.pop(t, None)
        if queued:
            trace.extend(queued)
            continue
        key = int(fresh[fresh_idx % total])
        fresh_idx += 1
        trace.append(key)
        extra = rng.geometric(reaccess_p) - 1
        for _ in range(int(extra)):
            slot = t + 1 + int(rng.integers(reaccess_span))
            pending.setdefault(slot, []).append(key)
    return trace[:total]


def run_read_trace(cache: TieredCache, key_ids: list[int], warmup: int = 0) -> None:
    """Cache-aside replay: misses fill the hierarchy; stats reset after warmup."""
    keys = [b"k%d" % key_id for key_id in key_ids]
    cache.read_through(keys[:warmup], 0.0, fill=b"v")
    if warmup < len(keys):
        cache.reset_stats()
        cache.read_through(keys[warmup:], 0.0, fill=b"v")
