"""The predictor-input and workload fast paths against test-only copies of the
code they replaced.

Each fast path does the same arithmetic as the code it replaced, only less
often (a CDF or a sorted tidal profile built once), over arrays (the feature
rows of many ends in one call) or without a gather (the sigmoid), so results
must be equal bit for bit.
The cache access driver's fresh keys equal `Generator.choice` with p on the
same words; the rest of its key stream is checked by its properties.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lstm_reference import feature_sequence
from tradesim import cache as cache_module
from tradesim.cache import REACCESS_P, RECENT_KEYS, ZipfAccessDriver
from tradesim.errors import WarmupError
from tradesim.lstm import build_dataset
from tradesim.optim import sigmoid
from tradesim.report import weighted_percentile
from tradesim.workload import (
    FEATURE_COUNT,
    BurstSpec,
    FeatureScaling,
    RampSpec,
    TickHistory,
    WorkloadScenario,
    extract_features,
    rate_profile,
)

# --- test-only copies of the replaced code -----------------------------------


def old_build_dataset(history, seq_len, window, horizon, scaling, stride=1):
    n = len(history)
    first_end = window + seq_len - 1
    X, y = [], []
    volume = np.asarray(history.volume)
    for end in range(first_end, n - horizon + 1, stride):
        X.append(feature_sequence(history, seq_len, window, scaling, end=end))
        y.append(volume[end : end + horizon].mean() / scaling.volume_scale)
    if not X:
        raise WarmupError("history too short to build any training windows")
    return np.stack(X), np.asarray(y)


def old_window_slope(values):
    n = len(values)
    if n < 2:
        return 0.0
    x = np.arange(n, dtype=float)
    x -= x.mean()
    denom = float(np.dot(x, x))
    return float(np.dot(x, values - values.mean()) / denom) if denom else 0.0


def old_extract_features(history, window, scaling, end):
    """The one-row extractor the array extractor replaced, as it was."""
    vol = np.asarray(history.volume[end - window : end], dtype=float)
    vs = scaling.volume_scale
    lag1 = vol[-2] if window >= 2 else vol[-1]
    lag5 = vol[-6] if window >= 6 else vol[0]
    volume_stats = [
        vol.mean() / vs, vol.std() / vs, vol.min() / vs, vol.max() / vs,
        vol[-1] / vs, old_window_slope(vol) / vs, lag1 / vs, lag5 / vs,
    ]
    t = end - 1
    tod = (t % history.ticks_per_day) / history.ticks_per_day
    day = (t // history.ticks_per_day) % 7
    minutes_per_tick = history.tick_length / 60.0
    since_open = (t % history.ticks_per_day - history.market_open_tick) * minutes_per_tick
    to_close = (history.market_close_tick - t % history.ticks_per_day) * minutes_per_tick
    time_feats = [
        np.sin(2 * np.pi * tod), np.cos(2 * np.pi * tod),
        np.sin(2 * np.pi * day / 7.0), np.cos(2 * np.pi * day / 7.0),
        np.clip(since_open / scaling.session_minutes, -1.0, 2.0),
        np.clip(to_close / scaling.session_minutes, -1.0, 2.0),
    ]

    def tail(series, default=0.0):
        if len(series) >= end:
            return np.asarray(series[end - window : end], dtype=float)
        return np.full(window, default)

    market_feats = [
        tail(history.price_volatility).mean(),
        tail(history.order_cancel_ratio).mean(),
        float(tail([float(b) for b in history.burst_flags]).sum()),
        tail(history.busiest_utilization)[-1],
    ]
    return np.array([float(v) for v in volume_stats + time_feats + market_feats])


def old_tidal_multiplier(profile, t):
    if not profile:
        return 1.0
    offsets = [off for off, _ in profile]
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        profile = tuple(sorted(profile))
        offsets = [off for off, _ in profile]
    idx = bisect_right(offsets, t) - 1
    return profile[idx][1] if idx >= 0 else 1.0


def old_rate_profile(scenario, t):
    rate = scenario.base_rate
    rate *= old_tidal_multiplier(scenario.tidal_profile, t)
    if scenario.ramp is not None:
        rate *= scenario.ramp.factor_at(t)
    for burst in scenario.bursts:
        if burst.active_at(t):
            rate *= burst.magnitude
    return rate


def masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def where_sigmoid(x):
    # the sigmoid before its single division: both branches, `where` picks one
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def old_weighted_percentile(samples, weights, level):
    samples = np.asarray(samples, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(samples, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, level * cum[-1], side="left"))
    return float(samples[order][min(idx, samples.size - 1)])


# --- generated inputs ----------------------------------------------------------

volumes = st.floats(0.0, 5e3, allow_nan=False, allow_infinity=False)
# kept away from zero, so a recorded value never reads like an absent one
indicators = st.floats(0.25, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def histories(draw, min_len=2, max_len=90):
    n = draw(st.integers(min_len, max_len))
    day = draw(st.integers(5, 400))
    open_tick = draw(st.integers(0, day - 1))
    history = TickHistory(
        tick_length=draw(st.sampled_from([0.5, 1.0, 60.0])),
        ticks_per_day=day,
        market_open_tick=open_tick,
        market_close_tick=draw(st.integers(open_tick + 1, day)),
    )
    history.volume = draw(st.lists(volumes, min_size=n, max_size=n))

    def series(values):
        # as long as the volume series, or shorter (absent ticks read as zeros)
        size = draw(st.just(n) | st.integers(0, n))
        return draw(st.lists(values, min_size=size, max_size=size))

    history.price_volatility = series(indicators)
    history.order_cancel_ratio = series(indicators)
    history.burst_flags = series(st.sampled_from([1, 0]))
    history.busiest_utilization = series(st.floats(0.05, 1.0))
    return history


scalings = st.builds(
    FeatureScaling,
    volume_scale=st.floats(0.5, 1e4, allow_nan=False, allow_infinity=False),
    session_minutes=st.floats(1.0, 600.0, allow_nan=False, allow_infinity=False),
)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


# --- tests -----------------------------------------------------------------------


class TestBuildDataset:
    @given(
        window=st.integers(2, 20),
        seq_len=st.integers(1, 15),
        horizon=st.integers(1, 12),
        stride=st.integers(1, 3),
        scaling=scalings,
        data=st.data(),
    )
    def test_equals_per_window_feature_sequences(
        self, window, seq_len, horizon, stride, scaling, data
    ):
        # mostly long enough for a few windows; a little shorter also checks the warmup error
        shortest = window + seq_len + horizon - 1
        history = data.draw(histories(max(2, shortest - 3), shortest + 60))
        try:
            X_ref, y_ref = old_build_dataset(history, seq_len, window, horizon, scaling, stride)
        except WarmupError:
            with pytest.raises(WarmupError):
                build_dataset(history, seq_len, window, horizon, scaling, stride)
            return
        X, y = build_dataset(history, seq_len, window, horizon, scaling, stride)
        assert X.shape == X_ref.shape and X.dtype == X_ref.dtype
        assert X.tobytes() == X_ref.tobytes()
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()

    def test_extracts_each_distinct_row_once(self, monkeypatch):
        import tradesim.lstm as lstm

        history = TickHistory()
        for v in range(100):
            history.append(float(v % 13))
        calls = []

        def counting(history, window, scaling, ends):
            calls.append(ends)
            return extract_features(history, window, scaling, ends)

        monkeypatch.setattr(lstm, "extract_features", counting)
        X, _ = build_dataset(history, seq_len=6, window=8, horizon=5, scaling=FeatureScaling())
        # sequence ends 13..95, rows ending 8..95, all in one call
        assert len(X) == 83
        assert len(calls) == 1 and list(calls[0]) == list(range(8, 96))


class TestExtractFeatures:
    @given(history=histories(), window=st.integers(2, 20), scaling=scalings, data=st.data())
    def test_equals_list_converting_version(self, history, window, scaling, data):
        # every row of one call, ends unsorted and repeated, against one
        # scalar call per end
        if len(history) < window:
            with pytest.raises(WarmupError):
                extract_features(history, window, scaling, [len(history)])
            return
        end = st.just(len(history)) | st.integers(window, len(history))
        ends = data.draw(st.lists(end, min_size=1, max_size=12))
        got = extract_features(history, window, scaling, np.array(ends))
        assert got.shape == (len(ends), FEATURE_COUNT) and got.dtype == np.float64
        for row, end in zip(got, ends):
            assert row.tobytes() == old_extract_features(history, window, scaling, end).tobytes()

    def test_errors_as_the_one_row_version(self):
        history = TickHistory()
        for v in range(12):
            history.append(v + 0.5)
        scaling = FeatureScaling()
        with pytest.raises(WarmupError):
            extract_features(history, 5, scaling, [8, 4, 12])
        with pytest.raises(ValueError, match="beyond recorded history"):
            extract_features(history, 5, scaling, [8, 13])
        history.volume[9] = float("nan")  # read by the rows that end at 10 to 14
        assert np.isfinite(extract_features(history, 5, scaling, [9, 5, 9])).all()
        with pytest.raises(ValueError, match="finite"):
            extract_features(history, 5, scaling, [9, 10])


class TestRateProfile:
    @given(
        profile=st.lists(
            st.tuples(st.integers(-5, 60), st.floats(0.05, 5.0, allow_nan=False)), max_size=12
        ),
        ramp=st.none() | st.builds(RampSpec, st.integers(0, 40), st.integers(1, 30),
                                   st.floats(1.0, 50.0), st.floats(1.0, 200.0)),
        bursts=st.lists(st.builds(BurstSpec, st.integers(0, 50), st.integers(1, 10),
                                  st.floats(1.0, 4.0)), max_size=3),
    )
    def test_unsorted_profiles_match_per_call_sort(self, profile, ramp, bursts):
        scenario = WorkloadScenario(
            base_rate=37.5, peak_rate=400.0, horizon=64, seed=1, ramp=ramp,
            tidal_profile=tuple(profile), bursts=tuple(bursts),
        )
        for t in range(scenario.horizon):
            assert _bits(rate_profile(scenario, t)) == _bits(old_rate_profile(scenario, t))

    def test_index_is_not_part_of_equality(self):
        a = WorkloadScenario(base_rate=1.0, peak_rate=2.0, horizon=5, seed=0,
                             tidal_profile=((3, 2.0), (0, 1.5)))
        b = WorkloadScenario(base_rate=1.0, peak_rate=2.0, horizon=5, seed=0,
                             tidal_profile=((3, 2.0), (0, 1.5)))
        assert a == b and hash(a) == hash(b)
        assert "_tidal_steps" not in repr(a)


class TestSigmoid:
    SPECIALS = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 710.0, -710.0, 746.0, -746.0,
                5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 36.7, -36.7, 800.0, -800.0]
    NANS = [np.nan, -np.nan]  # the masked version gives NaN another sign bit

    @given(st.lists(st.floats(allow_nan=False, allow_subnormal=True), min_size=1, max_size=64))
    def test_bits_equal_masked_version(self, values):
        x = np.array(values + self.SPECIALS)
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
        x = np.array(values + self.SPECIALS + self.NANS)
        assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    def test_bits_equal_where_version_on_normals(self):
        x = np.random.default_rng(3).standard_normal(200_000) * 20.0
        assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()
        z = x[:32 * 512].reshape(32, 512)[:, :384]  # a strided gate block, as the LSTM's
        assert sigmoid(z).tobytes() == where_sigmoid(z).tobytes()

    @given(st.integers(1, 6), st.integers(1, 40), st.floats(0.1, 50.0))
    def test_gate_block_equals_three_slices(self, batch, hidden, spread):
        z = np.random.default_rng(batch * 100 + hidden).normal(0.0, spread, (batch, 4 * hidden))
        joint = sigmoid(z[:, : 3 * hidden])
        for k in range(3):
            part = masked_sigmoid(z[:, k * hidden : (k + 1) * hidden])
            assert joint[:, k * hidden : (k + 1) * hidden].tobytes() == part.tobytes()

    def test_nan_stays_nan(self):
        out = sigmoid(np.array([np.nan, 0.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2]) and out[1] == 0.5


class TestWeightedPercentile:
    @given(
        st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 50.0)), min_size=1, max_size=60),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_levels_at_once_equal_one_at_a_time(self, pairs, levels):
        samples = np.array([s for s, _ in pairs])
        weights = np.array([w for _, w in pairs])
        got = weighted_percentile(samples, weights, levels)
        assert got == [old_weighted_percentile(samples, weights, q) for q in levels]
        assert weighted_percentile(samples, weights, levels[0]) == got[0]


class _NullCache:
    """Records the keys read; every read misses, so the driver's RNG alone
    decides the stream."""

    class stats:
        memory_hit_rate = 0.0

    def __init__(self) -> None:
        self.keys: list[bytes] = []

    def read_through(self, keys, now, fill=None):
        self.keys += keys


def key_ids(keys: list[bytes]) -> list[int]:
    return [int(key[1:]) for key in keys]


def zipf_probs(n_keys: int) -> np.ndarray:
    ranks = np.arange(1, n_keys + 1, dtype=float)
    return (1.0 / ranks) / np.sum(1.0 / ranks)


@st.composite
def driver_runs(draw):
    """(n_keys, seed, per_tick_cap, per-tick request counts)."""
    cap = draw(st.sampled_from([0, 1, 2, 7, 50, 64]))
    count = st.sampled_from([0, 1, cap, cap + 1, 3 * cap + 5]) | st.integers(0, 120)
    return (
        draw(st.sampled_from([1, 3, 200, 20_000])),
        draw(st.integers(0, 2**32 - 1)),
        cap,
        draw(st.lists(count, min_size=1, max_size=40)),
    )


class TestZipfDriver:
    @given(driver_runs())
    def test_each_tick_reads_its_capped_count_of_known_keys(self, run):
        n_keys, seed, cap, counts = run
        caches = _NullCache(), _NullCache()
        drivers = [ZipfAccessDriver(c, n_keys, seed, per_tick_cap=cap) for c in caches]
        for tick, count in enumerate(counts):
            before = len(caches[0].keys)
            for driver in drivers:
                driver.on_tick(float(tick), count)
            read = key_ids(caches[0].keys[before:])
            assert len(read) == min(count, cap)
            assert all(0 <= i < n_keys for i in read)
            recent = drivers[0]._recent
            assert len(recent) <= RECENT_KEYS
            assert recent[len(recent) - len(read):] == read[-RECENT_KEYS:]
        # the same seed gives the same keys
        assert caches[0].keys == caches[1].keys
        assert drivers[0]._rng.bit_generator.state == drivers[1]._rng.bit_generator.state

    @pytest.mark.parametrize("n_keys, seed", [(20_000, 0), (20_000, 7), (3, 1)])
    def test_fresh_keys_equal_choice_with_p(self, monkeypatch, n_keys, seed):
        # with no re-access every key is a fresh one, drawn from the first
        # third of the tick's words as Generator.choice draws
        monkeypatch.setattr(cache_module, "REACCESS_P", 0.0)
        cache = _NullCache()
        driver = ZipfAccessDriver(cache, n_keys=n_keys, seed=seed)
        ref = np.random.default_rng([seed, 0xCAC4E])
        expected = []
        for tick, count in enumerate(np.random.default_rng(seed + 100).integers(0, 80, size=500)):
            driver.on_tick(float(tick), int(count))
            n = min(int(count), driver.per_tick_cap)
            if n:
                expected += ref.choice(n_keys, size=n, p=zipf_probs(n_keys)).tolist()
                ref.random(2 * n)  # the coins and the picks
        assert key_ids(cache.keys) == expected
        assert driver._rng.bit_generator.state == ref.bit_generator.state

    def test_rank_one_share_is_one_over_the_harmonic_number(self, monkeypatch):
        monkeypatch.setattr(cache_module, "REACCESS_P", 0.0)
        cache = _NullCache()
        driver = ZipfAccessDriver(cache, n_keys=20_000, seed=3)
        for tick in range(800):
            driver.on_tick(float(tick), 50)
        share = key_ids(cache.keys).count(0) / len(cache.keys)
        assert share == pytest.approx(zipf_probs(20_000)[0], abs=0.006)  # 1/H_n, about 0.0954

    def test_reaccesses_pick_from_the_whole_recent_window(self):
        # fresh keys drawn uniformly from a million make a fresh key that
        # repeats one of the last few hundred rare, so a key that does is a
        # re-access
        cache = _NullCache()
        driver = ZipfAccessDriver(cache, n_keys=1_000_000, seed=5)
        driver._cdf = np.arange(1, 1_000_001) / 1_000_000
        reaccessed, firsts, lasts = 0, 0, 0
        for tick in range(800):
            recent = list(driver._recent)
            before = len(cache.keys)
            driver.on_tick(float(tick), 50)
            for key_id in key_ids(cache.keys[before:]):
                if key_id in recent:
                    reaccessed += 1
                    # a key held once in a window of two or more was picked
                    # at its index
                    once = recent.count(key_id) == 1 and len(recent) > 1
                    firsts += once and key_id == recent[0]
                    lasts += once and key_id == recent[-1]
                recent.append(key_id)
        assert reaccessed / len(cache.keys) == pytest.approx(REACCESS_P, abs=0.02)
        assert firsts > 0
        assert lasts > 0  # the last entry of `recent` can be picked
