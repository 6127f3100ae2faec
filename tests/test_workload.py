from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from tradesim.errors import ConfigError, WarmupError, from_json
from tradesim.workload import (
    BurstSpec,
    FeatureScaling,
    RampSpec,
    TickHistory,
    WorkloadScenario,
    extract_features,
    generate_tick_counts,
    load_scenario,
    rate_profile,
    save_scenario,
)


def flat_scenario(base=5000.0, horizon=100, seed=7, **kwargs) -> WorkloadScenario:
    return WorkloadScenario(
        base_rate=base, peak_rate=base * 3, horizon=horizon, seed=seed, **kwargs
    )


class TestRateProfile:
    def test_flat_scenario_returns_base_rate(self):
        sc = flat_scenario()
        assert all(rate_profile(sc, t) == 5000.0 for t in (0, 17, 99))

    def test_linear_ramp_midpoint_is_mean_rate(self):
        # 1000 -> 10000 user-equivalents over 900 one-second ticks
        ramp = RampSpec(start_tick=0, duration_ticks=900, start_users=1000, end_users=10000)
        sc = flat_scenario(base=1000.0, horizon=1000, ramp=ramp)
        start, end = rate_profile(sc, 0), rate_profile(sc, 900)
        assert rate_profile(sc, 450) == pytest.approx((start + end) / 2.0)

    def test_burst_triples_normal_rate_to_peak(self):
        sc = flat_scenario(base=5000.0, bursts=(BurstSpec(10, 5, 3.0),))
        assert rate_profile(sc, 12) == 15000.0
        assert rate_profile(sc, 9) == 5000.0
        assert rate_profile(sc, 15) == 5000.0

    def test_tidal_step_profile(self):
        sc = flat_scenario(base=100.0, tidal_profile=((0, 1.0), (50, 2.0)))
        assert rate_profile(sc, 49) == 100.0
        assert rate_profile(sc, 50) == 200.0

    def test_out_of_horizon_raises(self):
        sc = flat_scenario(horizon=10)
        with pytest.raises(ValueError):
            rate_profile(sc, 10)
        with pytest.raises(ValueError):
            rate_profile(sc, -1)

    def test_monotone_on_ramp_without_modulation(self):
        ramp = RampSpec(0, 300, 500, 8000)
        sc = flat_scenario(base=500.0, horizon=400, ramp=ramp)
        rates = [rate_profile(sc, t) for t in range(400)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestGenerateTick:
    def test_zero_rate_gives_empty_list(self):
        sc = flat_scenario(base=1e-12, horizon=10)
        assert generate_tick_counts(sc, 3).tolist() == [0] * sc.service_count

    def test_determinism_same_inputs_same_requests(self):
        # a new but equal scenario object draws the tick again
        a, b = flat_scenario(base=200.0), flat_scenario(base=200.0)
        assert generate_tick_counts(a, 5).tolist() == generate_tick_counts(b, 5).tolist()

    def test_different_ticks_differ(self):
        sc = flat_scenario(base=200.0)
        assert generate_tick_counts(sc, 5).tolist() != generate_tick_counts(sc, 6).tolist()

    def test_poisson_moments_over_many_ticks(self):
        # lambda * tick = 50; sample mean within 3 sigma of the Poisson mean
        sc = flat_scenario(base=50.0, horizon=10_000, seed=123)
        counts = np.array([generate_tick_counts(sc, t).sum() for t in range(10_000)])
        assert counts.mean() == pytest.approx(50.0, abs=3 * np.sqrt(50.0 / 10_000))
        assert counts.var() == pytest.approx(50.0, rel=0.05)

    def test_service_ids_respect_mix(self):
        sc = flat_scenario(base=500.0, horizon=200, seed=3)
        per_service = sum(generate_tick_counts(sc, t) for t in range(200))
        freq = per_service / per_service.sum()
        assert np.allclose(freq, sc.service_weights(), atol=0.02)

    def test_stream_identical_across_calls(self):
        a, b = (flat_scenario(base=80.0, horizon=50, seed=11) for _ in range(2))
        assert [generate_tick_counts(a, t).tolist() for t in range(50)] == [
            generate_tick_counts(b, t).tolist() for t in range(50)
        ]


class TestBurstAndRampValidation:
    def test_bad_burst_rejected(self):
        with pytest.raises(ConfigError):
            BurstSpec(0, 0, 2.0)
        with pytest.raises(ConfigError):
            BurstSpec(0, 5, 0.5)

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError):
            flat_scenario(base=-1.0)
        with pytest.raises(ConfigError):
            WorkloadScenario(base_rate=100.0, peak_rate=50.0, horizon=10, seed=0)
        with pytest.raises(ConfigError):
            flat_scenario(tidal_profile=((0, -2.0),))


class TestFeatures:
    def make_history(self, values) -> TickHistory:
        h = TickHistory()
        for v in values:
            h.append(v)
        return h

    def last_row(self, h, window, scaling=FeatureScaling()) -> np.ndarray:
        return extract_features(h, window, scaling, [len(h)])[0]

    def test_constant_series_statistics(self):
        h = self.make_history([42.0] * 30)
        vals = self.last_row(h, window=20)
        assert vals[0] == pytest.approx(42.0)  # mean
        assert vals[1] == pytest.approx(0.0)  # std
        assert vals[5] == pytest.approx(0.0)  # slope
        assert len(vals) == 18 and np.all(np.isfinite(vals))

    def test_short_history_is_warmup_error(self):
        h = self.make_history([1.0] * 5)
        with pytest.raises(WarmupError):
            self.last_row(h, window=10)

    def test_sinusoid_slope_sign_matches_derivative(self):
        # slope at window end should match the sign of d/dt sin(2 pi t / 200)
        n, period = 400, 200.0
        series = [np.sin(2 * np.pi * t / period) for t in range(n)]
        h = self.make_history(series)
        ends = [150, 250, 350]
        rows = extract_features(h, 20, FeatureScaling(), ends)
        for end, row in zip(ends, rows):
            derivative = np.cos(2 * np.pi * (end - 1) / period)
            assert np.sign(row[5]) == np.sign(derivative)

    def test_scaling_divides_volume_stats(self):
        h = self.make_history([100.0] * 20)
        assert self.last_row(h, 10, FeatureScaling(volume_scale=50.0))[0] == pytest.approx(2.0)

    def test_feature_vector_length_enforced(self):
        # one row of 18 finite features per end, and a non-finite one is refused
        h = self.make_history([float(v) for v in range(30)])
        assert extract_features(h, 10, FeatureScaling(), [12, 30, 12]).shape == (3, 18)
        h.volume[25] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            self.last_row(h, window=10)

    def test_lag_features(self):
        vals = self.last_row(self.make_history(list(range(30))), window=10)
        assert vals[4] == 29.0  # last
        assert vals[6] == 28.0  # 1-lag
        assert vals[7] == 24.0  # 5-lag


class TestScenarioRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        sc = WorkloadScenario(
            base_rate=5000.0,
            peak_rate=15000.0,
            horizon=900,
            seed=99,
            tick_length=1.0,
            ramp=RampSpec(0, 900, 1000, 10000),
            tidal_profile=((0, 1.0), (300, 1.5)),
            bursts=(BurstSpec(500, 60, 3.0),),
        )
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert loaded == sc
        save_scenario(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_dict_round_trip(self):
        # the JSON form: asdict keeps tuples, the decoder takes lists
        sc = flat_scenario()
        assert from_json(WorkloadScenario, json.loads(json.dumps(asdict(sc))), "scenario") == sc

    def test_file_with_a_retired_key_still_loads(self):
        # files written while scenarios carried users_to_rate
        sc = flat_scenario()
        data = json.loads(json.dumps({**asdict(sc), "users_to_rate": 2.5}))
        assert from_json(WorkloadScenario, data, "scenario") == sc

    def test_missing_file_raises_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/scenario.json")
