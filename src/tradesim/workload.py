"""Reproducible trading request streams: tidal profiles, open ramps, Poisson
arrivals, injected bursts, and predictor feature windows."""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, WarmupError, from_json, read_json

FEATURE_COUNT = 18  # 14 live features and 4 reserved zero columns; see extract_features


@dataclass(frozen=True)
class BurstSpec:
    """Rectangular rate surge: multiply the rate by `magnitude` while active."""

    start_tick: int
    duration: int
    magnitude: float

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ConfigError(f"burst duration must be >= 1, got {self.duration}")
        if self.magnitude < 1.0:
            raise ConfigError(f"burst magnitude must be >= 1, got {self.magnitude}")

    def active_at(self, t: int) -> bool:
        return self.start_tick <= t < self.start_tick + self.duration


@dataclass(frozen=True)
class RampSpec:
    """Linear concurrent-user ramp; the rate scales with users/start_users."""

    start_tick: int
    duration_ticks: int
    start_users: float
    end_users: float

    def __post_init__(self) -> None:
        if self.duration_ticks <= 0:
            raise ConfigError("ramp duration must be > 0")
        if self.start_users <= 0:
            raise ConfigError("ramp start_users must be > 0")

    def users_at(self, t: int) -> float:
        if t <= self.start_tick:
            return self.start_users
        if t >= self.start_tick + self.duration_ticks:
            return self.end_users
        frac = (t - self.start_tick) / self.duration_ticks
        return self.start_users + frac * (self.end_users - self.start_users)

    def factor_at(self, t: int) -> float:
        return self.users_at(t) / self.start_users


@dataclass(frozen=True)
class ServiceSpec:
    """One of the core services: request mix weight and per-request cost."""

    name: str
    weight: float
    work_units: float  # abstract CPU-ms per request
    payload_bytes: int
    mem_mb: float = 64.0  # resident footprint per instance

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError(f"service weight must be >= 0, got {self.weight}")
        if self.work_units <= 0:
            raise ConfigError(f"work_units must be > 0, got {self.work_units}")


def default_service_mix() -> tuple[ServiceSpec, ...]:
    """The eight core trading services with a plausible request mix."""
    specs = [
        ("auth", 0.10, 6.0, 512),
        ("market-data", 0.30, 3.0, 2048),
        ("commission", 0.15, 8.0, 768),
        ("order-match", 0.20, 10.0, 1024),
        ("clearing", 0.05, 12.0, 1536),
        ("risk-control", 0.10, 9.0, 896),
        ("ledger", 0.05, 7.0, 640),
        ("notify", 0.05, 2.0, 384),
    ]
    return tuple(ServiceSpec(n, w, wu, pb) for n, w, wu, pb in specs)


@dataclass(frozen=True)
class WorkloadScenario:
    base_rate: float  # requests/second
    peak_rate: float
    horizon: int  # ticks
    seed: int
    tick_length: float = 1.0  # seconds
    ramp: RampSpec | None = None
    tidal_profile: tuple[tuple[int, float], ...] = ()
    bursts: tuple[BurstSpec, ...] = ()
    service_mix: tuple[ServiceSpec, ...] = field(default_factory=default_service_mix)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_rate) and self.base_rate > 0):
            raise ConfigError(f"base_rate must be finite and > 0, got {self.base_rate}")
        if not (math.isfinite(self.peak_rate) and self.peak_rate >= self.base_rate):
            raise ConfigError(f"peak_rate must be finite and >= base_rate, got {self.peak_rate}")
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        if not (math.isfinite(self.tick_length) and self.tick_length > 0):
            raise ConfigError(f"tick_length must be finite and > 0, got {self.tick_length}")
        if not self.service_mix:
            raise ConfigError("service_mix must not be empty")
        if sum(s.weight for s in self.service_mix) <= 0:
            raise ConfigError("service mix weights must sum to > 0")
        for off, mult in self.tidal_profile:
            if not (math.isfinite(mult) and mult > 0):
                raise ConfigError(
                    f"tidal_profile multiplier must be finite and > 0, got {mult} at {off}"
                )
        # Plain attributes, not fields, so they stay out of files, `==` and `repr`:
        # (sorted offsets, their multipliers) of tidal_profile, built once for
        # rate_profile, and the read-only arrival counts by tick, drawn once by
        # generate_tick_counts.
        object.__setattr__(self, "_tidal_steps", _tidal_index(self.tidal_profile))
        object.__setattr__(self, "_tick_counts", {})

    @property
    def service_count(self) -> int:
        return len(self.service_mix)

    def service_weights(self) -> np.ndarray:
        w = np.array([s.weight for s in self.service_mix], dtype=float)
        return w / w.sum()


def tick_rng(seed: int, t: int, stream: int = 0) -> np.random.Generator:
    """Generator derived from (seed, tick) so every tick regenerates independently."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream, t])


def _tidal_index(profile: tuple[tuple[int, float], ...]) -> tuple[list[int], list[float]]:
    """(offsets, multipliers) of a step profile in ascending breakpoint order.

    A profile whose offsets do not strictly increase is sorted as (offset,
    multiplier) pairs, so of repeated offsets the largest multiplier is last.
    """
    offsets = [off for off, _ in profile]
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        profile = tuple(sorted(profile))
        offsets = [off for off, _ in profile]
    return offsets, [mult for _, mult in profile]


def rate_profile(scenario: WorkloadScenario, t: int) -> float:
    """Deterministic arrival rate lambda(t) in requests/second."""
    if not 0 <= t < scenario.horizon:
        raise ValueError(f"tick {t} outside horizon [0, {scenario.horizon})")
    offsets, mults = scenario._tidal_steps
    idx = bisect_right(offsets, t) - 1  # the last breakpoint at or before t
    rate = scenario.base_rate
    rate *= mults[idx] if idx >= 0 else 1.0
    if scenario.ramp is not None:
        rate *= scenario.ramp.factor_at(t)
    for burst in scenario.bursts:
        if burst.active_at(t):
            rate *= burst.magnitude
    return rate


def generate_tick_counts(scenario: WorkloadScenario, t: int) -> np.ndarray:
    """Per-service Poisson request counts for one tick.

    Each tick is drawn once per scenario object and handed out read-only, so
    the simulate loop, the hybrid's rollouts and every training episode share
    one copy."""
    counts = scenario._tick_counts.get(t)
    if counts is None:
        counts = scenario._tick_counts[t] = _draw_tick_counts(scenario, t)
        counts.flags.writeable = False
    return counts


def _draw_tick_counts(scenario: WorkloadScenario, t: int) -> np.ndarray:
    lam = rate_profile(scenario, t) * scenario.tick_length
    if lam <= 0:
        return np.zeros(scenario.service_count, dtype=np.int64)
    rng = tick_rng(scenario.seed, t)
    total = rng.poisson(lam)
    if total == 0:
        return np.zeros(scenario.service_count, dtype=np.int64)
    return rng.multinomial(total, scenario.service_weights())


# --- predictor feature extraction -------------------------------------------


@dataclass
class TickHistory:
    """Per-tick arrival volume plus the session clock the time features need.

    The volume is the only series: no command, input file or dataset records
    a market indicator, so the feature rows' four indicator columns are zeros
    (see `extract_features`).
    """

    volume: list[float] = field(default_factory=list)
    tick_length: float = 1.0  # seconds
    ticks_per_day: int = 86_400
    market_open_tick: int = 0  # offset within the day
    market_close_tick: int = 86_400

    def append(self, volume: float) -> None:
        self.volume.append(float(volume))

    def __len__(self) -> int:
        return len(self.volume)


def volume_history(scenario: WorkloadScenario) -> TickHistory:
    """The arrival volume (requests/second) of every tick of the scenario's
    horizon, on `TickHistory`'s default clock.

    The predictor is trained and served on this history alone; each caller
    sets the session clock its features run on."""
    volume = [float(generate_tick_counts(scenario, t).sum()) / scenario.tick_length
              for t in range(scenario.horizon)]
    return TickHistory(volume=volume, tick_length=scenario.tick_length)


@dataclass(frozen=True)
class FeatureScaling:
    """Stored normalization constants so train and inference agree."""

    volume_scale: float = 1.0
    session_minutes: float = 390.0  # used to normalize open/close distances

    def __post_init__(self) -> None:
        if self.volume_scale <= 0 or self.session_minutes <= 0:
            raise ConfigError("scaling constants must be > 0")


def extract_features(
    history: TickHistory, window: int, scaling: FeatureScaling, ends: np.ndarray
) -> np.ndarray:
    """(len(ends), 18) features: row k describes `history[:ends[k]]` with 8
    volume stats, 6 time features and 4 reserved columns that are always 0.0.

    Layout: [mean, std, min, max, last, slope, lag1, lag5,
             sin_tod, cos_tod, sin_dow, cos_dow, mins_since_open, mins_to_close,
             0, 0, 0, 0]
    Volume statistics are divided by `scaling.volume_scale`; the slope is the
    least-squares slope of volume per tick over the window. The reserved
    columns once held market indicators (price volatility, order cancel ratio,
    burst flag count, busiest node's utilization) that nothing records. They
    stay because the rows' width is the LSTM's input size: 14 columns would
    change `init_params`' draws and so every trained model, and c04's seed 7
    then scales up past its bound. `ends` is a non-empty array, in any order
    and with repeats. Only the span of history from the first row's window to
    the last end is converted, so a forecast's rows cost O(rows x window)
    whatever the length of the history.
    """
    ends = np.asarray(ends, dtype=np.int64)
    if ends.max() > len(history):
        raise ValueError(f"end {ends.max()} beyond recorded history {len(history)}")
    if window < 2:
        raise ConfigError("feature window must be >= 2 ticks")
    if ends.min() < window:
        raise WarmupError(f"need {window} ticks of history, have {ends.min()}")

    lo, hi = int(ends.min()) - window, int(ends.max())
    cells = (ends - window - lo)[:, None] + np.arange(window)  # of each row in history[lo:hi]
    # (rows, window) copies, so every reduction runs along a contiguous row
    vol = np.asarray(history.volume[lo:hi], dtype=float)[cells]
    vs = scaling.volume_scale
    mean = vol.mean(axis=1)
    x = np.arange(window, dtype=float)
    x -= x.mean()
    # np.dot of two vectors per row: a matrix product sums the terms in
    # another order, which changes the last bits of non-integer volumes
    slope = np.array([np.dot(x, row) for row in vol - mean[:, None]]) / np.dot(x, x)
    lag5 = vol[:, -6] if window >= 6 else vol[:, 0]
    volume_stats = [
        mean, vol.std(axis=1), vol.min(axis=1), vol.max(axis=1), vol[:, -1], slope, vol[:, -2], lag5
    ]

    t = ends - 1
    day_tick = t % history.ticks_per_day
    tod = day_tick / history.ticks_per_day
    day = (t // history.ticks_per_day) % 7
    minutes_per_tick = history.tick_length / 60.0
    since_open = (day_tick - history.market_open_tick) * minutes_per_tick
    to_close = (history.market_close_tick - day_tick) * minutes_per_tick
    time_feats = [
        np.sin(2 * np.pi * tod),
        np.cos(2 * np.pi * tod),
        np.sin(2 * np.pi * day / 7.0),
        np.cos(2 * np.pi * day / 7.0),
        np.clip(since_open / scaling.session_minutes, -1.0, 2.0),
        np.clip(to_close / scaling.session_minutes, -1.0, 2.0),
    ]

    reserved = [np.zeros(len(ends))] * 4
    table = np.stack([v / vs for v in volume_stats] + time_feats + reserved, axis=1)
    if not np.isfinite(table).all():
        raise ValueError("feature values must be finite")
    return table


# --- scenario (de)serialization ----------------------------------------------


def save_scenario(scenario: WorkloadScenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(scenario), indent=2) + "\n")


def load_scenario(path: str | Path) -> WorkloadScenario:
    """The scenario a JSON file describes; keys it omits take the defaults."""
    return from_json(WorkloadScenario, read_json(path, "scenario"), f"scenario {path}")
