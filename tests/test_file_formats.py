"""Each file format has one definition, its dataclass.

The writers dump a dataclass's fields, and the loaders pass on only the keys a
file holds, so a key a file omits takes the dataclass's default and a key it
does not name is ignored. Generated scenarios and topologies must come back
equal from their JSON files, and a second save must give the same bytes.

The hand-written `topology_to_dict` that `save_topology` replaced lives here,
test-only, and the topology files must equal its bytes. The scenario file
holds what the replaced `scenario_to_dict` wrote, in field order. A predictor
checkpoint's meta follows the same rule; its byte equality with the earlier
writer is checked in `test_single_implementations.py`.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradesim.cluster import (
    ClusterTopology,
    LatencyModel,
    NodeSpec,
    load_topology,
    save_topology,
    uniform_topology,
)
from tradesim.errors import ConfigError
from tradesim.lstm import (
    FeatureScaling,
    ForecastModel,
    LstmConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from tradesim.optim import load_params, save_params
from tradesim.workload import (
    BurstSpec,
    RampSpec,
    ServiceSpec,
    WorkloadScenario,
    generate_tick_counts,
    load_scenario,
    save_scenario,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(max_size=6)


def old_topology_to_dict(topo):
    return {
        "nodes": [
            {"cpu_capacity": n.cpu_capacity, "mem_capacity": n.mem_capacity, "net_capacity": n.net_capacity}
            for n in topo.nodes
        ],
        "services": [
            {
                "name": s.name,
                "weight": s.weight,
                "work_units": s.work_units,
                "payload_bytes": s.payload_bytes,
                "mem_mb": s.mem_mb,
            }
            for s in topo.services
        ],
        "initial_placement": [list(row) for row in topo.initial_placement],
        "initial_quota": list(topo.initial_quota),
        "initial_priority": list(topo.initial_priority),
        "latency": {
            "network_ms": topo.latency.network_ms,
            "processing_ms": topo.latency.processing_ms,
            "data_access_ms": topo.latency.data_access_ms,
            "jitter_sigma": topo.latency.jitter_sigma,
            "jitter_enabled": topo.latency.jitter_enabled,
            "rho_cap": topo.latency.rho_cap,
        },
        "history_window": topo.history_window,
        "ewma_alpha": topo.ewma_alpha,
        "tick_length": topo.tick_length,
    }


def old_scenario_to_dict(scenario):
    return {
        "base_rate": scenario.base_rate,
        "peak_rate": scenario.peak_rate,
        "ramp": None
        if scenario.ramp is None
        else {
            "start_tick": scenario.ramp.start_tick,
            "duration_ticks": scenario.ramp.duration_ticks,
            "start_users": scenario.ramp.start_users,
            "end_users": scenario.ramp.end_users,
        },
        "tidal_profile": [[off, mult] for off, mult in scenario.tidal_profile],
        "bursts": [
            {"start_tick": b.start_tick, "duration": b.duration, "magnitude": b.magnitude}
            for b in scenario.bursts
        ],
        "horizon": scenario.horizon,
        "tick_length": scenario.tick_length,
        "seed": scenario.seed,
        "service_mix": [
            {
                "name": s.name,
                "weight": s.weight,
                "work_units": s.work_units,
                "payload_bytes": s.payload_bytes,
                "mem_mb": s.mem_mb,
            }
            for s in scenario.service_mix
        ],
    }


# --- generated inputs -------------------------------------------------------------


def service_mixes(size: int):
    service = st.builds(
        ServiceSpec,
        name=names,
        weight=st.floats(0.01, 10.0),
        work_units=st.floats(0.01, 100.0),
        payload_bytes=st.integers(0, 1 << 20),
        mem_mb=st.floats(1.0, 4096.0),
    )
    return st.lists(service, min_size=size, max_size=size).map(tuple)


def optional(draw, **candidates) -> dict:
    """A random subset of `candidates`, so that some fields keep their defaults."""
    return {name: value for name, value in candidates.items() if draw(st.booleans())}


@st.composite
def scenarios(draw) -> WorkloadScenario:
    base = draw(st.floats(0.001, 1e5))
    ramp = st.builds(
        RampSpec,
        start_tick=st.integers(0, 1000),
        duration_ticks=st.integers(1, 1000),
        start_users=st.floats(0.1, 1e4),
        end_users=st.floats(0.0, 1e4),
    )
    burst = st.builds(
        BurstSpec,
        start_tick=st.integers(0, 1000),
        duration=st.integers(1, 100),
        magnitude=st.floats(1.0, 10.0),
    )
    return WorkloadScenario(
        base_rate=base,
        peak_rate=base * draw(st.floats(1.0, 10.0)),
        horizon=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        **optional(
            draw,
            tick_length=draw(st.floats(0.01, 10.0)),
            ramp=draw(st.none() | ramp),
            tidal_profile=tuple(
                draw(st.lists(st.tuples(st.integers(0, 10**5), st.floats(0.01, 10.0)), max_size=4))
            ),
            bursts=tuple(draw(st.lists(burst, max_size=3))),
            service_mix=draw(service_mixes(draw(st.integers(1, 4)))),
        ),
    )


@st.composite
def topologies(draw) -> ClusterTopology:
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    placement = [draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for _ in range(k)]
    for row in placement:
        row[draw(st.integers(0, n - 1))] += 1  # every service has an instance
    # at most 3 instances per cell, so no node commits more than 1
    quota = draw(st.lists(st.floats(0.001, 1.0 / (3 * k)), min_size=k, max_size=k))
    latency = st.builds(
        LatencyModel,
        network_ms=st.floats(0.0, 100.0),
        processing_ms=st.floats(0.0, 100.0),
        data_access_ms=st.floats(0.0, 100.0),
        jitter_sigma=st.floats(0.0, 1.0),
        jitter_enabled=st.booleans(),
        rho_cap=st.floats(0.1, 0.99),
    )
    node = st.builds(
        NodeSpec, st.floats(1.0, 1e4), st.floats(1.0, 1e5), st.floats(1.0, 1e3)
    )
    return ClusterTopology(
        nodes=tuple(draw(st.lists(node, min_size=n, max_size=n))),
        services=draw(service_mixes(k)),
        initial_placement=tuple(tuple(row) for row in placement),
        initial_quota=tuple(quota),
        initial_priority=tuple(draw(st.lists(finite, min_size=k, max_size=k))),
        **optional(
            draw,
            latency=draw(latency),
            history_window=draw(st.integers(0, 1000)),
            ewma_alpha=draw(st.floats(0.01, 1.0)),
            tick_length=draw(st.floats(0.01, 10.0)),
        ),
    )


def defaulted(cls) -> dict:
    """The fields of `cls` that have a default, by name, with that default."""
    return {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
        if f.init and (f.default is not MISSING or f.default_factory is not MISSING)
    }


def round_trip(value, save, load) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save(value, first)
        loaded = load(first)
        assert loaded == value
        save(loaded, second)
        assert second.read_bytes() == first.read_bytes()


def load_without(value, key: str, save, load):
    """What `load` makes of `value`'s file with `key` taken out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.json"
        save(value, path)
        data = json.loads(path.read_text())
        del data[key]
        path.write_text(json.dumps(data))
        return load(path)


# --- scenarios ----------------------------------------------------------------------


class TestScenarioFiles:
    @given(scenarios())
    def test_load_of_save_is_identity_and_resave_is_byte_equal(self, scenario):
        round_trip(scenario, save_scenario, load_scenario)

    @given(scenarios())
    def test_omitted_optional_key_takes_the_default(self, scenario):
        for key, default in defaulted(WorkloadScenario).items():
            loaded = load_without(scenario, key, save_scenario, load_scenario)
            assert loaded == replace(scenario, **{key: default}), key

    @given(scenarios())
    def test_file_holds_the_earlier_content_in_field_order(self, scenario):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            save_scenario(scenario, path)
            data = json.loads(path.read_text())
        assert data == old_scenario_to_dict(scenario)
        assert list(data) == [f.name for f in fields(WorkloadScenario)]

    def test_drawn_ticks_stay_out_of_the_file(self, tmp_path):
        scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
        save_scenario(scenario, tmp_path / "before.json")
        generate_tick_counts(scenario, 5)
        save_scenario(scenario, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
        assert "_tick_counts" not in (tmp_path / "after.json").read_text()

    @pytest.mark.parametrize("key", ["base_rate", "peak_rate", "horizon", "seed"])
    def test_missing_required_key_is_config_error(self, key):
        scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
        with pytest.raises(ConfigError, match=key):
            load_without(scenario, key, save_scenario, load_scenario)

    @pytest.mark.parametrize("mix", [[], None])
    def test_empty_service_mix_is_config_error(self, tmp_path, mix):
        scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "service_mix": mix}))
        with pytest.raises(ConfigError):
            load_scenario(path)


@pytest.mark.parametrize("load", [load_scenario, load_topology])
def test_binary_file_is_config_error_naming_it(tmp_path, load):
    path = tmp_path / "input.json"
    path.write_bytes(b"\x80\xff\x00 not text")
    with pytest.raises(ConfigError, match="input.json"):
        load(path)


# --- topologies ---------------------------------------------------------------------


class TestTopologyFiles:
    @given(topologies())
    def test_load_of_save_is_identity_and_resave_is_byte_equal(self, topology):
        round_trip(topology, save_topology, load_topology)

    @given(topologies())
    def test_omitted_optional_key_takes_the_default(self, topology):
        for key, default in defaulted(ClusterTopology).items():
            loaded = load_without(topology, key, save_topology, load_topology)
            assert loaded == replace(topology, **{key: default}), key

    @given(topologies())
    def test_file_equals_earlier_writer(self, topology):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "topology.json"
            save_topology(topology, path)
            written = path.read_text()
        assert written == json.dumps(old_topology_to_dict(topology), indent=2) + "\n"

    def test_file_with_a_retired_key_still_loads(self, tmp_path):
        # files written while topologies carried queue_reference
        topology = uniform_topology(node_count=3)
        path = tmp_path / "topology.json"
        path.write_text(json.dumps({**asdict(topology), "queue_reference": 500.0}))
        assert load_topology(path) == topology

    @pytest.mark.parametrize(
        "key", ["nodes", "services", "initial_placement", "initial_quota", "initial_priority"]
    )
    def test_missing_required_key_is_config_error(self, key):
        with pytest.raises(ConfigError, match=key):
            load_without(uniform_topology(node_count=2), key, save_topology, load_topology)


# --- predictor checkpoints ------------------------------------------------------------


def lstm_model() -> ForecastModel:
    config = LstmConfig(hidden_size=3, layers=1, dropout=0.0)
    return ForecastModel(
        params=init_params(config, seed=2),
        config=config,
        scaling=FeatureScaling(volume_scale=40.0, session_minutes=9.0),
        seq_len=4,
        feature_window=6,
        horizon=3,
        residual_quantiles=(-0.5, 0.25),
        ticks_per_day=600,
        market_open_tick=10,
        market_close_tick=590,
    )


def checkpoint_without(tmp_path, key: str, extra: dict | None = None) -> Path:
    """A checkpoint of `lstm_model()` whose meta lacks `key` and adds `extra`."""
    path = tmp_path / "m.npz"
    save_checkpoint(lstm_model(), path)
    params, meta = load_params(path)
    del meta[key]
    save_params(path, params, {**meta, **(extra or {})})
    return path


class TestCheckpointMeta:
    @pytest.mark.parametrize(
        "key", ["residual_quantiles", "ticks_per_day", "market_open_tick", "market_close_tick"]
    )
    def test_omitted_optional_key_takes_the_default(self, tmp_path, key):
        loaded = load_checkpoint(checkpoint_without(tmp_path, key, {"retired": 1}))
        expected = replace(lstm_model(), **{key: defaulted(ForecastModel)[key]})
        for f in fields(ForecastModel):
            if f.init and f.name != "params":
                assert getattr(loaded, f.name) == getattr(expected, f.name), f.name

    @pytest.mark.parametrize("key", ["config", "scaling", "seq_len", "feature_window", "horizon"])
    def test_missing_required_key_is_config_error(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"lacks \\['{key}'\\]"):
            load_checkpoint(checkpoint_without(tmp_path, key))
