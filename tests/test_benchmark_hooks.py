"""The benchmark's hooks into the program, checked without running the
benchmark: every function and method `benchmarks/tracer.py` wraps still exists
where it is looked up, and the benchmark's output check passes on a short
in-process `simulate` run made through those wrappers. A refactor that moves
or renames what the benchmark measures fails here, not only in the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from tradesim.cluster import save_topology, uniform_topology
from tradesim.workload import WorkloadScenario, save_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from tracer import TRACE_POINTS, Patches, Probes, Tracer, _resolve  # noqa: E402
from workloads import check_simulation, run_command, simulated_metrics  # noqa: E402


@pytest.mark.parametrize("name, module, attr", TRACE_POINTS, ids=[f"{m}:{a}" for _, m, a in TRACE_POINTS])
def test_trace_point_resolves(name, module, attr):
    owner, leaf = _resolve(module, attr)
    # a method is wrapped on the class that defines it, as Patches.wrap reads it
    found = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    assert callable(found), f"{name}: {module}.{attr}"


def test_traced_simulate_passes_the_output_check(tmp_path):
    scenario = WorkloadScenario(base_rate=400.0, peak_rate=1200.0, horizon=40, seed=2)
    topology = uniform_topology(
        node_count=2, node_cpu=2000.0, services=scenario.service_mix, quota=0.08
    )
    save_scenario(scenario, tmp_path / "scenario.json")
    save_topology(topology, tmp_path / "topology.json")
    patches, probes, tracer = Patches(), Probes(), Tracer()
    probes.install(patches)
    tracer.install(patches)
    tracer.begin_run("hooks")
    try:
        code, err = run_command([
            "simulate", "--scenario", str(tmp_path / "scenario.json"),
            "--topology", str(tmp_path / "topology.json"), "--scheduler", "threshold-autoscaler",
            "--out", str(tmp_path / "sim"),
        ])
    finally:
        tracer.end_run()
        patches.restore()
    assert code == 0, err
    summary, sim = probes.experiments[-1]
    assert check_simulation(summary, sim) == []
    assert all(np.isfinite(v) for v in simulated_metrics(summary, sim).values())
    assert len(probes.ticks) == scenario.horizon - 1 and len(probes.decides) == 4
    assert tracer.totals["cluster.step_counts"].calls == scenario.horizon
    # only the steps given an action sanitize it: the four decisions (the
    # default interval is 10 ticks); each hold after one finds its
    # configuration settled
    assert tracer.totals["cluster.sanitize_action"].calls == 4
    assert tracer.queue_buckets > 0  # read from sim.queues after each step
