"""Span tracer and timing probes that wrap tradesim's public functions from the
outside, so the program under measurement is left unchanged.

Every wrapper is installed where the name is looked up at call time: a
function imported with ``from .x import f`` is patched in the importing module,
and methods are patched on their classes.

Two kinds of instrumentation live here:

* ``Probes`` are always on. They time the simulate loop's ticks and the
  scheduler's decisions (one ``perf_counter_ns`` per call) and keep references
  to the objects a command builds, so the benchmark can check them. Their
  ``SpeedSampler`` samples the machine's speed while a repetition or a setup
  probe runs (see ``CAL_EVERY_S``).
* ``Tracer`` is on only in traced runs. It records a span per call (name,
  start, end, parent span, run id) and the self time of each span, that is its
  duration minus the time its child calls cover. Names called more than about
  10^4 times per run are aggregated per (parent, name) pair instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (metric name, module, attribute path): one entry per lookup site.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("workload.generate_tick_counts", "tradesim.cli", "generate_tick_counts"),
    ("workload.generate_tick_counts", "tradesim.hybrid", "generate_tick_counts"),
    ("workload.generate_tick_counts", "tradesim.drl.env", "generate_tick_counts"),
    ("workload.extract_features", "tradesim.lstm", "extract_features"),
    ("cluster.step_counts", "tradesim.cluster", "ClusterSim.step_counts"),
    ("cluster.sanitize_action", "tradesim.cluster", "ClusterSim.sanitize_action"),
    ("cache.get", "tradesim.cache", "TieredCache.get"),
    ("cache.put", "tradesim.cache", "TieredCache.put"),
    ("cache.on_tick", "tradesim.cache", "ZipfAccessDriver.on_tick"),
    ("hybrid.hybrid_scheduling", "tradesim.baselines", "hybrid_scheduling"),
    ("hybrid.metrics", "tradesim.hybrid", "RolloutEvaluator.metrics"),
    ("hybrid.rl_refine", "tradesim.hybrid", "rl_refine"),
    ("hybrid.local_search", "tradesim.hybrid", "local_search"),
    ("drl.env_step", "tradesim.drl.env", "DecisionEnv.step"),
    ("drl.act", "tradesim.drl.policy", "PolicyCore.act"),
    ("drl.ppo_loss", "tradesim.drl.ppo", "ppo_loss"),
    ("drl.update", "tradesim.drl.ppo", "PPOTrainer._update"),
    ("lstm.forward", "tradesim.lstm", "forward"),
    ("lstm.loss_and_gradients", "tradesim.lstm", "loss_and_gradients"),
    ("lstm.train", "tradesim.cli", "train"),
    ("lstm.build_dataset", "tradesim.cli", "build_dataset"),
    ("lstm.predict_and_warn", "tradesim.lstm", "ForecastModel.predict_and_warn"),
    ("optim.adam_step", "tradesim.lstm", "adam_step"),
    ("optim.adam_step", "tradesim.hybrid", "adam_step"),
    ("optim.adam_step", "tradesim.drl.ppo", "adam_step"),
    ("report.weighted_percentile", "tradesim.cli", "weighted_percentile"),
    ("report.save_summary", "tradesim.cli", "save_summary"),
    ("cli.run_experiment", "tradesim.cli", "run_experiment"),
    ("cli.write_trace_csv", "tradesim.cli", "write_trace_csv"),
    ("sched.decide", "tradesim.baselines", "ThresholdAutoscaler.decide"),
    ("sched.decide", "tradesim.baselines", "HybridScheduler.decide"),
    ("sched.decide", "tradesim.baselines", "DrlScheduler.decide"),
)

# The benchmark opens this span around each CLI command it runs.
COMMAND_SPAN = "cli.command"

TRACED_NAMES: tuple[str, ...] = tuple(dict.fromkeys(n for n, _, _ in TRACE_POINTS)) + (
    COMMAND_SPAN,
)

# Called more than ~10^4 times per run: counted per (parent, name), no spans.
AGGREGATED = frozenset(
    {
        "cache.get",
        "cache.put",
        "workload.extract_features",
        "cluster.step_counts",
        "cluster.sanitize_action",
    }
)

SCHEDULER_CLASSES = ("ThresholdAutoscaler", "HybridScheduler", "DrlScheduler")


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name) for a 'Class.method' or plain function path."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Installed wrappers, undone in reverse order by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, attr_path: str, make_wrapper) -> None:
        owner, attr = _resolve(module_name, attr_path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --- always-on probes ------------------------------------------------------------

# Speed sampling. The machines this runs on are shared, and their speed drifts
# by up to 2x in stretches of 20-200 ms (another tenant on the same core). A
# SIGALRM timer fires every CAL_EVERY_S of host time, whatever code is running,
# and its handler times a fixed ~0.3 ms loop of small numpy operations and
# Python arithmetic. Each sample gives a scale, (CAL_REF_NS / its time) **
# CAL_EXPONENT, and a timed interval, with the loops' own time taken out, is
# multiplied by the mean scale of the samples taken within it: the host time it
# would have taken at the reference speed. CAL_REF_NS is about the loop's time
# in the fast stretches of a 2-vCPU Intel Xeon VM. The loop slows more under
# contention than the workloads do, so full scaling (exponent 1) over-corrects;
# benchmarks/README.md has the measurements behind CAL_EXPONENT.
CAL_ITERATIONS = 150
CAL_REF_NS = 281_000
CAL_EVERY_S = 0.005
CAL_EXPONENT = 0.85
MIN_SAMPLES = 10  # a timed stretch with fewer samples cannot be scaled

_CAL_ARRAY = np.arange(16.0)


def calibration_ns() -> int:
    """Host nanoseconds of one pass of the fixed calibration loop."""
    total = 0.0
    started = time.perf_counter_ns()
    for i in range(CAL_ITERATIONS):
        total += float((_CAL_ARRAY * i).sum())
    return time.perf_counter_ns() - started


class SpeedSampler:
    """Calibration samples taken from a SIGALRM handler while started."""

    def __init__(self) -> None:
        self.cal_ns: list[int] = []
        self.total_ns = 0  # host time spent in the handler

    def _sample(self, signum, frame) -> None:
        spent = calibration_ns()
        self.cal_ns.append(spent)
        self.total_ns += spent

    def start(self) -> None:
        self.cal_ns.clear()
        self.total_ns = 0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scales(self) -> list[float]:
        return [(CAL_REF_NS / ns) ** CAL_EXPONENT for ns in self.cal_ns]


def interval_scale(scales: list[float], first: int, end: int) -> float:
    """Mean scale of samples ``first:end``, the ones taken within an interval;
    for an interval shorter than the sampling period, the nearest sample before
    it (after it, at the very start)."""
    if end > first:
        return sum(scales[first:end]) / (end - first)
    return scales[first - 1] if first > 0 else scales[0]


@dataclass
class Probes:
    """Tick and decision timings of the simulate loop, speed samples, and the
    objects that commands create, captured for the correctness gate.

    A timed interval is (host ns without the calibration loops run inside it,
    index of its first speed sample, index past its last one)."""

    sampler: SpeedSampler = field(default_factory=SpeedSampler)
    ticks: list[tuple[int, int, int]] = field(default_factory=list)
    decides: list[tuple[int, int, int]] = field(default_factory=list)
    experiments: list[tuple] = field(default_factory=list)  # (summary, sim) per simulate
    drivers: list = field(default_factory=list)  # ZipfAccessDriver per simulate
    _in_loop: bool = False
    _last_tick: tuple[int, int, int] | None = None  # mark() at the last tick

    def reset(self) -> None:
        self.ticks.clear()
        self.decides.clear()
        self.experiments.clear()
        self.drivers.clear()

    def mark(self) -> tuple[int, int, int]:
        return time.perf_counter_ns(), self.sampler.total_ns, len(self.sampler.cal_ns)

    def since(self, mark: tuple[int, int, int]) -> tuple[int, int, int]:
        """The interval from ``mark`` to now."""
        now, cal_now, samples = self.mark()
        then, cal_then, first = mark
        return now - then - (cal_now - cal_then), first, samples

    def install(self, patches: Patches) -> None:
        probes = self

        def run_experiment(original):
            @functools.wraps(original)
            def wrapper(config):
                probes._in_loop, probes._last_tick = True, None
                try:
                    result = original(config)
                finally:
                    probes._in_loop = False
                probes.experiments.append(result)
                return result

            return wrapper

        def tick(original):
            # One interval per pair of consecutive simulate-loop ticks: the host
            # time of a whole loop iteration (decision, step, cache, history).
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if probes._in_loop:
                    if probes._last_tick is not None:
                        probes.ticks.append(probes.since(probes._last_tick))
                    probes._last_tick = probes.mark()
                return original(*args, **kwargs)

            return wrapper

        def decide(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                started = probes.mark()
                result = original(*args, **kwargs)
                probes.decides.append(probes.since(started))
                return result

            return wrapper

        def driver_init(original):
            @functools.wraps(original)
            def wrapper(self, *args, **kwargs):
                original(self, *args, **kwargs)
                probes.drivers.append(self)

            return wrapper

        patches.wrap("tradesim.cli", "run_experiment", run_experiment)
        patches.wrap("tradesim.cli", "generate_tick_counts", tick)
        for cls in SCHEDULER_CLASSES:
            patches.wrap("tradesim.baselines", f"{cls}.decide", decide)
        patches.wrap("tradesim.cache", "ZipfAccessDriver.__init__", driver_init)


# --- tracer ----------------------------------------------------------------------


@dataclass
class _Frame:
    name: str
    span_id: int
    start: int
    child_ns: int = 0
    child_calls: int = 0


@dataclass
class Totals:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0

    def add(self, busy: int, self_: int, calls: int = 1) -> None:
        self.calls += calls
        self.busy_ns += busy
        self.self_ns += self_


class Tracer:
    """Span recorder; ``enabled`` gates recording so wrappers can stay
    installed across untraced and traced repetitions of a run."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock  # host ns; the benchmark's leaves out its speed sampling
        self.enabled = False
        self.run_id = ""
        self.spans: list[tuple] = []  # (name, start, end, parent, run id, self ns)
        self.totals: dict[str, Totals] = {}
        self.pair_totals: dict[tuple[str, str], Totals] = {}
        self.aggregates: list[dict] = []  # per-run pair totals, written with the spans
        self.rollouts = 0  # hybrid.metrics calls that ran step_counts children
        self.queue_buckets = 0  # FIFO buckets summed over step_counts calls
        self.hybrid_results: list = []
        self._stack: list[_Frame] = []
        self._next_id = 1

    def begin_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.totals = {}
        self.pair_totals = {}
        self.rollouts = 0
        self.queue_buckets = 0
        self.hybrid_results = []
        self.enabled = True

    def end_run(self) -> None:
        self.enabled = False
        self.aggregates += [
            {"aggregate": name, "parent_name": parent, "run": self.run_id,
             "calls": tot.calls, "busy_ns": tot.busy_ns, "self_ns": tot.self_ns}
            for (parent, name), tot in sorted(self.pair_totals.items())
        ]

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, self._next_id, self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = self.clock()
        self._stack.pop()
        busy = end - frame.start
        self_ns = busy - frame.child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += busy
            parent.child_calls += 1
        self.totals.setdefault(frame.name, Totals()).add(busy, self_ns)
        parent_name = parent.name if parent is not None else ""
        if frame.name in AGGREGATED:
            self.pair_totals.setdefault((parent_name, frame.name), Totals()).add(busy, self_ns)
        else:
            self.spans.append(
                (frame.name, frame.start, end, parent.span_id if parent else 0, self.run_id, self_ns)
            )
        if frame.name == "hybrid.metrics" and frame.child_calls:
            self.rollouts += 1

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter(name) if tracer.enabled else None

            def __exit__(self, *exc):
                if self.frame is not None:
                    tracer._exit(self.frame)
                return False

        return _Span()

    def install(self, patches: Patches) -> None:
        tracer = self

        def make(name: str):
            def factory(original):
                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    if not tracer.enabled:
                        return original(*args, **kwargs)
                    frame = tracer._enter(name)
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        tracer._exit(frame)
                    if name == "cluster.step_counts":
                        tracer.queue_buckets += sum(len(q) for q in args[0].queues)
                    elif name == "hybrid.hybrid_scheduling":
                        tracer.hybrid_results.append(result)
                    return result

                return wrapper

            return factory

        for name, module, attr in TRACE_POINTS:
            patches.wrap(module, attr, make(name))

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, self_ns in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                         "run": run_id, "self_ns": self_ns}
                    )
                    + "\n"
                )
            for record in self.aggregates:
                fh.write(json.dumps(record) + "\n")
