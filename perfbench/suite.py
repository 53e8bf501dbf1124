"""The benchmark's workloads: set-up, one timed pass, and the checks on
every item a pass produces.

A pass regenerates one paper artifact from cold process caches, driving
the library only through its public entry points: the Figure 6 grid as
``run_figure6`` builds it (``run_load_point`` shards on ``run_sharded``),
and the Figures 7-10 grid as ``run_suite`` builds it (``replay`` shards
on ``run_sharded``, traces from ``generate_trace`` and
``generate_synthetic_trace``).  ``run_figure6`` and ``run_suite`` take no
seed, so the shard lists are rebuilt here with the seed passed in.
"""

from __future__ import annotations

import gc
import importlib
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.core import interning, parallel, vectorized
from repro.core.parallel import Shard, ShardError
from repro.cpu.coherence import OpKind
from repro.cpu.system import generate_trace
from repro.experiments.evaluation import SuiteResult
from repro.experiments.figure6 import LOAD_GRIDS, PANEL_ORDER, Figure6Result
from repro.experiments.figures7_10 import (figure7_speedups,
                                           figure8_latencies,
                                           figure9_router_fractions,
                                           figure10_edp)
from repro.macrochip.config import scaled_config
from repro.networks.factory import FIGURE6_NETWORKS, FIGURE7_NETWORKS
from repro.workloads.kernels import BlackscholesKernel
from repro.workloads.sharing import mix_by_name
from repro.workloads.synthetic import make_pattern
from repro.workloads.synthetic_coherence import (SyntheticCoherenceSpec,
                                                 generate_synthetic_trace)

import checks

# the packages re-export functions named after these modules
sweep = importlib.import_module("repro.core.sweep")
replay_mod = importlib.import_module("repro.workloads.replay")

#: library defaults that benchmark seed 0 reproduces: run_load_point's
#: seed, and the synthetic coherence spec's seed (each kernel class
#: carries its own default seed)
LOAD_POINT_SEED = 12345
SYNTHETIC_SEED = 2010

#: injection window per load point for each backend, sized so one pass
#: over the 205-point grid takes a few seconds on a 2-core host
FIG6_WINDOW_NS = {"python": 50.0, "vectorized": 150.0}

#: replay trace sizes: below the smoke preset (120 refs per core, 10
#: synthetic ops per core) so that one pass of 18 replays takes a few
#: seconds; both synthetic mixes keep their relative message counts
KERNEL_REFS_PER_CORE = 40
SYNTHETIC_OPS_PER_CORE = 4
#: (name, pattern key, sharing mix) of the synthetic traces replayed
SYNTHETIC_TRACES = (("All-to-all", "uniform", "LS"),
                    ("Transpose-MS", "transpose", "MS"))

Span = Callable[..., Any]


def untraced(layer: str, fn: Callable[..., Any], *args, **kwargs):
    """The span hook of an untraced pass: just the call."""
    return fn(*args, **kwargs)


def cold_start() -> None:
    """Empty every process cache a pass fills, as in a fresh process."""
    parallel.clear_contexts()
    sweep.clear_draw_banks()
    vectorized.clear_kernel_scratch()
    interning.clear_interned()
    gc.collect()


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _VectorProbe:
    """Counts ``try_run_vectorized`` calls and scalar fallbacks in this
    process, so each load point can report which backend answered it."""

    def __init__(self) -> None:
        self.calls = 0
        self.fallbacks = 0
        self._inner = vectorized.try_run_vectorized

    def __call__(self, *args, **kwargs):
        self.calls += 1
        result = self._inner(*args, **kwargs)
        if result is None:
            self.fallbacks += 1
        return result


def _probe() -> _VectorProbe:
    probe = vectorized.try_run_vectorized
    if not isinstance(probe, _VectorProbe):
        probe = vectorized.try_run_vectorized = _VectorProbe()
    return probe


class PointOutcome(NamedTuple):
    """One load point's result plus which backend answered it."""

    result: Any
    kernel_calls: int
    fallbacks: int


def load_point(network: str, config, pattern, fraction: float,
               **kwargs) -> PointOutcome:
    """Shard body: one ``run_load_point`` call, with the backend check's
    counters."""
    probe = _probe()
    calls, fallbacks = probe.calls, probe.fallbacks
    result = sweep.run_load_point(network, config, pattern, fraction,
                                  **kwargs)
    return PointOutcome(result, probe.calls - calls,
                        probe.fallbacks - fallbacks)


@dataclass
class PassOutcome:
    """Everything one pass produced, keyed by item."""

    keys: List[str]
    run: parallel.ShardedRun
    #: item time in seconds, by item index
    item_s: List[float] = field(default_factory=list)


@dataclass
class PassCheck:
    """One pass's digests, failures and counts."""

    digests: Dict[str, str]
    #: item key -> why it failed
    failed: Dict[str, str]
    events: int
    peak_rss_kb: int
    kernel_calls: int = 0
    fallbacks: int = 0
    replay_ops: int = 0
    replay_messages: int = 0


class Workload:
    """Common pass driver; subclasses build shards and check results."""

    name = ""
    grid = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def build(self, state) -> tuple:
        """``(keys, shards, cost_key)`` of one pass."""
        raise NotImplementedError

    def collate(self, state, keys: List[str], results: List[Any]) -> None:
        """Assemble the artifact the way its experiment driver does."""
        raise NotImplementedError

    def check_item(self, state, key: str, value,
                   check: "PassCheck") -> Optional[str]:
        """Why the item failed an invariant, or None; adds the item's
        counts to ``check``."""
        raise NotImplementedError

    def digest(self, value) -> str:
        raise NotImplementedError

    def events(self, value) -> int:
        """Simulated events the item dispatched."""
        raise NotImplementedError

    def run_pass(self, state, span: Span = untraced) -> PassOutcome:
        keys, shards, cost_key = self.build(state)
        run = span("parallel.self_s", parallel.run_sharded, shards,
                   workers=1, cost_key=cost_key,
                   on_error="collect")
        self.collate(state, keys, run.results)
        item_s = [0.0] * len(shards)
        for report in run.reports:
            item_s[report.index] = report.wall_clock_s
        return PassOutcome(keys, run, item_s)

    def check_pass(self, state, outcome: PassOutcome,
                   expected: Optional[Dict[str, str]]) -> PassCheck:
        """Digest every item and record why each failed one failed: it
        raised, broke an invariant, or its digest differs from
        ``expected`` (None: nothing to compare with)."""
        check = PassCheck({}, {}, 0, max_rss_kb())
        for key, value in zip(outcome.keys, outcome.run.results):
            if isinstance(value, ShardError):
                check.failed[key] = str(value)
                continue
            problem = self.check_item(state, key, value, check)
            if problem:
                check.failed[key] = problem
            check.digests[key] = self.digest(value)
            check.events += self.events(value)
        for key in checks.digest_mismatches(check.digests, expected):
            check.failed.setdefault(key, "result digest differs from the "
                                         "reference")
        return check


@dataclass
class Fig6State:
    config: Any
    patterns: Dict[str, Any]
    seed: int
    window_ns: float


class Fig6(Workload):
    """The Figure 6 grid: PANEL_ORDER x FIGURE6_NETWORKS x LOAD_GRIDS."""

    def __init__(self, name: str, backend: str) -> None:
        self.name = name
        self.backend = backend
        self.window_ns = FIG6_WINDOW_NS[backend]
        self.grid = "fig6@%gns" % self.window_ns

    def setup(self, seed: int) -> Fig6State:
        if self.backend == "vectorized":
            vectorized.require_numpy()
            missing = sorted(set(FIGURE6_NETWORKS)
                             - set(vectorized.vectorized_networks()))
            if missing:
                raise SystemExit("%s: no vectorized kernel for %s"
                                 % (self.name, ", ".join(missing)))
        _probe()
        config = scaled_config()
        patterns = {key: make_pattern(key, config.layout)
                    for key in PANEL_ORDER}
        return Fig6State(config, patterns, LOAD_POINT_SEED + seed,
                         self.window_ns)

    def build(self, state: Fig6State) -> tuple:
        keys, shards = [], []
        for pattern_key in PANEL_ORDER:
            pattern = state.patterns[pattern_key]
            for net in FIGURE6_NETWORKS:
                for fraction in LOAD_GRIDS[pattern_key]:
                    keys.append("%s/%s/%r" % (pattern_key, net, fraction))
                    shards.append(Shard(
                        load_point, args=(net, state.config, pattern,
                                          fraction),
                        kwargs=dict(window_ns=state.window_ns,
                                    rng_block=256, warm=True,
                                    backend=self.backend, seed=state.seed),
                        label="figure6 %s/%s @%.3f"
                              % (pattern_key, net, fraction)))
        return keys, shards, lambda shard: shard.args[3]

    def collate(self, state: Fig6State, keys, results) -> None:
        figure = Figure6Result(window_ns=state.window_ns)
        for key, value in zip(keys, results):
            pattern_key, net, _ = key.split("/")
            curve = figure.curves.setdefault(pattern_key, {}).setdefault(
                net, [])
            if isinstance(value, ShardError):
                figure.failures.append(value)
                continue
            curve.append(sweep.to_sweep_point(value.result, state.config))
            figure.total_events += value.result.events_dispatched
        figure.load_points = len(keys)
        figure.saturation_table()

    def check_item(self, state, key, value: PointOutcome,
                   check: PassCheck) -> Optional[str]:
        check.kernel_calls += value.kernel_calls
        check.fallbacks += value.fallbacks
        result = value.result
        expect_calls = 1 if self.backend == "vectorized" else 0
        if value.kernel_calls != expect_calls or value.fallbacks:
            return ("ran the %s backend, %s was requested"
                    % ("python" if self.backend == "vectorized"
                       else "vectorized", self.backend))
        if result.delivered_packets > result.injected_packets:
            return "delivered %d > injected %d" % (
                result.delivered_packets, result.injected_packets)
        return None

    def digest(self, value: PointOutcome) -> str:
        return checks.load_point_digest(value.result)

    def events(self, value: PointOutcome) -> int:
        return value.result.events_dispatched


@dataclass
class ReplayState:
    config: Any
    traces: List[Any]
    #: non-writeback ops per trace: what a replay must complete
    expected_ops: Dict[str, int]
    build_s: float
    trace_ops: int


class ReplayCoherence(Workload):
    """Closed-loop Figures 7-10 replay of application and synthetic
    coherence traces on the six FIGURE7_NETWORKS."""

    name = "replay-coh"
    grid = "replay"

    def setup(self, seed: int) -> ReplayState:
        config = scaled_config()
        start = perf_counter()
        kernel = BlackscholesKernel(refs_per_core=KERNEL_REFS_PER_CORE,
                                    seed=BlackscholesKernel.seed + seed)
        traces = [generate_trace(kernel, config)]
        for name, pattern_key, mix in SYNTHETIC_TRACES:
            spec = SyntheticCoherenceSpec(
                name, ops_per_core=SYNTHETIC_OPS_PER_CORE,
                seed=SYNTHETIC_SEED + seed)
            trace = generate_synthetic_trace(
                spec, make_pattern(pattern_key, config.layout),
                mix_by_name(mix), config)
            trace.workload = name
            traces.append(trace)
        build_s = perf_counter() - start
        expected = {}
        total = 0
        for trace in traces:
            ops = [op for core in trace.ops_by_core for op in core]
            total += len(ops)
            expected[trace.workload] = sum(
                1 for op in ops if op.kind is not OpKind.WRITEBACK)
        return ReplayState(config, traces, expected, build_s, total)

    def build(self, state: ReplayState) -> tuple:
        keys, shards = [], []
        for trace in state.traces:
            for net in FIGURE7_NETWORKS:
                keys.append("%s/%s" % (trace.workload, net))
                shards.append(Shard(replay_mod.replay,
                                    args=(trace, net, state.config),
                                    label="replay %s on %s"
                                          % (trace.workload, net)))
        return keys, shards, None

    def collate(self, state: ReplayState, keys, results) -> None:
        suite = SuiteResult(preset="perfbench", config=state.config,
                            traces={t.workload: t for t in state.traces})
        for key, value in zip(keys, results):
            if isinstance(value, ShardError):
                suite.failures.append(value)
                continue
            workload, net = key.split("/")
            suite.results.setdefault(workload, {})[net] = value
        if not suite.failures:
            figure7_speedups(suite)
            figure8_latencies(suite)
            figure9_router_fractions(suite)
            figure10_edp(suite)

    def check_item(self, state, key, value,
                   check: PassCheck) -> Optional[str]:
        check.replay_ops += value.ops_completed
        check.replay_messages += value.messages_sent
        expected = state.expected_ops[value.workload]
        if value.ops_completed != expected:
            return "completed %d ops, the trace has %d" % (
                value.ops_completed, expected)
        return None

    def digest(self, value) -> str:
        return checks.replay_digest(value)

    def events(self, value) -> int:
        return value.events_dispatched


#: workload name -> workload, in the order BENCHMARK.json lists them;
#: BENCHMARK.json and README.md give the reason for each
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Fig6("fig6-scalar", "python"),
    Fig6("fig6-vector", "vectorized"),
    ReplayCoherence(),
)}
