"""Per-layer host-time accounting for the traced benchmark run.

Spans are recorded from outside the library: :func:`instrument` swaps in
wrappers for the functions at each layer boundary (engine scheduling and
dispatch, network injection, statistics, the sweep's draws, the numpy
kernels, the replay and coherence layers) and restores the originals on
exit.  Nothing in ``src/`` is edited, and none of the library's own
observability hooks is used: ``Simulator.trace`` would switch the engine
to its slow dispatch loop, and a ``TraceRecorder`` or
``check_invariants`` would make ``try_run_vectorized`` fall back to the
scalar engine.  Scheduled callbacks are timed by scheduling a dispatcher
that wraps them, so each callback is charged to the layer that defined it.

A span's self time is its duration minus the time of the spans nested in
it.  The root span is the timed section; its self time is the residual
``other_s``.  The self times therefore sum to the root's duration, which
``checks.reconcile`` asserts.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


class LayerError(RuntimeError):
    """The layer map does not cover something the program did."""


class Recorder:
    """Self time per layer plus event counters, from nested spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: child-time accumulator of every open span, root first
        self._children: List[float] = []
        self.wall_s = 0.0
        self.other_s = 0.0

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span charged to ``layer``."""
        children = self._children
        self_s = self.self_s

        def span(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[layer] += duration - children.pop()
                children[-1] += duration

        return span

    def span(self, layer: str, fn: Callable[..., Any], *args, **kwargs):
        """Call ``fn`` inside a span charged to ``layer``."""
        return self.timed(layer, fn)(*args, **kwargs)

    @contextmanager
    def root(self):
        """The timed section: every span must open and close inside it."""
        if self._children:
            raise LayerError("root span opened inside another span")
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_s = perf_counter() - start
            self.other_s = self.wall_s - self._children.pop()
            if self._children:
                raise LayerError("%d span(s) still open at the end of the "
                                 "root span" % len(self._children))


class _Patches:
    """Attribute and mapping-entry replacements, undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def attr(self, owner: Any, name: str, value: Any) -> Any:
        original = getattr(owner, name)
        self._undo.append((owner, name, original, False))
        setattr(owner, name, value)
        return original

    def item(self, mapping: dict, key: str, value: Any) -> Any:
        original = mapping[key]
        self._undo.append((mapping, key, original, True))
        mapping[key] = value
        return original

    def undo(self) -> None:
        while self._undo:
            owner, name, original, is_item = self._undo.pop()
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)


#: callback-defining module prefix -> layer charged with the callback's
#: self time (network callbacks go to the layer of the network that owns
#: the scheduling simulator)
_NETWORK = object()
_CALLBACK_LAYERS = (
    ("repro.networks.", _NETWORK),
    ("repro.core.sweep", "sweep.inject_s"),
    ("repro.workloads.replay", "replay.self_s"),
)


@contextmanager
def instrument(rec: Recorder):
    """Install the layer wrappers for the duration of the block."""
    patches = _Patches()
    try:
        finish = _install(rec, patches)
        yield rec
        finish()
    finally:
        patches.undo()


def _install(rec: Recorder, patches: _Patches) -> Callable[[], None]:
    """Install every wrapper; returns what records the run-level counts."""
    from repro.core import engine, parallel, vectorized
    from repro.core.stats import NetworkStats
    from repro.networks import base, factory

    # the packages re-export functions named after these modules
    sweep = importlib.import_module("repro.core.sweep")
    replay = importlib.import_module("repro.workloads.replay")

    for cls in factory.NETWORK_CLASSES.values():
        if "inject" in vars(cls):
            raise LayerError("%s overrides inject(); extend the layer map"
                             % cls.__name__)

    counts = rec.counts
    children = rec._children
    self_s = rec.self_s
    timed = rec.timed
    net_key = {cls: key for key, cls in factory.NETWORK_CLASSES.items()}
    sim_layer: Dict[Any, str] = {}
    module_layer: Dict[str, Any] = {}

    def classify(sim, fn) -> str:
        module = getattr(fn, "__module__", None) or ""
        layer = module_layer.get(module)
        if layer is None:
            for prefix, target in _CALLBACK_LAYERS:
                if module.startswith(prefix):
                    layer = module_layer[module] = target
                    break
            else:
                raise LayerError("callback %r from unmapped module %r"
                                 % (fn, module))
        if layer is _NETWORK:
            return sim_layer[sim]
        return layer

    def dispatch(layer, fn, *args):
        children.append(0.0)
        start = perf_counter()
        try:
            fn(*args)
        finally:
            duration = perf_counter() - start
            self_s[layer] += duration - children.pop()
            children[-1] += duration

    # -- core.engine --------------------------------------------------------
    # Scheduling calls are counted, not timed: the heap push stays in the
    # caller's layer, which keeps the per-event tracing cost down.
    sim_cls = engine.Simulator
    peak = [0]

    def queued(original):
        def enqueue(sim, when_ps, fn, *args):
            counts["engine.heap_events"] += 1
            original(sim, when_ps, dispatch, classify(sim, fn), fn, *args)
            pending = len(sim._queue) + len(sim._bulk)
            if pending > peak[0]:
                peak[0] = pending

        return enqueue

    o_at_many = sim_cls.at_many
    o_run = sim_cls.run

    def at_many(sim, events):
        n = o_at_many(sim, ((t, dispatch, (classify(sim, fn), fn) + tuple(a))
                            for t, fn, a in events))
        counts["engine.bulk_events"] += n
        peak[0] = max(peak[0], sim.pending())
        return n

    def run(sim, until_ps=None):
        n = o_run(sim, until_ps)
        counts["engine.events"] += n
        return n

    patches.attr(sim_cls, "schedule", queued(sim_cls.schedule))
    patches.attr(sim_cls, "at", queued(sim_cls.at))
    patches.attr(sim_cls, "at_many", at_many)
    patches.attr(sim_cls, "run", timed("engine.self_s", run))

    # -- networks -----------------------------------------------------------
    net_cls = base.InterSiteNetwork
    o_init = net_cls.__init__
    o_inject = net_cls.inject

    def net_init(net, config, sim, *args, **kwargs):
        o_init(net, config, sim, *args, **kwargs)
        sim_layer[sim] = "networks.%s.self_s" % net_key[type(net)]

    def inject(net, packet):
        key = net_key[type(net)]
        counts["networks.%s.injects" % key] += 1
        children.append(0.0)
        start = perf_counter()
        try:
            o_inject(net, packet)
        finally:
            duration = perf_counter() - start
            self_s["networks.%s.self_s" % key] += duration - children.pop()
            children[-1] += duration

    patches.attr(net_cls, "__init__", net_init)
    patches.attr(net_cls, "inject", inject)
    for owner in (factory, replay, sweep):
        patches.attr(owner, "build_network",
                     timed("networks.build_s", owner.build_network))

    # -- core.stats ---------------------------------------------------------
    o_on_deliver = NetworkStats.on_deliver

    def on_deliver(stats, now_ps, inject_ps, size_bytes):
        counts["stats.deliveries"] += 1
        o_on_deliver(stats, now_ps, inject_ps, size_bytes)

    patches.attr(NetworkStats, "on_deliver", timed("stats.self_s", on_deliver))

    # -- core.sweep and the warm-start caches -------------------------------
    patches.attr(sweep, "run_load_point",
                 timed("sweep.self_s", sweep.run_load_point))
    patches.attr(sweep, "_draw_schedules",
                 timed("sweep.draws_s", sweep._draw_schedules))
    o_bank_init = sweep._DrawBank.__init__
    o_get_bank = sweep._get_draw_bank

    def bank_init(bank, *args, **kwargs):
        counts["cache.draw_bank_builds"] += 1
        o_bank_init(bank, *args, **kwargs)

    def get_bank(*args, **kwargs):
        counts["cache.draw_bank_lookups"] += 1
        return o_get_bank(*args, **kwargs)

    patches.attr(sweep._DrawBank, "__init__", bank_init)
    patches.attr(sweep, "_get_draw_bank", get_bank)

    o_ctx_init = parallel.SimContext.__init__

    def ctx_init(ctx, *args, **kwargs):
        counts["cache.context_builds"] += 1
        o_ctx_init(ctx, *args, **kwargs)

    patches.attr(parallel.SimContext, "__init__", ctx_init)
    for owner in (parallel, sweep):
        o_get_context = owner.get_context

        def get_context(*args, _inner=o_get_context, **kwargs):
            counts["cache.context_lookups"] += 1
            return _inner(*args, **kwargs)

        patches.attr(owner, "get_context", get_context)

    o_scratch = vectorized.kernel_scratch

    def kernel_scratch(key):
        counts["cache.scratch_lookups"] += 1
        if key not in vectorized._SCRATCH:
            counts["cache.scratch_builds"] += 1
        return o_scratch(key)

    patches.attr(vectorized, "kernel_scratch", kernel_scratch)

    # -- core.vectorized ----------------------------------------------------
    patches.attr(vectorized, "try_run_vectorized",
                 timed("vectorized.self_s", vectorized.try_run_vectorized))
    patches.attr(vectorized, "_assemble_result",
                 timed("vectorized.assemble_s", vectorized._assemble_result))
    for key, kernel in list(vectorized._KERNELS.items()):
        def counted(*args, _kernel=kernel, **kwargs):
            counts["vectorized.kernel_calls"] += 1
            return _kernel(*args, **kwargs)

        patches.item(vectorized._KERNELS, key,
                     timed("vectorized.%s.kernel_s" % key, counted))

    # -- workloads.replay and cpu.coherence ---------------------------------
    o_plan = replay.message_plan
    plan_inputs = set()

    def message_plan(*args):
        counts["coherence.plan_calls"] += 1
        plan_inputs.add(args)
        return o_plan(*args)

    patches.attr(replay, "message_plan",
                 timed("coherence.plan_s", message_plan))
    patches.attr(replay, "replay", timed("replay.self_s", replay.replay))

    class TracedPacket(base.Packet):
        """A replay packet whose delivery callback is charged to the
        replay layer, although the network's delivery handler calls it."""

        __slots__ = ()

        def __init__(self, src, dst, size_bytes, kind="data",
                     on_delivered=None, pid=None):
            if on_delivered is not None:
                on_delivered = functools.partial(dispatch, "replay.self_s",
                                                 on_delivered)
            base.Packet.__init__(self, src, dst, size_bytes, kind,
                                 on_delivered, pid)

    patches.attr(replay, "Packet", TracedPacket)

    def finish() -> None:
        counts["engine.pending_peak"] = peak[0]
        counts["coherence.plan_distinct"] = len(plan_inputs)

    return finish
