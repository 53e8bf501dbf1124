"""Closed-loop replay of a coherence trace on a network.

Each core issues its coherence operations in order, separated by its
recorded compute gaps, and **stalls** until the operation's network
message plan completes (in-order cores, section 3).  Writebacks are
fire-and-forget.  A site's outstanding operations are bounded by its
MSHRs (section 5: "We model finite MSHRs").

The replay produces the three quantities Figures 7, 8, and 10 are built
from: execution time (speedups), mean latency per coherence operation,
and network energy (optical transceiver + electronic router dynamic
energy from the network's own accounting, plus static laser power applied
over the runtime by :mod:`repro.analysis.edp`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.engine import Simulator
from ..core.stats import LatencySample
from ..cpu.coherence import CoherenceOp, MessageStep, OpKind, message_plan
from ..cpu.trace import CoherenceTrace
from ..macrochip.config import MacrochipConfig
from ..networks.base import Packet
from ..networks.factory import build_network


@dataclass
class ReplayResult:
    """Outcome of one (workload, network) closed-loop run."""

    network: str
    workload: str
    runtime_ps: int
    ops_completed: int
    messages_sent: int
    op_latency: LatencySample
    energy_by_category: Dict[str, float]
    #: simulator events dispatched (deterministic; used for telemetry)
    events_dispatched: int = 0

    @property
    def runtime_ns(self) -> float:
        return self.runtime_ps / 1000.0

    @property
    def mean_op_latency_ns(self) -> float:
        return self.op_latency.mean_ns

    @property
    def dynamic_energy_pj(self) -> float:
        return sum(self.energy_by_category.values())


class _OpRun:
    """One issued op: its core's op list and position in it, its message
    plan, and how many completing steps are still in flight."""

    __slots__ = ("ops", "index", "op", "steps", "issued_ps", "remaining",
                 "stalls")

    def __init__(self, ops: List[CoherenceOp], index: int,
                 steps: List[MessageStep], issued_ps: int) -> None:
        self.ops = ops
        self.index = index
        self.op = ops[index]
        self.steps = steps
        self.issued_ps = issued_ps
        self.remaining = 0
        # writebacks are fire-and-forget: the core does not wait
        self.stalls = self.op.kind is not OpKind.WRITEBACK


class TraceReplayer:
    """Drives a coherence trace through one network, closed-loop.

    Each issued op is one :class:`_OpRun`.  Each message is one
    :class:`Packet` whose per-run ``pid`` (0, 1, ...) maps back to its
    ``(run, step index)`` until delivery; no closure is built per op or
    per message.
    """

    def __init__(self, trace: CoherenceTrace, network_name: str,
                 config: MacrochipConfig,
                 network_kwargs: Optional[dict] = None) -> None:
        self.trace = trace
        self.config = config
        self.sim = Simulator()
        self.network = build_network(network_name, config, self.sim,
                                     **(network_kwargs or {}))
        self._op_latency = LatencySample()
        self._cycle_ps = config.cycle_ps
        self._plan_args = (config.control_message_bytes,
                           config.data_message_bytes,
                           config.directory_latency_cycles,
                           config.memory_latency_cycles)
        self._mshrs_free = [config.mshrs_per_site] * config.num_sites
        self._mshr_waiters: List[Deque[Tuple[List[CoherenceOp], int]]] = [
            deque() for _ in range(config.num_sites)]
        #: next packet id, which is also the count of messages sent
        self._next_pid = 0
        self._in_flight: Dict[int, Tuple[_OpRun, int]] = {}
        # bound once, not once per packet
        self._on_delivered = self._delivered

    def run(self) -> ReplayResult:
        for ops in self.trace.ops_by_core:
            if ops:
                self.sim.at(ops[0].gap_cycles * self._cycle_ps, self._issue,
                            ops, 0)
        events = self.sim.run()
        return ReplayResult(
            network=self.network.name,
            workload=self.trace.workload,
            runtime_ps=self.sim.now,
            ops_completed=len(self._op_latency),
            messages_sent=self._next_pid,
            op_latency=self._op_latency,
            energy_by_category=self.network.stats.energy.categories(),
            events_dispatched=events,
        )

    def _issue(self, ops: List[CoherenceOp], index: int) -> None:
        op = ops[index]
        site = op.requester
        if self._mshrs_free[site] == 0:
            self._mshr_waiters[site].append((ops, index))
            return
        self._mshrs_free[site] -= 1
        now = self.sim.now
        run = _OpRun(ops, index, message_plan(op, *self._plan_args), now)
        for step_index, step in enumerate(run.steps):
            if step.completes:
                run.remaining += 1
            if step.depends_on is None:
                self.sim.at(now, self._inject, run, step_index)
        if not run.stalls:
            self._op_done(run)

    def _op_done(self, run: _OpRun) -> None:
        if run.stalls:
            # writebacks are excluded from the latency-per-coherence-
            # operation metric (Figure 8)
            self._op_latency.add(self.sim.now - run.issued_ps)
        site = run.op.requester
        self._mshrs_free[site] += 1
        waiters = self._mshr_waiters[site]
        if waiters:
            self.sim.schedule(0, self._issue, *waiters.popleft())
        ops, index = run.ops, run.index + 1
        if index < len(ops):
            self.sim.schedule(ops[index].gap_cycles * self._cycle_ps,
                              self._issue, ops, index)

    def _inject(self, run: _OpRun, index: int) -> None:
        step = run.steps[index]
        pid = self._next_pid
        self._next_pid = pid + 1
        self._in_flight[pid] = (run, index)
        self.network.inject(Packet(step.src, step.dst, step.size_bytes,
                                   kind=step.kind,
                                   on_delivered=self._on_delivered,
                                   pid=pid))

    def _delivered(self, packet: Packet) -> None:
        run, index = self._in_flight.pop(packet.pid)
        steps = run.steps
        if run.stalls and steps[index].completes:
            run.remaining -= 1
            if run.remaining == 0:
                self._op_done(run)
        for dep_index, step in enumerate(steps):
            if step.depends_on == index:
                self.sim.schedule(step.extra_delay_cycles * self._cycle_ps,
                                  self._inject, run, dep_index)


def replay(trace: CoherenceTrace, network_name: str,
           config: MacrochipConfig,
           network_kwargs: Optional[dict] = None) -> ReplayResult:
    """Convenience one-shot replay."""
    return TraceReplayer(trace, network_name, config,
                         network_kwargs).run()
