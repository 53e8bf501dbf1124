"""Electrical off-chip baseline network (section 1's motivation).

The paper motivates silicon photonics by the shortfall of electrical
inter-chip signaling: off-chip I/O density "dramatically lags that of
on-chip wires, forcing the use of overclocked and high-power serial
links".  This baseline quantifies that comparison inside the same
harness: a fully connected electrical point-to-point network built from
package-level SerDes links with

* far lower per-site bandwidth — pin budgets limit each site to a small
  fraction of the photonic 320 GB/s (default 64 GB/s, an optimistic
  ~2015 package: 64 differential pairs at 8 GT/s per direction);
* SerDes latency at each end (serialization/deserialization pipelines,
  default 10 ns combined, vs the photonic links' pure flight time);
* ~10x worse energy per bit (default 1.5 pJ/bit vs the 150 fJ/bit
  optical budget of Table 1).

It is *not* part of the paper's five-way evaluation; it exists so the
photonic claims ("dramatically reduce the incremental cost of
chip-to-chip bandwidth") can be demonstrated quantitatively — see
``examples/electrical_vs_photonic.py``.
"""

from __future__ import annotations

from typing import List, Optional

from .base import Channel, InterSiteNetwork, Packet
from ..core.engine import Simulator
from ..core.vectorized import (KernelOutput, fifo_channel_kernel,
                               register_kernel)
from ..macrochip.config import MacrochipConfig


#: energy per bit of a package-level electrical serial link (pJ/bit);
#: ~10x the 150 fJ/bit optical budget of Table 1.
ELECTRICAL_ENERGY_PJ_PER_BIT = 1.5
#: signal velocity on package traces, ~0.5c -> 0.066 ns/cm; we keep the
#: optical 0.1 ns/cm figure for fairness (flight time is not the
#: electrical bottleneck).


class ElectricalBaselineNetwork(InterSiteNetwork):
    """Pin-limited electrical point-to-point network."""

    name = "Electrical Baseline"
    switching_class = "none"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 site_bandwidth_gb_per_s: float = 64.0,
                 serdes_latency_ns: float = 10.0) -> None:
        super().__init__(config, sim, warmup_ps)
        if site_bandwidth_gb_per_s <= 0:
            raise ValueError("site bandwidth must be positive")
        n = config.num_sites
        self.site_bandwidth_gb_per_s = site_bandwidth_gb_per_s
        #: per-pair channel: the pin budget divided over all destinations
        #: (a 1-site grid has none: all its traffic is loopback)
        self.channel_gb_per_s = max(site_bandwidth_gb_per_s / max(1, n - 1),
                                    0.001)
        self.serdes_latency_ps = int(serdes_latency_ns * 1000)
        self._num_sites = n
        self._channel_table: List[Optional[Channel]] = [None] * (n * n)

    def channel(self, src: int, dst: int) -> Channel:
        idx = src * self._num_sites + dst
        ch = self._channel_table[idx]
        if ch is None:
            ch = self._new_channel(self.channel_gb_per_s,
                                   self.propagation_ps(src, dst),
                                   name="elec[%d->%d]" % (src, dst))
            self._channel_table[idx] = ch
        return ch

    def _route(self, packet: Packet) -> None:
        packet.hops = 1
        self.sim.schedule(self.serdes_latency_ps, self._start_tx, packet)

    def _start_tx(self, packet: Packet) -> None:
        ch = self._channel_table[packet.src * self._num_sites + packet.dst]
        if ch is None:
            ch = self.channel(packet.src, packet.dst)
        ch.send(packet, self._deliver)

    def _account_optical_energy(self, packet: Packet) -> None:
        self.stats.energy.add(
            "electrical",
            packet.size_bytes * 8 * ELECTRICAL_ENERGY_PJ_PER_BIT)


@register_kernel("electrical_baseline")
def _vectorized_electrical(net: ElectricalBaselineNetwork,
                           plan) -> KernelOutput:
    """Bulk kernel: the point-to-point FIFO channels behind a SerDes
    stage, one ``_start_tx`` heap event per off-site packet
    (:func:`repro.core.vectorized.fifo_channel_kernel`)."""
    return fifo_channel_kernel(net, plan, stage_ps=net.serdes_latency_ps)
