"""Statically-routed WDM point-to-point network (paper section 4.2).

Every site owns a dedicated optical channel to every other site: the
transmitter picks the waveguide leading to the destination column and the
wavelength dropped at the destination site, so there is **no arbitration,
switching, or routing** of any kind.  The price is a narrow data path: in
the scaled Table 4 configuration each site's 128 transmitters are divided
over 64 destinations, giving a 2-wavelength, 5 GB/s channel per pair.

Packets to a given destination queue FIFO on the pair's private channel;
latency is pure serialization + Manhattan propagation + queueing.
"""

from __future__ import annotations

from typing import List, Optional

from .base import Channel, InterSiteNetwork, Packet
from ..core.engine import Simulator
from ..core.vectorized import (KernelOutput, fifo_channel_kernel,
                               register_kernel)
from ..macrochip.config import MacrochipConfig


class PointToPointNetwork(InterSiteNetwork):
    """Fully connected static WDM point-to-point network."""

    name = "Point-to-Point"
    switching_class = "none"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0) -> None:
        super().__init__(config, sim, warmup_ps)
        n = config.num_sites
        # 128 Tx spread over all destinations (incl. the loopback slot the
        # paper's table implies by dividing by 64): floor to whole
        # wavelengths, minimum 1.
        wavelengths = max(1, config.transmitters_per_site // n)
        self.channel_wavelengths = wavelengths
        self.channel_gb_per_s = wavelengths * config.wavelength_gb_per_s
        self._num_sites = n
        # flat src*n+dst channel table, filled on first use: one index
        # per packet on the hot path instead of a tuple-key dict probe
        self._channel_table: List[Optional[Channel]] = [None] * (n * n)

    def channel(self, src: int, dst: int) -> Channel:
        """The dedicated (lazily created) channel for a site pair."""
        idx = src * self._num_sites + dst
        ch = self._channel_table[idx]
        if ch is None:
            ch = self._new_channel(
                self.channel_gb_per_s,
                self.propagation_ps(src, dst),
                name="p2p[%d->%d]" % (src, dst),
            )
            self._channel_table[idx] = ch
        return ch

    def _route(self, packet: Packet) -> None:
        packet.hops = 1
        src = packet.src
        dst = packet.dst
        ch = self._channel_table[src * self._num_sites + dst]
        if ch is None:
            ch = self.channel(src, dst)
        ch.send(packet, self._deliver)


@register_kernel("point_to_point")
def _vectorized_point_to_point(net: PointToPointNetwork, plan) -> KernelOutput:
    """Bulk kernel: per-pair FIFO channels with nothing in front of them
    (:func:`repro.core.vectorized.fifo_channel_kernel`)."""
    return fifo_channel_kernel(net, plan, stage_ps=None)
