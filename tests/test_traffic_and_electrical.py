"""Tests for traffic characterization and the electrical baseline."""

import pytest

from repro.analysis.traffic import (
    ClassBreakdown,
    TrafficCollector,
    TrafficMatrix,
    collect_traffic,
)
from repro.core.engine import Simulator
from repro.cpu.coherence import CoherenceOp, OpKind
from repro.cpu.trace import CoherenceTrace
from repro.core.sweep import run_load_point
from repro.macrochip.config import grid_config, small_test_config
from repro.networks.base import Packet
from repro.networks.electrical_baseline import ElectricalBaselineNetwork
from repro.networks.point_to_point import PointToPointNetwork
from repro.workloads.synthetic import make_pattern


CFG = small_test_config(4, 4)


def _pkt(src, dst, size, kind="data", t_inject=0, t_deliver=1000):
    p = Packet(src, dst, size, kind=kind)
    p.t_inject = t_inject
    p.t_deliver = t_deliver
    return p


class TestTrafficMatrix:
    def test_records_pairs(self):
        m = TrafficMatrix(16)
        m.record(_pkt(0, 1, 64))
        m.record(_pkt(0, 1, 8))
        m.record(_pkt(2, 3, 72))
        assert m.bytes_between(0, 1) == 72
        assert m.total_bytes == 144
        assert m.total_packets == 3

    def test_marginals(self):
        m = TrafficMatrix(16)
        m.record(_pkt(0, 1, 64))
        m.record(_pkt(0, 2, 64))
        m.record(_pkt(3, 0, 8))
        assert m.egress_bytes(0) == 128
        assert m.ingress_bytes(0) == 8

    def test_intra_site_fraction(self):
        m = TrafficMatrix(16)
        m.record(_pkt(5, 5, 64))
        m.record(_pkt(5, 6, 64))
        assert m.intra_site_fraction() == pytest.approx(0.5)
        assert TrafficMatrix(4).intra_site_fraction() == 0.0

    def test_hotspots_ranked(self):
        m = TrafficMatrix(16)
        m.record(_pkt(0, 1, 64))
        for _ in range(3):
            m.record(_pkt(2, 3, 64))
        assert m.hotspots(1) == [(2, 3, 192)]

    def test_imbalance(self):
        m = TrafficMatrix(4)
        m.record(_pkt(0, 1, 100))
        # one loaded source out of four -> max/mean = 4
        assert m.imbalance() == pytest.approx(4.0)
        assert TrafficMatrix(4).imbalance() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficMatrix(0)


class TestClassBreakdown:
    def test_per_class_stats(self):
        b = ClassBreakdown()
        b.record(_pkt(0, 1, 8, kind="req", t_deliver=2000))
        b.record(_pkt(1, 0, 72, kind="data", t_deliver=5000))
        b.record(_pkt(2, 0, 8, kind="ack", t_deliver=1500))
        assert b.classes() == ["ack", "data", "req"]
        assert b.packets_of("req") == 1
        assert b.bytes_of("data") == 72
        assert b.mean_latency_ns("req") == pytest.approx(2.0)
        assert b.packets_of("missing") == 0

    def test_control_fraction(self):
        b = ClassBreakdown()
        b.record(_pkt(0, 1, 8, kind="req"))
        b.record(_pkt(0, 1, 8, kind="ack"))
        b.record(_pkt(0, 1, 72, kind="data"))
        assert b.control_fraction() == pytest.approx(2 / 3)
        assert ClassBreakdown().control_fraction() == 0.0

    def test_rows(self):
        b = ClassBreakdown()
        b.record(_pkt(0, 1, 8, kind="req"))
        rows = b.rows()
        assert rows[0][0] == "req"
        assert rows[0][1] == 1


class TestCollectTraffic:
    def test_collects_from_replay(self):
        trace = CoherenceTrace("t", CFG.num_cores)
        trace.ops_by_core[0] = [
            CoherenceOp(core=0, gap_cycles=1, kind=OpKind.GET_M,
                        requester=0, home=1, sharers=(2, 3)),
        ]
        collector = collect_traffic(trace, "point_to_point", CFG)
        # req + 2 inv + 2 ack + data = 6 messages
        assert collector.matrix.total_packets == 6
        assert collector.by_class.packets_of("inv") == 2
        assert collector.by_class.control_fraction() > 0.5


class TestElectricalBaseline:
    def test_channel_is_pin_limited(self, sim):
        net = ElectricalBaselineNetwork(CFG, sim)
        # 64 GB/s over 15 destinations
        assert net.channel_gb_per_s == pytest.approx(64.0 / 15.0)

    def test_much_slower_than_photonic_p2p(self):
        def latency(net_cls):
            sim = Simulator()
            net = net_cls(CFG, sim)
            p = Packet(0, 5, 64)
            net.inject(p)
            sim.run()
            return p.t_deliver

        electrical = latency(ElectricalBaselineNetwork)
        photonic = latency(PointToPointNetwork)
        assert electrical > 5 * photonic

    def test_serdes_latency_floor(self, sim):
        net = ElectricalBaselineNetwork(CFG, sim, serdes_latency_ns=10.0)
        p = Packet(0, 1, 64)
        net.inject(p)
        sim.run()
        assert p.t_deliver >= 10_000

    def test_energy_roughly_10x_optical(self, sim):
        net = ElectricalBaselineNetwork(CFG, sim)
        net.inject(Packet(0, 1, 64))
        sim.run()
        electrical_pj = net.stats.energy.get("electrical")
        # optical: 64 B x 8 x 0.15 pJ/bit = 76.8 pJ; electrical 10x
        assert electrical_pj == pytest.approx(768.0)

    def test_invalid_bandwidth(self, sim):
        with pytest.raises(ValueError):
            ElectricalBaselineNetwork(CFG, sim, site_bandwidth_gb_per_s=0)

    @pytest.mark.parametrize("pattern", ["transpose", "neighbor",
                                         "adversarial"])
    def test_single_site_grid_runs_all_loopback_traffic(self, pattern):
        """A 1x1 grid has no destination to divide the pin budget over;
        the network still builds, like every other network, and carries
        its all-loopback traffic on both backends."""
        cfg = grid_config(1, 1)
        ElectricalBaselineNetwork(cfg, Simulator())
        results = [run_load_point("electrical_baseline", cfg,
                                  make_pattern(pattern, cfg.layout), 0.1,
                                  window_ns=50.0, backend=backend)
                   for backend in ("python", "vectorized")]
        assert results[0].delivered_packets == results[0].injected_packets > 0
        assert results[1] == results[0]
