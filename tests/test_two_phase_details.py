"""Additional two-phase network details: slot geometry, arbitration
pipeline constants, and waste accounting under controlled scenarios."""

import pytest

from repro.core.engine import Simulator
from repro.core.units import propagation_ps
from repro.macrochip.config import scaled_config
from repro.networks.base import Packet
from repro.networks.two_phase import ARB_SLOT_PS, TwoPhaseArbitratedNetwork


CFG = scaled_config()


@pytest.fixture
def net(sim):
    return TwoPhaseArbitratedNetwork(CFG, sim)


def test_arbitration_constants_follow_layout(net):
    assert net.request_prop_ps == propagation_ps(CFG.layout.row_span_cm)
    assert net.notify_prop_ps == propagation_ps(CFG.layout.col_span_cm)
    assert ARB_SLOT_PS == 400  # section 4.3: 0.4 ns arbitration slots


def test_slot_duration_rounds_up_to_basic_slots(net):
    # 40 GB/s channel: 16 B = 0.4 ns exactly, 17 B rounds to 0.8 ns
    assert net.slot_duration_ps(16) == ARB_SLOT_PS
    assert net.slot_duration_ps(17) == 2 * ARB_SLOT_PS
    assert net.slot_duration_ps(72) == 2000  # 1.8 ns -> 5 slots


def test_channel_reservation_is_fifo(net, sim):
    """Requests from the same row to one destination get consecutive
    slots in arrival order."""
    packets = [Packet(src, 32, 64) for src in (0, 1, 2)]
    for p in packets:
        net.inject(p)
    sim.run()
    # compare slot-end times (delivery minus each source's flight time)
    ends = [p.t_deliver - net.propagation_ps(p.src, p.dst)
            for p in packets]
    assert ends == sorted(ends)
    assert ends[1] - ends[0] == net.slot_duration_ps(64)
    assert ends[2] - ends[1] == net.slot_duration_ps(64)


def test_waste_counts_are_exclusive(net, sim):
    """granted + wasted == total slot attempts."""
    for src in range(4):
        for dst in (8, 16, 24, 32):
            net.inject(Packet(src, dst, 64))
    sim.run()
    assert net.stats.delivered_packets == 16
    assert net.granted_slots == 16
    attempts = net.granted_slots + net.wasted_slots
    assert attempts >= 16


def test_control_message_uses_one_slot(net, sim):
    p = Packet(0, 8, 8)  # coherence control message
    net.inject(p)
    sim.run()
    overhead = (net.request_prop_ps + ARB_SLOT_PS + net.notify_prop_ps
                + net.switch_setup_ps)
    assert p.t_deliver == overhead + ARB_SLOT_PS + net.propagation_ps(0, 8)


def test_intra_row_destination_also_arbitrates(net, sim):
    """Even a same-row destination goes through the shared channel (the
    topology has no special row-local path)."""
    p = Packet(0, 1, 64)
    net.inject(p)
    sim.run()
    assert p.t_deliver > net.request_prop_ps


def test_reconfig_window_enforced_between_column_switches(net, sim):
    """Consecutive grants to different destinations in one column are
    separated by at least the retuning window."""
    p1 = Packet(0, 8, 64)
    p2 = Packet(0, 16, 64)
    p3 = Packet(0, 8, 64)
    for p in (p1, p2, p3):
        net.inject(p)
    sim.run()
    d1, d2 = sorted([p1.t_deliver, p2.t_deliver])[:2]
    assert d2 - d1 >= net.tree_reconfig_ps


def _tree_grants(sends, trees_per_column=3):
    """Inject ``(time_ps, dst)`` packets from site 0 and return the switch
    tree (the ``/idx`` of its ``tree:0.c/idx`` GRANT) each one used."""
    from repro.core.tracing import GRANT, TraceRecorder

    sim = Simulator()
    net = TwoPhaseArbitratedNetwork(CFG, sim,
                                    trees_per_column=trees_per_column)
    rec = TraceRecorder()
    net.set_tracer(rec)
    packets = []
    for t, dst in sends:
        p = Packet(0, dst, 64)
        packets.append(p)
        sim.at(t, net.inject, p)
    sim.run()
    assert net.wasted_slots == 0
    tree_of = {e.pid: int(e.resource.rsplit("/", 1)[1])
               for e in rec.by_type(GRANT) if e.resource.startswith("tree:")}
    return [tree_of[p.pid] for p in packets]


# sites 1, 9, 17, 25, 33 all sit in column 1: one tree set at site 0
D1, D2, D3, D4 = 1, 9, 17, 25


def test_multi_tree_choice_prefers_configured_then_longest_idle():
    assert _tree_grants([
        (0, D1),       # untouched trees tie: lowest index
        (1000, D2),    # tree 0 is mid-retune for D1: next lowest untouched
        (100000, D1),  # configured tree 0 beats never-used tree 2
        (200000, D3),  # all retunable: never-used tree 2 idled longest
        (300000, D4),  # tree 1 (last used at 1 ns) idled longest
    ]) == [0, 1, 0, 2, 1]


def test_multi_tree_choice_breaks_idle_ties_to_lowest_index():
    # three slots end together, so all three trees idle equally long
    assert _tree_grants([(0, D1), (0, D2), (0, D3), (100000, D4)]) \
        == [0, 1, 2, 0]
