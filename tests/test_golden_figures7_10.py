"""Golden-number regression pins for the Figures 7-10 closed-loop replay.

Two smoke-preset synthetic workloads (one LS, one MS sharing mix) replayed
on all six Figure 7 networks at the paper-scale (8x8) configuration.  The
replay is deterministic — integer picosecond times, seeded trace
synthesis, a fixed event order — so every field below is asserted
*exactly*, including the energy floats (their summation order is the
delivery order, which is pinned too).  Any refactor of the replay state
machine, the message plans, or the networks that moves a single event
fails here.

If a model change is *intentional*, regenerate the table:

    PYTHONPATH=src python - <<'EOF'
    from repro.experiments.evaluation import run_suite
    suite = run_suite("smoke", workloads=["All-to-all", "Transpose-MS"])
    for workload, by_net in suite.results.items():
        for net, r in by_net.items():
            lat = r.op_latency
            print((workload, net, r.runtime_ps, r.ops_completed,
                   r.messages_sent, r.events_dispatched, lat.count,
                   lat.sum_ps, lat.min_ps, lat.max_ps),
                  r.energy_by_category)
    EOF

and update EXPERIMENTS.md if the Figures 7-10 tables moved.
"""

import pytest

from repro.experiments.evaluation import run_suite
from repro.networks.factory import FIGURE7_NETWORKS

WORKLOADS = ["All-to-all", "Transpose-MS"]

#: (workload, network, runtime_ps, ops_completed, messages_sent,
#:  events_dispatched, latency n, latency sum_ps, min_ps, max_ps)
GOLDEN = [
    ("All-to-all", "token_ring", 483900, 5120, 10925, 58591,
     5120, 164413870, 10610, 110455),
    ("All-to-all", "circuit_switched", 2090975, 5120, 10925, 48802,
     5120, 798979350, 37350, 336275),
    ("All-to-all", "point_to_point", 419200, 5120, 10925, 26970,
     5120, 156257200, 18600, 70600),
    ("All-to-all", "limited_point_to_point", 554400, 5120, 10925, 44014,
     5120, 208690400, 6600, 57000),
    ("All-to-all", "two_phase", 1063200, 5120, 10925, 154786,
     5120, 366306000, 17400, 433200),
    ("All-to-all", "two_phase_alt", 573300, 5120, 10925, 70656,
     5120, 190319500, 14000, 178400),
    ("Transpose-MS", "token_ring", 2329455, 5120, 16353, 82315,
     5120, 935314525, 6670, 327345),
    ("Transpose-MS", "circuit_switched", 3565150, 5120, 16353, 68200,
     5120, 1072476625, 12400, 518600),
    ("Transpose-MS", "point_to_point", 1231000, 5120, 16353, 37826,
     5120, 445180000, 12400, 181800),
    ("Transpose-MS", "limited_point_to_point", 596800, 5120, 16353, 64858,
     5120, 223959400, 6600, 62200),
    ("Transpose-MS", "two_phase", 1688600, 5120, 16353, 203629,
     5120, 420538300, 12400, 1260800),
    ("Transpose-MS", "two_phase_alt", 625000, 5120, 16353, 77087,
     5120, 158678500, 12400, 357100),
]

#: energy_by_category per (workload, network), in picojoules
GOLDEN_ENERGY = {
    ("All-to-all", "token_ring"): {"optical": 498009.60000000155},
    ("All-to-all", "circuit_switched"): {"optical": 498009.6000000006},
    ("All-to-all", "point_to_point"): {"optical": 498009.6000000038},
    ("All-to-all", "limited_point_to_point"): {
        "router": 19404480.0, "optical": 886099.2000000051},
    ("All-to-all", "two_phase"): {"optical": 498009.60000000126},
    ("All-to-all", "two_phase_alt"): {"optical": 498009.6000000014},
    ("Transpose-MS", "token_ring"): {"optical": 502531.19999996194},
    ("Transpose-MS", "circuit_switched"): {"optical": 502531.1999999551},
    ("Transpose-MS", "point_to_point"): {"optical": 502531.1999999593},
    ("Transpose-MS", "limited_point_to_point"): {
        "router": 23160960.0, "optical": 965750.3999999302},
    ("Transpose-MS", "two_phase"): {"optical": 502531.1999999499},
    ("Transpose-MS", "two_phase_alt"): {"optical": 502531.19999995356},
}


@pytest.fixture(scope="module")
def suite():
    return run_suite("smoke", workloads=WORKLOADS)


def test_pins_cover_the_figure7_grid():
    assert {(w, n) for w, n, *_ in GOLDEN} == {
        (w, n) for w in WORKLOADS for n in FIGURE7_NETWORKS}
    assert set(GOLDEN_ENERGY) == {(w, n) for w, n, *_ in GOLDEN}


@pytest.mark.parametrize(
    "workload,network,runtime_ps,ops,messages,events,lat_n,lat_sum,"
    "lat_min,lat_max",
    GOLDEN, ids=["%s-%s" % (g[0], g[1]) for g in GOLDEN])
def test_replay_is_pinned(suite, workload, network, runtime_ps, ops,
                          messages, events, lat_n, lat_sum, lat_min,
                          lat_max):
    r = suite.results[workload][network]
    assert r.runtime_ps == runtime_ps
    assert r.ops_completed == ops
    assert r.messages_sent == messages
    assert r.events_dispatched == events
    lat = r.op_latency
    assert (lat.count, lat.sum_ps, lat.min_ps, lat.max_ps) == (
        lat_n, lat_sum, lat_min, lat_max)
    assert r.energy_by_category == GOLDEN_ENERGY[(workload, network)]
