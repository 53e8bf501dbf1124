"""Tests for the closed-loop coherence trace replay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.coherence import CoherenceOp, OpKind, message_plan
from repro.cpu.trace import CoherenceTrace
from repro.macrochip.config import small_test_config
from repro.networks.factory import FIGURE7_NETWORKS
from repro.workloads.replay import TraceReplayer, replay


@pytest.fixture
def cfg():
    return small_test_config(2, 2)


def make_trace(cfg, ops_by_core):
    trace = CoherenceTrace("unit", cfg.num_cores)
    for core, ops in ops_by_core.items():
        trace.ops_by_core[core] = ops
    return trace


def gets(core, requester, home, gap=10, owner=None):
    return CoherenceOp(core=core, gap_cycles=gap, kind=OpKind.GET_S,
                       requester=requester, home=home, owner=owner)


def getm(core, requester, home, sharers=(), gap=10):
    return CoherenceOp(core=core, gap_cycles=gap, kind=OpKind.GET_M,
                       requester=requester, home=home, sharers=sharers)


def test_single_gets_latency(cfg):
    """One GetS: request + directory + memory + data response."""
    trace = make_trace(cfg, {0: [gets(0, 0, 1)]})
    result = replay(trace, "point_to_point", cfg)
    assert result.ops_completed == 1
    assert result.messages_sent == 2
    # lower bound: the directory + memory processing alone
    min_ns = (cfg.directory_latency_cycles
              + cfg.memory_latency_cycles) * 0.2
    assert result.mean_op_latency_ns >= min_ns


def test_cache_to_cache_has_three_messages(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 1, owner=2)]})
    result = replay(trace, "point_to_point", cfg)
    assert result.messages_sent == 3


def test_getm_with_sharers_counts_messages(cfg):
    trace = make_trace(cfg, {0: [getm(0, 0, 1, sharers=(2, 3))]})
    result = replay(trace, "point_to_point", cfg)
    # req + 2 inv + 2 ack + data
    assert result.messages_sent == 6


def test_ops_issue_in_order_with_gaps(cfg):
    """The second op waits for the first to complete plus its gap."""
    trace = make_trace(cfg, {0: [gets(0, 0, 1, gap=10),
                                 gets(0, 0, 1, gap=1000)]})
    result = replay(trace, "point_to_point", cfg)
    assert result.ops_completed == 2
    # runtime at least gap1 + lat1 + gap2 + lat2
    assert result.runtime_ps >= 1000 * cfg.cycle_ps


def test_writeback_does_not_stall(cfg):
    wb = CoherenceOp(core=0, gap_cycles=0, kind=OpKind.WRITEBACK,
                     requester=0, home=1)
    trace = make_trace(cfg, {0: [wb, gets(0, 0, 1, gap=0)]})
    result = replay(trace, "point_to_point", cfg)
    # the writeback is excluded from op latency but its message is sent
    assert result.ops_completed == 1
    assert result.messages_sent == 3


def test_cores_run_concurrently(cfg):
    ops = {core: [gets(core, core // cfg.cores_per_site, 1)]
           for core in range(cfg.num_cores)}
    trace = make_trace(cfg, ops)
    result = replay(trace, "point_to_point", cfg)
    assert result.ops_completed == cfg.num_cores
    # concurrent execution: far faster than serial sum of latencies
    assert result.runtime_ns < cfg.num_cores * result.mean_op_latency_ns


def test_mshr_limit_serializes_site(cfg):
    limited = cfg.with_overrides(mshrs_per_site=1)
    ops = {core: [gets(core, 0, 1)] for core in range(cfg.cores_per_site)}
    trace_l = make_trace(limited, ops)
    r_limited = replay(trace_l, "point_to_point", limited)
    trace_u = make_trace(cfg, ops)
    r_unlimited = replay(trace_u, "point_to_point", cfg)
    assert r_limited.runtime_ps > r_unlimited.runtime_ps


def test_energy_accounted(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 1)]})
    result = replay(trace, "limited_point_to_point", cfg)
    assert result.energy_by_category.get("optical", 0) > 0


def test_all_networks_replay_the_same_trace(cfg):
    ops = {core: [getm(core, core // cfg.cores_per_site,
                       (core + 1) % cfg.num_sites)]
           for core in range(cfg.num_cores)}
    for net in FIGURE7_NETWORKS:
        trace = make_trace(cfg, ops)
        result = replay(trace, net, cfg)
        assert result.ops_completed == cfg.num_cores, net


def test_intra_site_op_uses_loopback(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 0)]})  # home == requester
    result = replay(trace, "point_to_point", cfg)
    # directory + memory + two loopback hops, well under a microsecond
    assert result.mean_op_latency_ns < 50.0


# -- property tests: every op kind, including the fire-and-forget path -----

_BASE = small_test_config(2, 2)


def _plan_length(cfg, op):
    return len(message_plan(op, cfg.control_message_bytes,
                            cfg.data_message_bytes,
                            cfg.directory_latency_cycles,
                            cfg.memory_latency_cycles))


@st.composite
def coherence_ops(draw, core):
    """One valid op of any kind issued by ``core``."""
    site = core // _BASE.cores_per_site
    others = [s for s in range(_BASE.num_sites) if s != site]
    kind = draw(st.sampled_from(list(OpKind)))
    owner = None
    sharers = ()
    if kind in (OpKind.GET_S, OpKind.GET_M):
        owner = draw(st.one_of(st.none(), st.sampled_from(others)))
    if kind in (OpKind.GET_M, OpKind.UPGRADE):
        sharers = tuple(draw(st.lists(st.sampled_from(others), unique=True,
                                      max_size=3)))
    return CoherenceOp(core=core, gap_cycles=draw(st.integers(0, 300)),
                       kind=kind, requester=site,
                       home=draw(st.integers(0, _BASE.num_sites - 1)),
                       owner=owner, sharers=sharers)


@st.composite
def replay_cases(draw):
    """A small random trace and an MSHR budget of 1-3 per site."""
    cfg = _BASE.with_overrides(mshrs_per_site=draw(st.integers(1, 3)))
    cores = draw(st.lists(st.integers(0, cfg.num_cores - 1), min_size=1,
                          max_size=6, unique=True))
    ops = {core: draw(st.lists(coherence_ops(core), min_size=1, max_size=5))
           for core in cores}
    return cfg, ops


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=replay_cases())
def test_replay_accounts_for_every_op_and_message(case):
    cfg, ops = case
    all_ops = [op for core_ops in ops.values() for op in core_ops]
    stalling = sum(op.kind is not OpKind.WRITEBACK for op in all_ops)
    messages = sum(_plan_length(cfg, op) for op in all_ops)
    for net in FIGURE7_NETWORKS:
        result = replay(make_trace(cfg, ops), net, cfg)
        assert result.ops_completed == stalling, net
        assert result.messages_sent == messages, net
        if stalling:
            assert result.op_latency.min_ps > 0, net
        again = replay(make_trace(cfg, ops), net, cfg)
        assert again == result, net


def test_writeback_only_trace_completes_without_latency(cfg):
    wb = CoherenceOp(core=0, gap_cycles=3, kind=OpKind.WRITEBACK,
                     requester=0, home=2)
    trace = make_trace(cfg, {0: [wb, wb, wb]})
    result = replay(trace, "token_ring", cfg)
    assert (result.ops_completed, result.messages_sent) == (0, 3)
    assert result.runtime_ps > 0


def test_upgrade_waits_for_every_ack(cfg):
    """An upgrade completes only once the permission and all acks land."""
    upg = CoherenceOp(core=0, gap_cycles=0, kind=OpKind.UPGRADE,
                      requester=0, home=1, sharers=(2, 3))
    alone = CoherenceOp(core=0, gap_cycles=0, kind=OpKind.UPGRADE,
                        requester=0, home=1)
    wide = replay(make_trace(cfg, {0: [upg]}), "point_to_point", cfg)
    narrow = replay(make_trace(cfg, {0: [alone]}), "point_to_point", cfg)
    assert (wide.messages_sent, narrow.messages_sent) == (6, 2)
    assert wide.op_latency.max_ps >= narrow.op_latency.max_ps


# -- per-run packet ids --------------------------------------------------------

def _sink_records(trace, cfg):
    replayer = TraceReplayer(trace, "token_ring", cfg)
    seen = []
    replayer.network.set_sink(
        lambda p: seen.append((p.pid, p.src, p.dst, p.kind)))
    result = replayer.run()
    return seen, result


def test_replay_packet_ids_are_per_run(cfg):
    """Pids are 0..N-1 in every replay, independent of what ran before
    in the process, so two replays record identical packet streams."""
    ops = {}
    for core in range(0, cfg.num_cores, 3):
        site = core // cfg.cores_per_site
        owner = (site + 2) % cfg.num_sites
        ops[core] = [getm(core, site, (site + 1) % cfg.num_sites, gap=core),
                     gets(core, site, 3, owner=owner)]
    first, result = _sink_records(make_trace(cfg, ops), cfg)
    second, _ = _sink_records(make_trace(cfg, ops), cfg)
    assert first == second
    assert sorted(pid for pid, *_ in first) == list(
        range(result.messages_sent))
