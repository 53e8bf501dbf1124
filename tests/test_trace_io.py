"""Tests for coherence-trace serialization."""

import io
import json

import pytest

from repro.cpu.coherence import CoherenceOp, OpKind
from repro.cpu.system import generate_trace
from repro.cpu.trace import CoherenceTrace
from repro.cpu.trace_io import dump_trace, load_trace
from repro.macrochip.config import small_test_config
from repro.workloads.kernels import RadixKernel
from repro.workloads.replay import replay


def sample_trace():
    trace = CoherenceTrace("sample", 4)
    trace.ops_by_core[0] = [
        CoherenceOp(core=0, gap_cycles=5, kind=OpKind.GET_S, requester=0,
                    home=1, owner=2, line=64),
        CoherenceOp(core=0, gap_cycles=9, kind=OpKind.GET_M, requester=0,
                    home=3, sharers=(1, 2), line=128),
    ]
    trace.ops_by_core[3] = [
        CoherenceOp(core=3, gap_cycles=0, kind=OpKind.WRITEBACK,
                    requester=1, home=2, line=192),
    ]
    trace.total_references = 10
    trace.total_instructions = 100
    trace.l2_misses = 3
    return trace


def test_roundtrip_through_file(tmp_path):
    path = str(tmp_path / "trace.json")
    original = sample_trace()
    dump_trace(original, path)
    loaded = load_trace(path)
    assert loaded.workload == "sample"
    assert loaded.num_cores == 4
    assert loaded.total_instructions == 100
    assert loaded.ops_by_core == original.ops_by_core


def test_roundtrip_through_stream():
    buf = io.StringIO()
    dump_trace(sample_trace(), buf)
    buf.seek(0)
    loaded = load_trace(buf)
    assert loaded.ops_by_core[0][1].sharers == (1, 2)
    assert loaded.ops_by_core[0][0].owner == 2
    assert loaded.ops_by_core[0][1].owner is None or True


def test_none_owner_preserved():
    buf = io.StringIO()
    dump_trace(sample_trace(), buf)
    buf.seek(0)
    loaded = load_trace(buf)
    assert loaded.ops_by_core[0][1].owner is None


def test_version_check():
    buf = io.StringIO(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        load_trace(buf)


def test_corrupt_core_count_rejected():
    doc = {"version": 1, "workload": "x", "num_cores": 2,
           "total_references": 0, "total_instructions": 0,
           "l2_misses": 0, "ops": [[]]}
    with pytest.raises(ValueError):
        load_trace(io.StringIO(json.dumps(doc)))


def test_loaded_trace_replays_identically(tmp_path):
    """A saved+loaded trace must produce the exact same replay result."""
    cfg = small_test_config(2, 2)
    trace = generate_trace(RadixKernel(refs_per_core=60), cfg)
    path = str(tmp_path / "radix.json")
    dump_trace(trace, path)
    loaded = load_trace(path)
    a = replay(trace, "point_to_point", cfg)
    b = replay(loaded, "point_to_point", cfg)
    assert a.runtime_ps == b.runtime_ps
    assert a.messages_sent == b.messages_sent
    assert a.mean_op_latency_ns == b.mean_op_latency_ns


def test_malformed_op_rejected_on_load():
    """Validation runs on load: a hand-edited file cannot smuggle in an
    op that message_plan would expand silently."""
    buf = io.StringIO()
    dump_trace(sample_trace(), buf)
    doc = json.loads(buf.getvalue())
    gap, kind_code, requester, home, owner, sharers, line = doc["ops"][0][1]
    doc["ops"][0][1] = [gap, kind_code, requester, home, owner,
                        sharers + sharers[:1], line]
    with pytest.raises(ValueError, match="duplicate sharers"):
        load_trace(io.StringIO(json.dumps(doc)))
