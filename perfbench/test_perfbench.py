"""Tests of the benchmark's own logic.  Run from the repository root:

    python -m pytest perfbench -q
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from repro.core.parallel import ShardError, ShardedRun  # noqa: E402
from repro.macrochip.config import small_test_config  # noqa: E402
from repro.workloads.synthetic import make_pattern  # noqa: E402


# -- tail percentile ----------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_items_beyond():
    values = list(range(1, 101))  # 100 items: p90 leaves exactly 10
    assert checks.tail_percentile(values) == (90, 90)


@pytest.mark.parametrize("n, pct", [(11, 9), (54, 81), (72, 86), (410, 97),
                                    (615, 98), (1025, 99)])
def test_tail_percentile_moves_with_sample_size(n, pct):
    got, _ = checks.tail_percentile(float(i) for i in range(n))
    assert got == pct
    beyond = n - -(-pct * n // 100)
    assert beyond >= checks.TAIL_ITEMS


def test_tail_needs_more_than_ten_items():
    with pytest.raises(ValueError):
        checks.tail_percentile(range(10))


def test_summary_reports_ms_and_sample_size():
    items = checks.summarize_items([i / 1000.0 for i in range(1, 101)])
    assert items["items"] == 100 and items["tail_pct"] == 90
    assert items["item_p50_ms"] == pytest.approx(50.0)
    assert items["item_tail_ms"] == pytest.approx(90.0)


# -- digests and failure counting ----------------------------------------------

def test_digest_mismatches_counts_changed_and_missing_items():
    expected = {"a": "1", "b": "2"}
    assert checks.digest_mismatches({"a": "1", "b": "2"}, expected) == []
    assert checks.digest_mismatches({"a": "1", "b": "x", "c": "3"},
                                    expected) == ["b", "c"]
    assert checks.digest_mismatches({"a": "9"}, None) == []


class _Toy(suite.Workload):
    """Items are ints; an item is broken when it is negative."""

    def check_item(self, state, key, value, check):
        return "negative" if value < 0 else None

    def digest(self, value):
        return str(value)

    def events(self, value):
        return abs(value)


def _outcome(values):
    keys = ["k%d" % i for i in range(len(values))]
    run_ = ShardedRun(results=list(values), reports=[], workers=1,
                      mode="serial", wall_clock_s=1.0)
    return suite.PassOutcome(keys, run_, [0.0] * len(values))


def test_check_pass_counts_each_failed_item_once():
    error = ShardError(index=1, label="k1", kind="exception",
                       error_type="ValueError", message="boom")
    outcome = _outcome([1, error, -3, 4, 5])
    expected = {"k0": "1", "k2": "999", "k3": "4", "k4": "0"}
    check = _Toy().check_pass(None, outcome, expected)
    # k1 raised, k2 is negative *and* mismatched, k4 mismatched
    assert sorted(check.failed) == ["k1", "k2", "k4"]
    assert check.failed["k2"] == "negative"
    assert check.events == 1 + 3 + 4 + 5
    assert check.digests == {"k0": "1", "k2": "-3", "k3": "4", "k4": "5"}


def test_check_pass_without_reference_only_checks_invariants():
    check = _Toy().check_pass(None, _outcome([1, 2, -1]), None)
    assert list(check.failed) == ["k2"]


# -- layers that add up --------------------------------------------------------

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_recorder_self_times_sum_to_root():
    rec = layers.Recorder()

    def inner():
        _busy(0.002)

    def outer():
        _busy(0.002)
        rec.span("b", inner)
        rec.span("b", inner)

    with rec.root():
        rec.span("a", outer)
        _busy(0.001)
    total = checks.reconcile(rec.self_s, rec.other_s, rec.wall_s)
    assert total == pytest.approx(rec.wall_s)
    assert rec.self_s["b"] >= 0.004 and rec.self_s["a"] >= 0.002
    assert rec.self_s["a"] < 0.004  # children are not counted twice
    assert rec.other_s >= 0.001


def test_reconcile_rejects_double_counting():
    with pytest.raises(AssertionError):
        checks.reconcile({"kernel": 3.0, "sweep": 1.0}, 0.5, 4.0)
    with pytest.raises(AssertionError):
        checks.reconcile({"kernel": 4.5, "sweep": -1.0}, 0.5, 4.0)


def test_root_rejects_unbalanced_spans():
    rec = layers.Recorder()
    with pytest.raises(layers.LayerError):
        with rec.root():
            rec._children.append(0.0)


def test_instrumented_load_point_adds_up_and_counts_the_kernel():
    cfg = small_test_config(2, 2)
    pattern = make_pattern("uniform", cfg.layout)
    rec = layers.Recorder()
    with layers.instrument(rec), rec.root():
        for backend in ("python", "vectorized"):
            suite.sweep.run_load_point("token_ring", cfg, pattern, 0.2,
                                       window_ns=20.0, warm=True,
                                       backend=backend)
    checks.reconcile(rec.self_s, rec.other_s, rec.wall_s)
    assert rec.counts["vectorized.kernel_calls"] == 1
    assert rec.self_s["networks.token_ring.self_s"] > 0
    assert rec.self_s["sweep.inject_s"] > 0
    assert rec.counts["engine.events"] > 0
    assert rec.counts["networks.token_ring.injects"] > 0
    assert rec.counts["stats.deliveries"] > 0


def test_instrumented_replay_charges_delivery_callbacks_to_replay():
    from repro.workloads.synthetic_coherence import (
        SyntheticCoherenceSpec, generate_synthetic_trace)
    from repro.workloads.sharing import mix_by_name

    cfg = small_test_config(2, 2)
    trace = generate_synthetic_trace(
        SyntheticCoherenceSpec("t", ops_per_core=3),
        make_pattern("uniform", cfg.layout), mix_by_name("MS"), cfg)
    expected = suite.replay_mod.replay(trace, "point_to_point", cfg)
    rec = layers.Recorder()
    with layers.instrument(rec), rec.root():
        got = suite.replay_mod.replay(trace, "point_to_point", cfg)
    checks.reconcile(rec.self_s, rec.other_s, rec.wall_s)
    assert checks.replay_digest(got) == checks.replay_digest(expected)
    ops = sum(len(core) for core in trace.ops_by_core)
    assert rec.counts["coherence.plan_calls"] == ops
    assert rec.counts["networks.point_to_point.injects"] == got.messages_sent
    assert rec.self_s["replay.self_s"] > 0
    # the wrappers are gone afterwards
    assert suite.replay_mod.Packet.__name__ == "Packet"


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_matches_the_metrics_run_emits():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(
        run.WORKLOAD_NAMES) == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER)
    from repro.networks.factory import FIGURE6_NETWORKS, FIGURE7_NETWORKS
    assert list(run.FIG6_NETS) == FIGURE6_NETWORKS
    assert list(run.FIG7_NETS) == FIGURE7_NETWORKS
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
