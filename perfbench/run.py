"""Benchmark of the macrochip network simulator: host time to regenerate
the paper's artifacts, checked item by item for correct results.

    python3 perfbench/run.py --workload fig6-scalar --seed 0 --seconds 34 --trace 0

``--trace 0`` runs timed passes until the next one would end after
``--seconds`` (at least two) and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  ``--workload all`` runs every
workload in its own process.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

_STARTED = perf_counter()

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")

#: the seed whose item digests reference.json holds; it reproduces the
#: library's default seeds
DEFAULT_SEED = 0
#: fresh processes that each time imports plus set-up; setup_s is their
#: median
SETUP_REPEATS = 3
#: passes a run makes at least; the item statistics come from the last
#: MIN_PASSES passes, so their sample size, and with it the tail's
#: percentile, does not move with the number of passes
MIN_PASSES = 4

WORKLOAD_NAMES = ("fig6-scalar", "fig6-vector", "replay-coh")

#: (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

FIG6_NETS = ("token_ring", "circuit_switched", "point_to_point",
             "limited_point_to_point", "two_phase")
FIG7_NETS = FIG6_NETS + ("two_phase_alt",)

#: (name, unit, better) of the per-layer metrics, reported with --trace 1
PER_LAYER = (
    ("engine.events", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.bulk_events", "count", "higher"),
    ("engine.heap_events", "count", "lower"),
    ("engine.pending_peak", "count", "lower"),
    *(("networks.%s.self_s" % n, "s", "lower") for n in FIG7_NETS),
    *(("networks.%s.injects" % n, "count", "lower") for n in FIG7_NETS),
    ("networks.build_s", "s", "lower"),
    ("stats.deliveries", "count", "lower"),
    ("stats.self_s", "s", "lower"),
    ("sweep.points", "count", "higher"),
    ("sweep.draws_s", "s", "lower"),
    ("sweep.inject_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("cache.context_builds", "count", "lower"),
    ("cache.context_hit_ratio", "ratio", "higher"),
    ("cache.draw_bank_builds", "count", "lower"),
    ("cache.draw_bank_hit_ratio", "ratio", "higher"),
    ("cache.scratch_builds", "count", "lower"),
    ("cache.scratch_hit_ratio", "ratio", "higher"),
    ("vectorized.calls", "count", "higher"),
    ("vectorized.fallbacks", "count", "lower"),
    *(("vectorized.%s.kernel_s" % n, "s", "lower") for n in FIG6_NETS),
    ("vectorized.assemble_s", "s", "lower"),
    ("vectorized.self_s", "s", "lower"),
    ("replay.runs", "count", "higher"),
    ("replay.ops", "count", "higher"),
    ("replay.messages", "count", "lower"),
    ("replay.self_s", "s", "lower"),
    ("coherence.plan_calls", "count", "lower"),
    ("coherence.plan_s", "s", "lower"),
    ("coherence.plan_distinct_ratio", "ratio", "lower"),
    ("cpu.trace_build_s", "s", "lower"),
    ("cpu.trace_ops", "count", "higher"),
    ("parallel.shards", "count", "higher"),
    ("parallel.self_s", "s", "lower"),
    ("parallel.busy_frac", "ratio", "higher"),
    ("parallel.failed", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds of imports plus set-up, "
                             "then exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this workload's item digests for the "
                             "default seed in reference.json")
    return parser.parse_args(argv)


def load_reference(grid: str):
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as handle:
        return json.load(handle).get(grid)


def write_reference(grid: str, digests) -> None:
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as handle:
            data = json.load(handle)
    data[grid] = dict(sorted(digests.items()))
    with open(REFERENCE, "w") as handle:
        json.dump(dict(sorted(data.items())), handle, indent=1)
        handle.write("\n")


def report_failures(failed) -> None:
    for key, why in list(failed.items())[:10]:
        print("FAILED %s: %s" % (key, why), file=sys.stderr)
    if len(failed) > 10:
        print("... and %d more failed items" % (len(failed) - 10),
              file=sys.stderr)


def timed_passes(suite, workload, state, reference, seconds):
    """End-to-end metrics from untraced passes, each from cold caches."""
    walls, item_s = [], []
    events = attempted = 0
    failed = {}
    peak_kb = 0
    expected = reference
    started = perf_counter()
    while True:
        suite.cold_start()
        start = perf_counter()
        outcome = workload.run_pass(state)
        walls.append(perf_counter() - start)
        check = workload.check_pass(state, outcome, expected)
        if expected is None:
            # no reference for this seed: later passes must repeat the first
            expected = check.digests
        item_s.append(outcome.item_s)
        events += check.events
        attempted += len(outcome.keys)
        failed.update(("pass %d %s" % (len(walls), key), why)
                      for key, why in check.failed.items())
        peak_kb = max(peak_kb, check.peak_rss_kb)
        elapsed = perf_counter() - started
        if (len(walls) >= MIN_PASSES
                and elapsed + statistics.median(walls) > seconds):
            break
    items = checks.summarize_items(
        [t for times in item_s[-MIN_PASSES:] for t in times])
    print("%s: %d passes, %d items; item times from the last %d passes: "
          "tail = p%d of %d items; failed_frac %d/%d"
          % (workload.name, len(walls), attempted, MIN_PASSES,
             items["tail_pct"], items["items"], len(failed), attempted))
    metrics = {
        "wall_s": statistics.median(walls),
        # every pass dispatches the same events, so this is the median
        # pass's rate
        "events_per_s": events / len(walls) / statistics.median(walls),
        "item_p50_ms": items["item_p50_ms"],
        "item_tail_ms": items["item_tail_ms"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return metrics, attempted, failed


def traced_pass(suite, workload, state, reference):
    """Per-layer metrics from one traced pass, after one untraced pass
    that gives the tracing overhead."""
    suite.cold_start()
    start = perf_counter()
    outcome = workload.run_pass(state)
    untraced_wall = perf_counter() - start
    first = workload.check_pass(state, outcome, reference)
    failed = {"untraced " + k: v for k, v in first.failed.items()}

    rec = layers.Recorder()
    suite.cold_start()
    with layers.instrument(rec), rec.root():
        outcome = rec.span("experiments.self_s", workload.run_pass, state,
                           rec.span)
    checks.reconcile(rec.self_s, rec.other_s, rec.wall_s)
    check = workload.check_pass(state, outcome, reference or first.digests)
    failed.update(("traced " + k, v) for k, v in check.failed.items())

    c = rec.counts
    is_fig6 = isinstance(workload, suite.Fig6)
    points = len(outcome.keys) if is_fig6 else 0
    if is_fig6 and workload.backend == "vectorized":
        if c["vectorized.kernel_calls"] != points:
            failed["traced pass"] = ("%d kernel calls for %d load points"
                                     % (c["vectorized.kernel_calls"], points))
    run = outcome.run

    def hit_ratio(cache: str) -> float:
        lookups = c["cache.%s_lookups" % cache]
        builds = c["cache.%s_builds" % cache]
        return (lookups - builds) / lookups if lookups else 0.0

    names = {name for name, _, _ in PER_LAYER}
    values = {name: count for name, count in c.items() if name in names}
    for layer, seconds in rec.self_s.items():
        if layer not in names:
            raise layers.LayerError("layer %s (%.3f s) has no metric"
                                    % (layer, seconds))
        values[layer] = seconds
    values.update({
        "sweep.points": points,
        "cache.context_hit_ratio": hit_ratio("context"),
        "cache.draw_bank_hit_ratio": hit_ratio("draw_bank"),
        "cache.scratch_hit_ratio": hit_ratio("scratch"),
        "vectorized.calls": check.kernel_calls,
        "vectorized.fallbacks": check.fallbacks,
        "replay.runs": 0 if is_fig6 else len(outcome.keys),
        "replay.ops": check.replay_ops,
        "replay.messages": check.replay_messages,
        "coherence.plan_distinct_ratio": (
            c["coherence.plan_distinct"] / c["coherence.plan_calls"]
            if c["coherence.plan_calls"] else 0.0),
        "cpu.trace_build_s": getattr(state, "build_s", 0.0),
        "cpu.trace_ops": getattr(state, "trace_ops", 0),
        "parallel.shards": len(outcome.keys),
        "parallel.busy_frac": (run.total_shard_seconds
                               / (run.workers * run.wall_clock_s)),
        "parallel.failed": run.failed,
        "other_s": rec.other_s,
        "trace.wall_s": rec.wall_s,
        "trace.overhead_frac": rec.wall_s / untraced_wall - 1.0,
    })
    metrics = {name: values.get(name, 0) for name, _, _ in PER_LAYER}
    print("%s traced: wall %.3f s = layers %.3f s + other %.3f s; "
          "untraced %.3f s" % (workload.name, rec.wall_s,
                               rec.wall_s - rec.other_s, rec.other_s,
                               untraced_wall))
    return metrics, 2 * len(outcome.keys), failed


def setup_seconds(args) -> float:
    """Median imports-plus-set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    merged = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print("%s exited with code %d" % (name, done.returncode),
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged["%s.%s" % (name, metric)] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOAD_NAMES:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOAD_NAMES + ("all",))),
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("the simulator source is missing: no %s"
              % os.path.join(SRC, "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite

    workload = suite.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    if args.setup_only:
        print("%.9f" % (perf_counter() - _STARTED))
        return 0
    reference = (load_reference(workload.grid)
                 if args.seed == DEFAULT_SEED else None)

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            print("references are for seed %d only" % DEFAULT_SEED,
                  file=sys.stderr)
            return 2
        suite.cold_start()
        outcome = workload.run_pass(state)
        check = workload.check_pass(state, outcome, None)
        if check.failed:
            report_failures(check.failed)
            return 1
        write_reference(workload.grid, check.digests)
        print("wrote %d digests for %s" % (len(check.digests),
                                            workload.grid))
        return 0

    if args.trace:
        metrics, attempted, failed = traced_pass(suite, workload, state,
                                                 reference)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, attempted, failed = timed_passes(suite, workload, state,
                                                  reference, args.seconds)
        metrics["setup_s"] = setup_seconds(args)
        units = dict(END_TO_END)
    report_failures(failed)
    for name, value in metrics.items():
        print("  %-34s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
