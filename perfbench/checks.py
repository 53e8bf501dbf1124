"""The benchmark's own arithmetic: tail percentiles, result digests,
digest comparison and the layer reconciliation.  Pure functions, so the
tests in ``test_perfbench.py`` exercise them without running the
simulator."""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: a tail percentile must leave at least this many items beyond it
TAIL_ITEMS = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ascending values, by nearest rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: Iterable[float]) -> Tuple[int, float]:
    """``(pct, value)`` for the highest whole percentile that leaves at
    least :data:`TAIL_ITEMS` items beyond it (by nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100.0 * n) >= TAIL_ITEMS:
            return pct, nearest_rank(ordered, pct)
    raise ValueError("%d items leave no percentile with %d items beyond it"
                     % (n, TAIL_ITEMS))


def _hash(parts: tuple) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def load_point_digest(result) -> str:
    """Digest of every field of a ``LoadPointResult``."""
    return _hash(tuple(getattr(result, f.name) for f in fields(result)))


def replay_digest(result) -> str:
    """Digest of a ``ReplayResult``: runtime, ops, messages, events,
    op-latency statistics and energy by category."""
    lat = result.op_latency
    latency = ((lat.count, lat.sum_ps, lat.min_ps, lat.max_ps,
                lat.percentile_ps(50.0), lat.percentile_ps(99.0))
               if lat.count else (0,))
    return _hash((result.network, result.workload, result.runtime_ps,
                  result.ops_completed, result.messages_sent,
                  result.events_dispatched, latency,
                  tuple(sorted(result.energy_by_category.items()))))


def digest_mismatches(digests: Mapping[str, str],
                      expected: Optional[Mapping[str, str]]) -> List[str]:
    """Item keys whose digest differs from ``expected`` (or is missing
    from it).  ``expected=None`` means there is nothing to compare with."""
    if expected is None:
        return []
    return sorted(key for key, value in digests.items()
                  if expected.get(key) != value)


def reconcile(self_s: Mapping[str, float], other_s: float, wall_s: float,
              rel_tol: float = 1e-6) -> float:
    """Assert that the layer self times plus the residual equal the
    traced wall time; returns their sum."""
    total = math.fsum(self_s.values()) + other_s
    if not math.isclose(total, wall_s, rel_tol=rel_tol, abs_tol=1e-12):
        raise AssertionError("layer self times + other_s = %.9f s, traced "
                             "wall = %.9f s" % (total, wall_s))
    if min([other_s, *self_s.values()]) < -1e-9:
        raise AssertionError("negative self time: a span overlapped its "
                             "parent")
    return total


def summarize_items(times_s: Sequence[float]) -> Dict[str, float]:
    """Median and tail item time in ms, with the tail's percentile."""
    ordered = sorted(times_s)
    pct, tail = tail_percentile(ordered)
    return {"item_p50_ms": nearest_rank(ordered, 50.0) * 1000.0,
            "item_tail_ms": tail * 1000.0,
            "tail_pct": pct,
            "items": len(ordered)}
