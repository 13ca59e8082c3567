"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values: Sequence[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns its label and value.  With too few samples for any rung, the
    maximum is reported and labelled as such.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_LADDER:
        beyond = n - _rank(p, n)
        if beyond >= TAIL_MIN_BEYOND:
            return "p%g" % p, nearest_rank(values, p)
    return "max", max(values)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Per span name, the summed duration minus the time its direct children
    cover.  Spans are ``(id, parent, name, start, end)``; children of one
    parent never overlap, because one caller runs them in sequence."""
    child_time: dict[int, float] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return out
