"""Small measurement helpers: percentiles, interval cover and the
rule that ends a timed window.

Pure functions with no import of the program, so the benchmark's own
tests can check them in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, when looking for the tail
#: percentile a sample set can support.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would make it the value of one or two outliers.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile by nearest rank, and how many samples lie
    beyond it (ranked strictly after it)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1], n - rank


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond the
    ``q``-th percentile."""
    return n >= 1 and n - max(1, math.ceil(q / 100.0 * n)) >= MIN_BEYOND


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest of ``TAIL_CANDIDATES`` with at least
    ``MIN_BEYOND`` samples beyond it, or None when none qualifies."""
    for q in TAIL_CANDIDATES:
        if supports(len(samples), q):
            return q, nearest_rank(samples, q)[0]
    return None


def latency_summary(samples: Sequence[float]) -> dict:
    """Median, p90 (when supported) and the highest supported tail."""
    out: dict = {"count": len(samples)}
    if not samples:
        return out
    out["p50"] = statistics.median(samples)
    if supports(len(samples), 90.0):
        out["p90"] = nearest_rank(samples, 90.0)[0]
    tail = tail_percentile(samples)
    if tail is not None:
        out["tail_q"], out["tail"] = tail
    return out


def another_fits(elapsed: float, walls: Sequence[float], seconds: float) -> bool:
    """Whether to start one more operation ``elapsed`` seconds into a
    timed window of ``seconds``: yes when one of the median length would
    end less than half an operation past the window.  The measured time
    is then ``seconds`` give or take half an operation, not up to a
    whole operation more.  With no finished operation, no."""
    return bool(walls) and elapsed + statistics.median(walls) / 2 < seconds


def merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of closed intervals as sorted disjoint intervals."""
    out: List[Tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def covered(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    for a, b in merge((max(a, lo), min(b, hi)) for a, b in intervals):
        total += b - a
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """The part of ``[start, end]`` that ``children`` leave uncovered: a
    span's self time, or a window's unattributed time."""
    return (end - start) - covered(children, start, end)
