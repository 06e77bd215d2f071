"""Span arithmetic and summary statistics for the benchmark.

A span is one traced call: its name, start and end on the monotonic clock,
and the index of the span that was open when it started. Everything here is
plain Python so that the tracer and the self-tests can use it without numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [s.end - s.start - covered_length(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0   # inclusive duration
    self_s: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    out: dict[str, NameTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, NameTotals())
        t.calls += 1
        t.total_s += span.end - span.start
        t.self_s += own
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def median(values: list[float]) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, as
    (percentile, nearest-rank value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    xs = sorted(values)
    pct = math.floor(100 * (n - 10) / n)
    while pct > 0 and n - math.ceil(pct * n / 100) < 10:
        pct -= 1
    if pct <= 0:
        return None
    return pct, xs[max(0, math.ceil(pct * n / 100) - 1)]
