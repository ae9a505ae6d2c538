"""Arithmetic behind the reported numbers: order statistics, times at the
reference speed, span self time and the computed Schur operation count.

Everything here is plain Python on lists and is checked on hand-sized
cases by selfcheck.py before any run reports a result.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple


class Span(NamedTuple):
    """One traced call: `parent` is the id of the enclosing span (-1 at the
    top) and `op` the index of the operation the call ran under (-1 outside
    any operation)."""

    sid: int
    name: str
    start: float
    end: float
    parent: int
    op: int


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile, 0 < q <= 100: the smallest sample with
    at least q% of the samples at or below it.  It is always a latency some
    operation had; interpolating would mix two unrelated operations where a
    pass holds a few very different ones, as the level ladders do."""
    if not values or not 0 < q <= 100:
        raise ValueError("percentile needs samples and 0 < q <= 100")
    xs = sorted(values)
    return xs[math.ceil(q * len(xs) / 100.0) - 1]


def at_reference_speed(seconds: float, kernel_s: list[float], ref_s: float) -> float:
    """A time measured while the speed kernel took kernel_s, at the speed
    where it takes ref_s: seconds times the mean speed ref_s / k over the
    samples.  With samples evenly spread in time, the mean speed is the
    work done per second relative to the reference pace."""
    if not kernel_s or min(kernel_s) <= 0.0:
        raise ValueError("at_reference_speed needs positive kernel times")
    return seconds * sum(ref_s / k for k in kernel_s) / len(kernel_s)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start)
            - covered(children.get(s.sid, []), s.start, s.end)
            for s in spans}


def schur_flops(m: int, sizes: list[int]) -> float:
    """Computed floating-point operations of one Schur-complement build and
    factorization in ipm.solve, for m constraint rows and the given block
    sizes:

        sum_b (4 m n_b^3 + m (m + 1) n_b^2) + m^3 / 3

    Per row l and block b the solver forms X_b A_lb Z_b^-1, two dense
    n_b x n_b products of 2 n_b^3 flops each; it then takes the
    m (m + 1) / 2 inner products <A_kb, T_lb> of 2 n_b^2 flops each, and a
    Cholesky factorization of the m x m result, m^3 / 3 flops.  This is a
    count derived from the dimensions, not a measurement.
    """
    per_block = sum(4 * m * n ** 3 + m * (m + 1) * n ** 2 for n in sizes)
    return float(per_block) + m ** 3 / 3.0
