"""Check the benchmark's own arithmetic on hand-sized cases.

run.py calls run() before every measurement, so a run whose arithmetic is
wrong stops before it reports; `python3 bench/selfcheck.py` runs it alone.
"""

from __future__ import annotations

import sys

from stats import (Span, at_reference_speed, covered, median, percentile,
                   schur_flops, self_times)
from tracing import layer_metrics


class SelfCheckError(AssertionError):
    pass


def expect(what, got, want, tol=1e-12):
    if abs(got - want) > tol * max(1.0, abs(want)):
        raise SelfCheckError(f"{what}: got {got!r}, expected {want!r}")


def check_percentiles():
    xs = [float(v) for v in range(10, 0, -1)]          # 10 samples, unsorted
    expect("p50 of 1..10", percentile(xs, 50), 5.0)     # rank ceil(5.0) = 5
    expect("p90 of 1..10", percentile(xs, 90), 9.0)     # rank ceil(9.0) = 9
    expect("p91 of 1..10", percentile(xs, 91), 10.0)    # rank ceil(9.1) = 10
    expect("p100 of 1..10", percentile(xs, 100), 10.0)
    expect("p50 of a 4-op ladder", percentile([40.0, 3.0, 150.0, 2000.0], 50), 40.0)
    expect("p90 of one sample", percentile([4.0], 90), 4.0)
    expect("median of 3 samples", median([3.0, 1.0, 2.0]), 2.0)
    expect("median of 4 samples", median([4.0, 1.0, 2.0, 3.0]), 2.5)
    # 200 samples 1..200: p90 is the 180th, with 20 samples beyond it
    big = [float(v) for v in range(1, 201)]
    p90 = percentile(big, 90)
    expect("p90 of 1..200", p90, 180.0)
    expect("samples beyond p90 of 1..200", sum(v > p90 for v in big), 20)
    # a pool-sized sample: five passes of 390 ops
    expect("p90 of 1..1950", percentile([float(v) for v in range(1, 1951)], 90), 1755.0)


def check_reference_speed():
    # the kernel ran at the reference pace: the time is unchanged
    expect("at reference pace", at_reference_speed(4.0, [2e-3, 2e-3], 2e-3), 4.0)
    # half the time at half speed, half at full: mean speed 0.75
    expect("half slow", at_reference_speed(4.0, [4e-3, 2e-3], 2e-3), 3.0)
    # speeds 2/3, 2/5 and 2/2 average to 31/45
    expect("three samples", at_reference_speed(9.0, [3.0, 5.0, 2.0], 2.0),
           9.0 * (2 / 3 + 2 / 5 + 1.0) / 3)


def check_self_time():
    expect("covered, overlapping and clipped",
           covered([(1, 3), (2, 5), (9, 12)], 0, 10), 5.0)
    spans = [Span(0, "parent", 0.0, 10.0, -1, 0),
             Span(1, "a", 1.0, 3.0, 0, 0),
             Span(2, "b", 2.0, 5.0, 0, 0),       # overlaps a
             Span(3, "c", 9.0, 12.0, 0, 0),      # runs past the parent's end
             Span(4, "grandchild", 1.5, 2.5, 1, 0)]
    st = self_times(spans)
    expect("self time of parent", st[0], 10.0 - 5.0)
    expect("self time of a", st[1], 2.0 - 1.0)
    expect("self time of a leaf", st[4], 1.0)


def check_flops():
    # m = 2 rows, one 3x3 block: 4*2*27 + 2*3*9 + 8/3
    expect("schur_flops(2, [3])", schur_flops(2, [3]), 216 + 54 + 8 / 3)
    # two blocks add per block; the factorization is counted once
    expect("schur_flops(1, [1, 2])", schur_flops(1, [1, 2]),
           (4 + 2) + (32 + 8) + 1 / 3)


def check_layer_metrics():
    """One synthetic traced pass: a build with two algebra calls, a solve
    with its IPM call, and a check phase outside any operation."""
    spans = [Span(0, "relaxation.build_relaxation", 0.0, 1.0, -1, 0),
             Span(1, "algebra.normal_form", 0.1, 0.3, 0, 0),
             Span(2, "algebra.normal_form", 0.4, 0.5, 0, 0),
             Span(3, "relaxation.RelaxationModel.solve", 1.0, 5.0, -1, 0),
             Span(4, "ipm.solve", 1.5, 4.5, 3, 0),
             Span(5, "bench.check", 5.0, 6.0, -1, -1),
             Span(6, "oracles.realize_moments", 5.2, 5.6, 5, -1),
             Span(7, "algebra.normal_form", 5.7, 5.8, 5, -1)]
    shape = {"basis": 5, "rows": 2, "vars": 4, "sizes": [3], "iterations": 10,
             "nnz": 9}
    got = layer_metrics(spans, [shape])
    want = {"algebra.normal_form_calls": 2, "algebra.normal_form_s": 0.3,
            "relaxation.build_s": 1.0, "relaxation.build_self_s": 0.7,
            "relaxation.readout_s": 1.0, "relaxation.rows_per_var": 0.5,
            "sdpmodel.constraint_bytes": 8 * 2 * 9, "sdpmodel.nnz_frac": 0.5,
            "ipm.solve_s": 3.0, "ipm.s_per_iter": 0.3,
            "ipm.gflops": schur_flops(2, [3]) * 10 / 3.0 / 1e9,
            "symmetry.reduce_s": 0.0, "oracles.realize_s": 0.4,
            "oracles.check_s": 1.0}
    for key, value in want.items():
        expect(key, got[key], value)


def run():
    check_percentiles()
    check_reference_speed()
    check_self_time()
    check_flops()
    check_layer_metrics()


if __name__ == "__main__":
    run()
    print("selfcheck: ok")
    sys.exit(0)
