"""Spans around the library's public calls, recorded from outside it.

Tracer.install() swaps each function in TARGETS for a wrapper that records
a Span, at the place the caller looks the function up: `normal_form` is
wrapped in starsdp.relaxation's namespace, where the relaxation finds it,
and `ipm.solve` on the ipm module, which the relaxation calls through.
uninstall() puts the originals back, so untraced passes run the library
untouched.  layer_metrics() turns one traced pass into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from stats import Span, schur_flops, self_times

# span name, module the caller looks the name up in, attribute path there
TARGETS = (
    ("problems.parse_problem", "starsdp.problems", "parse_problem"),
    ("algebra.normal_form", "starsdp.relaxation", "normal_form"),
    ("algebra.is_normal_form", "starsdp.relaxation", "is_normal_form"),
    ("algebra.poly_mul", "starsdp.relaxation", "poly_mul"),
    ("relaxation.build_relaxation", "starsdp.relaxation", "build_relaxation"),
    ("relaxation.RelaxationModel.solve", "starsdp.relaxation", "RelaxationModel.solve"),
    ("sdpmodel.realify", "starsdp.relaxation", "realify"),
    ("sdpmodel.realify", "starsdp.symmetry", "realify"),
    ("sdpmodel.to_equality_form", "starsdp.relaxation", "to_equality_form"),
    ("ipm.solve", "starsdp.ipm", "solve"),
    ("ipm.feasibility_check", "starsdp.ipm", "feasibility_check"),
    ("symmetry.reduce_sdp", "starsdp.symmetry", "reduce_sdp"),
    ("symmetry.invariant_basis", "starsdp.symmetry", "invariant_basis"),
    ("symmetry.ReducedSDP.expand", "starsdp.symmetry", "ReducedSDP.expand"),
    ("oracles.realize_moments", "starsdp.oracles", "realize_moments"),
)

CHECK_SPAN = "bench.check"


class Tracer:
    """Keeps spans in memory; `op` is the operation index new spans get."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.op)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        for name, module, attr in TARGETS:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            self._saved.append((owner, last, original))
            setattr(owner, last, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, last, original = self._saved.pop()
            setattr(owner, last, original)


def parse_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.name == "problems.parse_problem")


def layer_metrics(spans: list[Span], shapes: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    `spans` are the pass's spans; those with op >= 0 ran inside an operation,
    the rest inside the correctness checks.  `shapes` holds the computed
    sizes of each operation's model (see workloads.py).  Times and counts
    are totals over the pass; model dimensions are those of the pass's
    dominant operation, the one with the most constraint rows.
    """
    in_ops = [s for s in spans if s.op >= 0]
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in in_ops:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
    selfs = self_times(in_ops)

    def self_of(name):
        return sum(selfs[s.sid] for s in in_ops if s.name == name)

    relax = [sh for sh in shapes if "basis" in sh]
    reduced = [sh for sh in shapes if "orig_block" in sh]
    top = max(shapes, key=lambda sh: sh["rows"])
    sizes, m = top["sizes"], top["rows"]
    top_relax = max(relax, key=lambda sh: sh["rows"]) if relax else None
    solve_s = total["ipm.solve"]
    iterations = sum(sh["iterations"] for sh in shapes)
    flop_work = sum(schur_flops(sh["rows"], sh["sizes"]) * sh["iterations"]
                    for sh in shapes)
    dense = m * sum(n * n for n in sizes)

    out = {
        "algebra.normal_form_calls": calls["algebra.normal_form"],
        "algebra.normal_form_s": total["algebra.normal_form"],
        "algebra.is_normal_form_calls": calls["algebra.is_normal_form"],
        "algebra.poly_mul_calls": calls["algebra.poly_mul"],
        "relaxation.build_s": total["relaxation.build_relaxation"],
        "relaxation.build_self_s": self_of("relaxation.build_relaxation"),
        "relaxation.readout_s": self_of("relaxation.RelaxationModel.solve"),
        "relaxation.basis_size": top_relax["basis"] if top_relax else 0,
        "relaxation.rows": top_relax["rows"] if top_relax else 0,
        "relaxation.moment_vars": top_relax["vars"] if top_relax else 0,
        "relaxation.rows_per_var":
            top_relax["rows"] / top_relax["vars"] if top_relax else 0.0,
        "sdpmodel.realify_s": total["sdpmodel.realify"],
        "sdpmodel.to_equality_form_s": total["sdpmodel.to_equality_form"],
        "sdpmodel.constraint_bytes": 8 * dense,
        "sdpmodel.nnz_frac": top["nnz"] / dense if dense else 0.0,
        "ipm.solve_s": solve_s,
        "ipm.iterations": iterations,
        "ipm.s_per_iter": solve_s / iterations if iterations else 0.0,
        "ipm.schur_dim": m,
        "ipm.schur_flops": schur_flops(m, sizes),
        "ipm.gflops": flop_work / solve_s / 1e9 if solve_s else 0.0,
        "symmetry.invariant_basis_s": total["symmetry.invariant_basis"],
        "symmetry.reduce_s": total["symmetry.reduce_sdp"],
        "symmetry.commutant_dim": sum(sh["commutant_dim"] for sh in reduced),
        "symmetry.block_ratio": (sum(sh["red_block"] for sh in reduced)
                                 / sum(sh["orig_block"] for sh in reduced)
                                 if reduced else 0.0),
        "symmetry.rows_ratio": (sum(sh["rows"] for sh in reduced)
                                / sum(sh["orig_rows"] for sh in reduced)
                                if reduced else 0.0),
        "symmetry.reduced_solve_s": solve_s if reduced else 0.0,
        "oracles.realize_s": sum(s.end - s.start for s in spans
                                 if s.name == "oracles.realize_moments"),
        "oracles.check_s": sum(s.end - s.start for s in spans
                               if s.name == CHECK_SPAN),
    }
    return out
