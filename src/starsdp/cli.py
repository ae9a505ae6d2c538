"""Command-line front end: solve problem files, sample joint numerical
cones, reduce symmetric SDPs.

Exit codes: 0 success, 1 input or parse error, a bad option value or an
unwritable output path, 2 objective or constraint not representable at the
requested level, 3 solver failure, 4 invariance violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import stat
import sys
import time
from contextlib import contextmanager, nullcontext, suppress

from . import ipm
from .algebra import AlgebraError
from .problems import ProblemSyntaxError, parse_problem_file
from .relaxation import (
    RelaxationError, build_relaxation, jnc_family, jnc_support,
)
from .sdpmodel import (
    ModelError, SDPAFormatError, export_sdpa, export_sdpa_file, import_sdpa_file,
    to_equality_form,
)
from .symmetry import GroupError, InvarianceError, parse_group_file, reduce_sdp

EXIT_INPUT = 1
EXIT_NOT_REPRESENTABLE = 2
EXIT_SOLVER = 3
EXIT_INVARIANCE = 4


class UsageError(ValueError):
    """An option value the command cannot use."""


# The exit code of each error class main reports with one line on standard
# error; the most specific listed class of an exception decides, and an
# exception of no listed class propagates.
EXIT_CODES = {
    InvarianceError: EXIT_INVARIANCE,
    RelaxationError: EXIT_NOT_REPRESENTABLE,
    OSError: EXIT_INPUT, ProblemSyntaxError: EXIT_INPUT, AlgebraError: EXIT_INPUT,
    SDPAFormatError: EXIT_INPUT, GroupError: EXIT_INPUT, ModelError: EXIT_INPUT,
    UsageError: EXIT_INPUT,
}


def _err(msg: str) -> None:
    print(f"starsdp: {msg}", file=sys.stderr)


def _parse_levels(spec: str) -> list[int]:
    """N, or A-B for the levels A to B."""
    m = re.fullmatch(r"(\d+)(?:\s*-\s*(\d+))?", spec.strip())
    levels = list(range(int(m[1]), int(m[2] or m[1]) + 1)) if m else []
    if not levels:
        raise UsageError(f"bad level specification {spec!r}")
    return levels


@contextmanager
def _output_file(path: str, **kwargs):
    """path opened for writing before the run that fills it, so that an
    unwritable path fails at once.  A run that succeeds always writes to
    it, so a regular file still empty at the end means the run stopped
    before writing, and it is removed: a failed run leaves no empty file.
    A device or a pipe is never removed, and the cleanup never replaces
    the run's own outcome."""
    with open(path, "w", encoding="utf-8", **kwargs) as f:
        try:
            yield f
        finally:
            with suppress(OSError):
                f.flush()
                st = os.fstat(f.fileno())
                if stat.S_ISREG(st.st_mode) and st.st_size == 0:
                    f.close()
                    os.remove(path)


def _fmt_float(x: float | None) -> str:
    return "-" if x is None else f"{x:.8f}"


def cmd_solve(args: argparse.Namespace) -> int:
    problem = parse_problem_file(args.file)
    levels = _parse_levels(args.level) if args.level else [problem.level]

    options = None
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise UsageError(f"--tol must be a positive finite number, got {args.tol!r}")
        options = ipm.SolverOptions(tol_gap=args.tol, tol_feas=args.tol)

    rows = []
    failed = False
    with _output_file(args.export) if args.export else nullcontext() as export:
        for level in levels:
            t0 = time.perf_counter()
            try:
                relax = build_relaxation(problem, level=level)
            except RelaxationError as e:
                raise RelaxationError(f"level {level}: {e}") from e
            result = relax.solve(options)
            wall = time.perf_counter() - t0
            rows.append({
                "level": level,
                "basis_size": len(relax.basis),
                "moment_variables": relax.n_moment_vars,
                # only an OPTIMAL level has a finite bound it certifies
                "bound": result.bound if result.status == ipm.Status.OPTIMAL else None,
                "gap": result.solution.gap,
                "status": result.status.value,
                "reason": result.solution.reason,
                "iterations": result.solution.iterations,
                "schur_dim": len(result.solution.y),
                "lmi_blocks": [len(X) for X in result.solution.X],
                # the stacks the solver ran on: a merged one holds several sizes
                "solver_stacks": [[len(result.solution.X[i]) for i in g]
                                  for g in result.solution.groups],
                "timings": result.solution.timings,
                "build_timings": relax.timings,
                "wall_time": wall,
            })
            if result.status != ipm.Status.OPTIMAL:
                _err(f"level {level}: {result.status.value}: {result.solution.reason}")
                failed = True
        if export:
            export.write(export_sdpa(to_equality_form(relax.model)))

    if args.json:
        print(json.dumps({
            "file": args.file,
            "name": problem.name,
            "sense": problem.sense,
            "levels": rows,
        }, indent=2))
    else:
        header = f"{'level':>5}  {'basis':>5}  {'vars':>5}  {'bound':>14}  " \
                 f"{'gap':>9}  {'status':<10}  {'time':>8}"
        print(header)
        for r in rows:
            print(f"{r['level']:>5}  {r['basis_size']:>5}  "
                  f"{r['moment_variables']:>5}  {_fmt_float(r['bound']):>14}  "
                  f"{r['gap']:>9.2e}  {r['status']:<10}  "
                  f"{r['wall_time']:>7.2f}s")

    if failed:
        _err("solver did not reach an optimal certificate at every level")
        return EXIT_SOLVER
    return 0


def cmd_jnc(args: argparse.Namespace) -> int:
    problem = parse_problem_file(args.file)

    fam = dict(jnc_family(problem))
    names = [t.strip() for t in args.pair.split(",")]
    if len(names) != 2:
        raise UsageError(f"--pair wants two comma-separated names, got {args.pair!r}")
    missing = [n for n in names if n not in fam]
    if missing:
        raise UsageError(f"unknown polynomial name {missing[0]!r} (have: {', '.join(fam)})")
    Fa, Fb = fam[names[0]], fam[names[1]]
    level = args.level if args.level is not None else problem.level
    K = args.directions
    if K < 1:
        raise UsageError("--directions must be at least 1")

    def moment_value(poly, moments):
        # jnc_family returns its polynomials in normal form
        return complex(sum(c * moments.get(w, 0j) for w, c in poly.terms()))

    with _output_file(args.out, newline="") if args.out else nullcontext(sys.stdout) as out:
        supports = []
        for k in range(K):
            theta = 2.0 * math.pi * k / K
            ux, uy = math.cos(theta), math.sin(theta)
            try:
                res = jnc_support(problem, [(Fa, -ux), (Fb, -uy)], level=level)
            except RelaxationError as e:
                raise RelaxationError(f"direction {k}: {e}") from e
            if res.status != ipm.Status.OPTIMAL:
                _err(f"direction {k}: solver status {res.status.value}")
                return EXIT_SOLVER
            h = -res.bound
            px = moment_value(Fa, res.moments).real
            py = moment_value(Fb, res.moments).real
            supports.append((theta, ux, uy, h, px, py))

        w = csv.writer(out)
        w.writerow(["kind", "angle", "dir_x", "dir_y", "support", "x", "y"])
        for theta, ux, uy, h, px, py in supports:
            w.writerow(["support", f"{theta:.12g}", f"{ux:.12g}", f"{uy:.12g}",
                        f"{h:.12g}", f"{px:.12g}", f"{py:.12g}"])
        if K >= 2:
            for k in range(K):
                t1, x1, y1, h1, _, _ = supports[k]
                t2, x2, y2, h2, _, _ = supports[(k + 1) % K]
                det = x1 * y2 - y1 * x2
                if abs(det) < 1e-12:
                    continue
                # intersection of u1.p = h1 with u2.p = h2
                vx = (h1 * y2 - h2 * y1) / det
                vy = (x1 * h2 - x2 * h1) / det
                w.writerow(["vertex", "", "", "", "",
                            f"{vx:.12g}", f"{vy:.12g}"])
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    # an imported model has equality rows only, and the reduction keeps them
    model = import_sdpa_file(args.sdpa_file)
    rep = parse_group_file(args.rep_file)
    red = reduce_sdp(model, rep)

    print(f"m = {red.commutant_dim}")
    print(f"reduced blocks {red.block_summary()}; "
          f"{len(red.model.rhs)} constraints")

    out_path = args.out or (args.sdpa_file + ".reduced.dat-s")
    export_sdpa_file(red.model, out_path)
    print(f"wrote {out_path}")

    if args.verify:
        full = ipm.solve(model)
        small = ipm.solve(red.model)
        if full.status != ipm.Status.OPTIMAL or small.status != ipm.Status.OPTIMAL:
            _err(f"verification solve failed: full {full.status.value}, "
                 f"reduced {small.status.value}")
            return EXIT_SOLVER
        diff = abs(full.primal_value - small.primal_value)
        print(f"full optimum    {_fmt_float(full.primal_value)}")
        print(f"reduced optimum {_fmt_float(small.primal_value)}")
        print(f"difference      {diff:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starsdp",
        description="Moment relaxations of *-algebra SDPs, with a built-in "
                    "interior-point solver and symmetry reduction.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="relax a problem file and solve it")
    p.add_argument("file", help="problem file")
    p.add_argument("--level", default=None,
                   help="relaxation level N, or range A-B for a table")
    p.add_argument("--tol", type=float, default=None,
                   help="solver gap and feasibility tolerance")
    p.add_argument("--export", metavar="PATH", default=None,
                   help="write the (last) relaxed model as sparse SDPA")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on standard output")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("jnc", help="sample a joint numerical cone slice")
    p.add_argument("file", help="problem file")
    p.add_argument("--pair", required=True, metavar="NAME,NAME",
                   help="two family names, e.g. F0,1 (F0 objective, "
                        "Fk k-th constraint, 1 the unit)")
    p.add_argument("--directions", type=int, default=16, metavar="K",
                   help="number of support directions (default 16)")
    p.add_argument("--level", type=int, default=None,
                   help="relaxation level (default: file setting)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write CSV here instead of standard output")
    p.set_defaults(fn=cmd_jnc)

    p = sub.add_parser("reduce", help="symmetry-reduce a conventional SDP")
    p.add_argument("sdpa_file", help="sparse SDPA input")
    p.add_argument("rep_file", help="group representation file")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output path (default: INPUT.reduced.dat-s)")
    p.add_argument("--verify", action="store_true",
                   help="solve both models and report the difference")
    p.set_defaults(fn=cmd_reduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except tuple(EXIT_CODES) as e:
        _err(str(e))
        return next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
