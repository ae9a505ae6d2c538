"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins a published behavior of the package at its stated tolerance,
so the per-test pass/fail line of `pytest -v` doubles as the acceptance
report.  Everything here goes through public entry points only: the
command line, problem files, and the exported library API.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from starsdp import (
    Block,
    ConcreteRealization,
    GroupRep,
    LinearConstraint,
    RelaxationError,
    SDPModel,
    Word,
    build_relaxation,
    chsh_classical_max,
    chsh_tsirelson_realization,
    expand_gram,
    export_sdpa_file,
    grid_min,
    import_sdpa_file,
    invariant_basis,
    ipm,
    normal_form,
    parse_problem_file,
    realize_moments,
    reduce_sdp,
)

from support import (
    c3_rep,
    invariant_instance,
    random_involution_problem,
    reflection,
    reflection_realization,
)

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
ROOT2 = 2.0 * math.sqrt(2.0)

TIGHT = ipm.SolverOptions(tol_gap=1e-9, tol_feas=1e-9)


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "starsdp", *argv],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    return proc, time.perf_counter() - t0


def entry_words(relax):
    """Every word a moment assignment must cover to fill the blocks."""
    words = set()
    for blk in relax.entries:
        for row in blk:
            for p in row:
                words.update(p.words())
    return sorted(words)


def realization_report(relax, real):
    moments = realize_moments(real, entry_words(relax))
    blocks = relax.blocks_from_moments(moments)
    report = ipm.feasibility_check(relax.model, blocks)
    value = relax.evaluate(relax.problem.objective, moments)
    return report, value


# --- 1: CHSH quantum bound through the command line ---------------------


def test_cli_chsh_reaches_quantum_bound():
    proc, dt = run_cli("solve", str(PROBLEMS / "chsh.csdp"),
                       "--level", "1", "--json")
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)["levels"][0]
    assert row["status"] == "OPTIMAL"
    assert abs(row["bound"] - ROOT2) <= 1e-6
    assert dt < 1.0, f"level 1 took {dt:.2f}s"

    proc, dt = run_cli("solve", str(PROBLEMS / "chsh.csdp"),
                       "--level", "2", "--json")
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)["levels"][0]
    assert abs(row["bound"] - ROOT2) <= 1e-6
    assert dt < 10.0, f"level 2 took {dt:.2f}s"


# --- 2: classical value <= realized quantum value <= relaxation bound ---


def test_chsh_sandwich():
    problem = parse_problem_file(str(PROBLEMS / "chsh.csdp"))
    classical = chsh_classical_max()
    assert classical == 2.0

    relax = build_relaxation(problem, level=1)
    res = relax.solve(TIGHT)
    assert res.status == ipm.Status.OPTIMAL

    real = chsh_tsirelson_realization(problem.presentation)
    report, value = realization_report(relax, real)
    assert report.max_violation <= 1e-8
    assert abs(value.imag) <= 1e-9
    realized = value.real
    assert abs(realized - ROOT2) <= 1e-9
    assert classical <= realized <= res.bound + 1e-6


# --- 3: single-variable quartic agrees with the grid oracle -------------


def test_quartic_minimum_matches_grid():
    problem = parse_problem_file(str(PROBLEMS / "lasserre_x4.csdp"))
    t0 = time.perf_counter()
    relax = build_relaxation(problem, level=2)
    res = relax.solve(TIGHT)
    dt = time.perf_counter() - t0
    assert res.status == ipm.Status.OPTIMAL
    assert abs(res.bound - (-0.25)) <= 1e-5
    assert dt < 1.0, f"took {dt:.2f}s"

    # spacing 1e-4 over the declared-positive box [-1, 1]
    grid = grid_min(problem.presentation, problem.objective,
                    constraints=[(p, ">=", 0.0) for p in problem.positives],
                    bounds=(-1.0, 1.0), points=20001)
    assert abs(res.bound - grid) <= 1e-4


# --- 4: hierarchy levels are monotone, realized states stay feasible ----


def sign_realizations(pres):
    k = len(pres.generators)
    for bits in range(1 << k):
        mats = {g.name: np.array([[1.0 if bits >> i & 1 else -1.0]])
                for i, g in enumerate(pres.generators)}
        yield ConcreteRealization(pres, mats, np.array([1.0]))


def hierarchy_chain(problem, name):
    out = {}
    for level in (1, 2, 3):
        try:
            relax = build_relaxation(problem, level=level)
        except RelaxationError:
            continue
        res = relax.solve(TIGHT)
        sol = res.solution
        assert res.status == ipm.Status.OPTIMAL, (
            f"{name}, level {level} ended {res.status.name} after "
            f"{sol.iterations} iterations: gap {sol.gap:.2e}, primal "
            f"residual {sol.primal_res:.2e}, dual residual {sol.dual_res:.2e}")
        out[level] = (relax, res.bound)
    return out


def check_instance(problem, realizations, name):
    chain = hierarchy_chain(problem, name)
    assert len(chain) >= 2
    for d in (1, 2):
        if d in chain and d + 1 in chain:
            assert chain[d][1] <= chain[d + 1][1] + 1e-7, \
                f"level {d} bound {chain[d][1]} above level {d + 1} {chain[d + 1][1]}"
    top = max(chain)
    for real in realizations:
        for level, (relax, bound) in chain.items():
            report, value = realization_report(relax, real)
            assert report.max_violation <= 1e-7
            assert abs(value.imag) <= 1e-9
            assert value.real >= bound - 1e-7
    return chain


def test_hierarchy_monotone_on_random_instances():
    rng = np.random.default_rng(404)
    saw_level_one = 0

    for trial in range(20):
        k = int(rng.integers(1, 4))
        max_deg = 2 if trial % 2 == 0 else 4
        problem = random_involution_problem(rng, k, commuting=True,
                                            max_deg=max_deg)
        chain = check_instance(problem, sign_realizations(problem.presentation),
                               f"commuting trial {trial} (k={k})")
        saw_level_one += 1 in chain

    for trial in range(10):
        k = int(rng.integers(2, 4))
        max_deg = 2 if trial % 2 == 0 else 4
        problem = random_involution_problem(rng, k, commuting=False,
                                            max_deg=max_deg)
        reals = [reflection_realization(problem.presentation, rng)
                 for _ in range(3)]
        chain = check_instance(problem, reals, f"free trial {trial} (k={k})")
        saw_level_one += 1 in chain

    # the pool must actually exercise the level-1 to level-2 step
    assert saw_level_one >= 10


# --- 5: squares map to positives in every concrete realization ----------


def test_positive_squares_stay_positive():
    rng = np.random.default_rng(55)

    chsh = parse_problem_file(str(PROBLEMS / "chsh.csdp"))
    chsh_relax = build_relaxation(chsh, level=1)

    free = random_involution_problem(rng, 3, commuting=False, max_deg=2)
    free_relax = build_relaxation(free, level=2)

    for trial in range(100):
        if trial % 2 == 0:
            relax, pres = chsh_relax, chsh.presentation
            R = [reflection(rng, 2) for _ in range(4)]
            I2 = np.eye(2)
            mats = {"A0": np.kron(R[0], I2), "A1": np.kron(R[1], I2),
                    "B0": np.kron(I2, R[2]), "B1": np.kron(I2, R[3])}
            psi = rng.standard_normal(4)
            real = ConcreteRealization(pres, mats, psi / np.linalg.norm(psi))
        else:
            relax, pres = free_relax, free.presentation
            real = reflection_realization(pres, rng)

        n = len(relax.basis)
        B = rng.standard_normal((n, n))
        poly = expand_gram(relax, B @ B.T)
        val = real.eval_poly(poly)
        low = float(np.linalg.eigvalsh((val + val.conj().T) / 2)[0])
        assert low >= -1e-9, f"trial {trial}: eigenvalue {low}"


# --- 6: solver pins the analytic optimum, weak duality, SDPA round trip -


def feasible_start_instance(rng, sizes, m):
    def sym(n):
        S = rng.standard_normal((n, n))
        return (S + S.T) / 2

    def posdef(n):
        W = rng.standard_normal((n, n))
        return W @ W.T / n + 0.5 * np.eye(n)

    A = [[sym(n) for n in sizes] for _ in range(m)]
    X0 = [posdef(n) for n in sizes]
    Z0 = [posdef(n) for n in sizes]
    y0 = rng.standard_normal(m)
    C = [sum(y0[k] * A[k][i] for k in range(m)) + Z0[i]
         for i in range(len(sizes))]
    cons = [LinearConstraint(A[k], "==",
                             float(sum(np.sum(A[k][i] * X0[i])
                                       for i in range(len(sizes)))))
            for k in range(m)]
    model = SDPModel([Block(n) for n in sizes], C, cons)
    return model, (X0, np.zeros(m) + y0, Z0)


def test_solver_analytic_value_weak_duality_sdpa_roundtrip(tmp_path):
    E11 = np.zeros((3, 3))
    E11[0, 0] = 1.0
    pin = SDPModel([Block(3)], [np.eye(3)],
                   [LinearConstraint([E11], "==", 1.0)])
    sol = ipm.solve(pin, ipm.SolverOptions(tol_gap=1e-11, tol_feas=1e-11))
    assert sol.status == ipm.Status.OPTIMAL
    assert abs(sol.primal_value - 1.0) <= 1e-9

    rng = np.random.default_rng(66)
    shapes = [([4], 2), ([6], 4), ([3, 5], 3), ([2, 2, 4], 5), ([8], 6)]
    for sizes, m in shapes:
        model, start = feasible_start_instance(rng, sizes, m)
        sol = ipm.solve(model, TIGHT, start=start)
        assert sol.status == ipm.Status.OPTIMAL
        assert sol.history, "no iterates recorded"
        for it in sol.history:
            assert it.primal >= it.dual - 1e-7, \
                f"iterate violates weak duality: {it.primal} < {it.dual}"

    for name, model in [("pin", pin),
                        ("random", feasible_start_instance(rng, [5], 4)[0])]:
        path = tmp_path / f"{name}.dat-s"
        export_sdpa_file(model, str(path))
        back = import_sdpa_file(str(path))
        v1 = ipm.solve(model, TIGHT).primal_value
        v2 = ipm.solve(back, TIGHT).primal_value
        assert abs(v1 - v2) <= 1e-8


# --- 7: symmetry reduction preserves optima -----------------------------


def test_symmetry_reduction_agrees_with_full_solve():
    rep = c3_rep()
    rng = np.random.default_rng(77)
    for trial in range(10):
        model = invariant_instance(rep, 3, rng)
        red = reduce_sdp(model, rep)
        full = ipm.solve(model, TIGHT)
        small = ipm.solve(red.model, TIGHT)
        assert full.status == ipm.Status.OPTIMAL
        assert small.status == ipm.Status.OPTIMAL
        diff = abs(full.primal_value - small.primal_value)
        assert diff <= 1e-6, f"trial {trial}: optima differ by {diff:.2e}"

    inv = invariant_basis(rep)
    n = inv.dim
    gram = np.array([[np.trace(inv.mats[i].conj().T @ inv.mats[j])
                      for j in range(n)] for i in range(n)])
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
    assert inv.reconstruction_residual() <= 1e-8

    trivial = invariant_basis(GroupRep([np.eye(4)]))
    assert trivial.dim == 16


# --- 8: rewriting laws hold on fuzzed words -----------------------------


@pytest.mark.parametrize("stem", ["chsh", "lasserre_x4", "phased_involution"])
def test_rewriting_laws_on_fuzzed_words(stem):
    pres = parse_problem_file(str(PROBLEMS / f"{stem}.csdp")).presentation
    k = len(pres.generators)
    rng = np.random.default_rng(hash(stem) % 2**32)

    def rand_word():
        deg = int(rng.integers(0, 7))
        return Word(tuple((int(rng.integers(0, k)), bool(rng.integers(0, 2)))
                          for _ in range(deg)))

    for _ in range(1000):
        w, u = rand_word(), rand_word()
        nf = normal_form(w, pres)
        again = normal_form(nf, pres)
        assert again.close_to(nf, 1e-9), f"not idempotent on {w}"

        star_then_nf = normal_form(w.adjoint(), pres)
        nf_then_star = normal_form(nf.adjoint(), pres)
        assert star_then_nf.close_to(nf_then_star, 1e-9), \
            f"involution incompatible on {w}"

        lhs = normal_form(w.concat(u).adjoint(), pres)
        rhs = normal_form(normal_form(u.adjoint(), pres)
                          * normal_form(w.adjoint(), pres), pres)
        assert lhs.close_to(rhs, 1e-9), f"star is not an anti-map on {w}, {u}"
