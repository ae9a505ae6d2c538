"""The four benchmark workloads: inputs made from a seed, the operations a
pass runs, and the correctness check of every operation's output.

An operation is one build_relaxation(problem, level) followed by
RelaxationModel.solve, moment readout included; on symmetry-reduce it is
one reduce_sdp, ipm.solve on the reduced model and ReducedSDP.expand.
Every library call an operation makes goes through a module attribute
(`relaxation.build_relaxation`, `ipm.solve`, ...) so the tracer can wrap it.

All solves use tol_gap = tol_feas = 1e-9, the acceptance suite's TIGHT.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from starsdp import ipm, oracles, problems, relaxation, sdpmodel, symmetry
from starsdp.algebra import Polynomial, Word, normal_form

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9
TIGHT = ipm.SolverOptions(tol_gap=TOL, tol_feas=TOL)
OPTIMAL = ipm.Status.OPTIMAL

ROOT2 = 2.0 * math.sqrt(2.0)
LADDER_BOUND = 5.196152422       # seed-commit optimum at levels 1-3
PAULI_VALUE = 2.0 * math.sqrt(3.0)

LADDER_TEXT = """\
[generators]
x selfadjoint
y selfadjoint
z selfadjoint

[relations]
x^2 = 1
y^2 = 1
z^2 = 1

[objective]
maximize i*x*y - i*y*x + i*y*z - i*z*y + i*z*x - i*x*z
"""


def solve_relaxation(problem, level):
    relax = relaxation.build_relaxation(problem, level)
    return relax, relax.solve(TIGHT)


def relaxation_shape(out) -> dict:
    relax, res = out
    sol = res.solution
    nnz = sum(int(np.count_nonzero(A)) for con in relax.model.constraints
              for A in con.matrices)
    nnz += sum(con.sense != "==" for con in relax.model.constraints)
    return {"basis": len(relax.basis), "rows": len(sol.y),
            "vars": relax.n_moment_vars, "sizes": [X.shape[0] for X in sol.X],
            "iterations": sol.iterations, "nnz": nnz}


def entry_words(relax):
    """Every word a moment assignment must cover to fill the blocks."""
    words = set()
    for blk in relax.entries:
        for row in blk:
            for p in row:
                words.update(p.words())
    return sorted(words)


def realization_failure(relax, real, bound, sense):
    """Why a concrete realization breaks the sandwich (None if it does not),
    and its objective value.

    The realization's moments must be feasible for the relaxation, and its
    value must lie on the feasible side of the bound: sense is +1 when the
    bound is an upper one (maximize), -1 when it is a lower one."""
    moments = oracles.realize_moments(real, entry_words(relax))
    report = ipm.feasibility_check(relax.model, relax.blocks_from_moments(moments))
    value = relax.evaluate(relax.problem.objective, moments)
    if report.max_violation > 1e-7:
        return f"realization infeasible by {report.max_violation:.2e}", value
    if abs(value.imag) > 1e-9:
        return f"realized value has imaginary part {value.imag:.2e}", value
    if sense * (value.real - bound) > 1e-7:
        return f"realized value {value.real:.10g} beyond bound {bound:.10g}", value
    return None, value


class RelaxationWorkload:
    """Ops that return (RelaxationModel, RelaxationResult)."""

    status = staticmethod(lambda out: out[1].status)
    shape = staticmethod(relaxation_shape)


class Ladder(RelaxationWorkload):
    """One problem solved at each of a fixed list of levels."""

    def __init__(self, problem, levels):
        self.problem = problem
        self.levels = levels

    def ops(self):
        return [(f"L{d}", lambda d=d: solve_relaxation(self.problem, d))
                for d in self.levels]


class NpaDeep(Ladder):
    """CHSH at levels 1-4; the inputs do not depend on the seed."""

    name = "npa-deep"

    def __init__(self, seed):
        super().__init__(problems.parse_problem_file(
            str(ROOT / "problems" / "chsh.csdp")), (1, 2, 3, 4))

    def check(self, outs):
        return [None if abs(res.bound - ROOT2) <= 1e-6
                else f"bound {res.bound:.10g} is not 2*sqrt(2)"
                for _, res in outs]


class ComplexLadder(Ladder):
    """Three free involutions with a purely imaginary objective, levels 1-3,
    through the Hermitian path; the inputs do not depend on the seed."""

    name = "complex-ladder"

    def __init__(self, seed):
        super().__init__(problems.parse_problem(LADDER_TEXT, "complex-ladder"),
                         (1, 2, 3))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        _, vecs = np.linalg.eigh(-2.0 * (sx + sy + sz))
        self.pauli = oracles.ConcreteRealization(
            self.problem.presentation, {"x": sx, "y": sy, "z": sz}, vecs[:, -1])

    def check(self, outs):
        """The seed-commit bound, and the Pauli realization, worth 2*sqrt(3),
        feasible and under the bound."""
        reasons = []
        for relax, res in outs:
            why, value = realization_failure(relax, self.pauli, res.bound, +1)
            if abs(res.bound - LADDER_BOUND) > 1e-6:
                why = f"bound {res.bound:.10g} is not {LADDER_BOUND}"
            elif why is None and abs(value.real - PAULI_VALUE) > 1e-9:
                why = f"Pauli realization worth {value.real:.10g}, not 2*sqrt(3)"
            reasons.append(why)
        return reasons


# --- hierarchy-pool: the acceptance suite's random involution problems ---


def random_involution_problem(rng, k, commuting, max_deg):
    names = "xyz"[:k]
    lines = ["[generators]"]
    lines += [f"{n} selfadjoint" for n in names]
    lines += ["[relations]"]
    lines += [f"{n}^2 = 1" for n in names]
    if commuting and k >= 2:
        lines.append("[commute]")
        for i in range(k - 1):
            rest = ", ".join(names[i + 1:])
            lines.append(f"{{{names[i]}}} with {{{rest}}}")
    lines += ["[objective]", f"minimize {names[0]}"]
    skeleton = problems.parse_problem("\n".join(lines) + "\n")
    pres = skeleton.presentation

    p = Polynomial.zero()
    for _ in range(int(rng.integers(3, 7))):
        deg = int(rng.integers(0, max_deg + 1))
        w = Word(tuple((int(rng.integers(0, k)), False) for _ in range(deg)))
        p = p + Polynomial.from_word(w, float(rng.uniform(-1.0, 1.0)))
    p = 0.5 * (p + p.adjoint())
    obj = normal_form(p, pres)
    if obj.degree() == 0:
        obj = obj + normal_form(Polynomial.from_word(Word(((0, False),))), pres)
    return dataclasses.replace(skeleton, objective=obj, name="random")


def reflection(rng, d):
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.eye(d) - 2.0 * np.outer(v, v)


def sign_realizations(pres):
    k = len(pres.generators)
    return [oracles.ConcreteRealization(
        pres, {g.name: np.array([[1.0 if bits >> i & 1 else -1.0]])
               for i, g in enumerate(pres.generators)}, np.array([1.0]))
        for bits in range(1 << k)]


def reflection_realization(pres, rng, d=4):
    mats = {g.name: reflection(rng, d) for g in pres.generators}
    psi = rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return oracles.ConcreteRealization(pres, mats, psi)


class HierarchyPool(RelaxationWorkload):
    """Many tiny SDPs: 200 random involution problems at levels 1 and 2.

    Problems come in repeated blocks of 20 commuting and 10 free ones, with
    the distribution and random-draw order of the acceptance test
    test_hierarchy_monotone_on_random_instances, whose seed is 404.  A level
    the problem's degree rules out raises RelaxationError and is no
    operation; its attempt still counts toward the pass time.
    """

    name = "hierarchy-pool"
    size = 200
    levels = (1, 2)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.pool = []
        while len(self.pool) < self.size:
            for trial in range(20):
                if len(self.pool) == self.size:
                    break
                problem = random_involution_problem(
                    rng, int(rng.integers(1, 4)), True, 2 if trial % 2 == 0 else 4)
                self.pool.append((problem, sign_realizations(problem.presentation)))
            for trial in range(10):
                if len(self.pool) == self.size:
                    break
                problem = random_involution_problem(
                    rng, int(rng.integers(2, 4)), False, 2 if trial % 2 == 0 else 4)
                reals = [reflection_realization(problem.presentation, rng)
                         for _ in range(3)]
                self.pool.append((problem, reals))

    def ops(self):
        return [(f"problem {i} L{d}", lambda p=problem, d=d: self._attempt(p, d))
                for i, (problem, _) in enumerate(self.pool) for d in self.levels]

    @staticmethod
    def _attempt(problem, level):
        try:
            return solve_relaxation(problem, level)
        except relaxation.RelaxationError:
            return None

    def check(self, outs):
        """Levels monotone within 1e-7, and every realization feasible with
        a value no lower than the bound, as in the acceptance test's
        check_instance.  Ops that did not end OPTIMAL are not checked."""
        reasons = [None] * len(outs)
        nl = len(self.levels)
        for i, (_, reals) in enumerate(self.pool):
            chain = [(nl * i + j, outs[nl * i + j]) for j in range(nl)]
            chain = [(k, out) for k, out in chain
                     if out is not None and out[1].status == OPTIMAL]
            for k, (relax, res) in chain:
                for real in reals:
                    why, _ = realization_failure(relax, real, res.bound, -1)
                    if why:
                        reasons[k] = why
                        break
            for (_, (_, lo)), (k, (_, hi)) in zip(chain, chain[1:]):
                if lo.bound > hi.bound + 1e-7 and reasons[k] is None:
                    reasons[k] = (f"bound {hi.bound:.10g} below the lower "
                                  f"level's {lo.bound:.10g}")
        return reasons


# --- symmetry-reduce: invariant SDPs under permutation groups ------------


def permutation_matrix(perm):
    P = np.zeros((len(perm), len(perm)))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return P


def cyclic_two_orbits(n):
    """Z_n rotating two disjoint n-cycles at once, acting on 2n points."""
    P = permutation_matrix([(i + 1) % n for i in range(n)]
                           + [n + (i + 1) % n for i in range(n)])
    mats = [np.eye(2 * n)]
    for _ in range(n - 1):
        mats.append(mats[-1] @ P)
    return symmetry.GroupRep(mats)


def dihedral(n):
    """The symmetry group of the n-gon, order 2n, acting on its vertices."""
    R = permutation_matrix([(i + 1) % n for i in range(n)])
    F = permutation_matrix([(-i) % n for i in range(n)])
    mats, power = [], np.eye(n)
    for _ in range(n):
        mats += [power, power @ F]
        power = power @ R
    return symmetry.GroupRep(mats)


def invariant_instance(rep, n_cons, rng):
    """Random bounded-feasible SDP with group-averaged data, drawn as in
    the test suite's support.invariant_instance: a unit-trace row plus
    n_cons rows satisfied by a strictly feasible point."""
    d = rep.dim
    C = rep.average(rng.standard_normal((d, d)))
    C = np.real(C + C.conj().T) / 2 + 3.0 * np.eye(d)
    X0 = rng.standard_normal((d, d))
    X0 = X0 @ X0.T + np.eye(d)
    X0 /= np.trace(X0)
    cons = [sdpmodel.LinearConstraint([np.eye(d)], "==", 1.0)]
    for _ in range(n_cons):
        A = rep.average(rng.standard_normal((d, d)))
        A = np.real(A + A.conj().T) / 2
        cons.append(sdpmodel.LinearConstraint([A], "==", float(np.trace(A @ X0))))
    return sdpmodel.SDPModel([sdpmodel.Block(d)], [C], cons)


class SymmetryReduce:
    """reduce_sdp, the reduced solve and the expansion on three seeded
    invariant SDPs with 4 constraint rows per group.  The cyclic groups have
    a commutant larger than the block, the dihedral ones a smaller one.
    One instance of C6 takes 9 to 11 iterations, depending on the draw;
    three of them average that out of the pass time."""

    name = "symmetry-reduce"
    groups = (("C3x2", lambda: cyclic_two_orbits(3)),
              ("C4x2", lambda: cyclic_two_orbits(4)),
              ("C6x2", lambda: cyclic_two_orbits(6)),
              ("D12", lambda: dihedral(12)),
              ("D16", lambda: dihedral(16)))
    copies = 3

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.cases = []
        for label, make in self.groups:
            rep = make()
            for copy in range(self.copies):
                self.cases.append((f"{label} #{copy + 1}", rep,
                                   invariant_instance(rep, 4, rng)))
        self.reference = None

    def solve_references(self):
        """Full, unreduced solves the checks compare against; untimed."""
        self.reference = [ipm.solve(model, TIGHT) for _, _, model in self.cases]

    def ops(self):
        return [(label, lambda rep=rep, model=model: self._reduce_and_solve(model, rep))
                for label, rep, model in self.cases]

    @staticmethod
    def _reduce_and_solve(model, rep):
        red = symmetry.reduce_sdp(model, rep)
        sol = ipm.solve(red.model, TIGHT)
        return red, sol, red.expand(sol)

    status = staticmethod(lambda out: out[1].status)

    @staticmethod
    def shape(out):
        red, sol, _ = out
        nnz = sum(int(np.count_nonzero(A)) for con in red.model.constraints
                  for A in con.matrices)
        return {"rows": len(sol.y), "sizes": [X.shape[0] for X in sol.X],
                "iterations": sol.iterations, "nnz": nnz,
                "orig_block": red.original.blocks[0].size,
                "orig_rows": len(red.original.constraints),
                "red_block": red.model.blocks[0].size,
                "commutant_dim": red.commutant_dim}

    def check(self, outs):
        reasons = []
        for (_, _, model), full, (_, sol, X) in zip(self.cases, self.reference, outs):
            diff = abs(sol.primal_value - full.primal_value)
            violation = ipm.feasibility_check(model, [X]).max_violation
            if full.status != OPTIMAL:
                reasons.append(f"reference solve ended {full.status.name}")
            elif diff > 1e-6:
                reasons.append(f"reduced optimum differs from the full one by {diff:.2e}")
            elif violation > 1e-7:
                reasons.append(f"expanded X infeasible by {violation:.2e}")
            else:
                reasons.append(None)
        return reasons


WORKLOADS = {cls.name: cls for cls in (NpaDeep, ComplexLadder, HierarchyPool,
                                       SymmetryReduce)}
