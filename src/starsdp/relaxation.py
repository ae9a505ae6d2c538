"""Moment relaxation: from an algebra problem to a finite block SDP.

A hierarchy level is one positivity condition.  Over a word basis
(gamma_i) the moment blocks have entries that are normal forms of
gamma_i * weight * gamma_j-adjoint, with weight 1 for the main block and a
declared positive for each localizing block.  Words appearing in those
entries become shared scalar unknowns, tied only by the adjoint pairing
omega(w*) = conj omega(w).  When w* rewrites to a single term c u, the
moment of w is conj(c) times the conjugate of the moment of u.  Following
these ties from word to word ends at a word whose adjoint is not a single
term, which carries two real parameters (a free complex value), or runs
into a cycle, u = w or a pair w, u most often, whose smallest word carries
one (a real line through a phase, for an odd cycle) or two (for an even
one), or none when the ties disagree.  The blocks are then one linear map

    P p = orthonormal coordinates of every block,

of the real parameters p, and the moments of the words are W p.

The relaxation is solved as a linear matrix inequality in p, as NPA and
Lasserre's hierarchy state it: Gamma(p) = sum_k p_k H_k psd, where the H_k
are the blocks whose coordinates are the columns of P.  The unit moment
and the scalar equalities are eliminated first, p = p0 + N q, and each
scalar inequality becomes a 1x1 block.  The solver takes this LMI as its
dual with y = q, so its Schur matrix has one row per free parameter, its
dual slacks Z are the moment blocks at p, its X is a Gram (sum of squares)
certificate of the bound, and the moments are read back exactly as W p.

RelaxationModel.model states the same relaxation in row form, an SDP whose
X are the moment blocks, derived on first access from the same P, p0 and
N: its equality rows, an orthonormal basis of the complement of range(P N),
hold the scalar equalities folded in, and the objective and inequalities
are least-norm representatives on the rows of P.  Feasibility checks of
given moments and the SDPA export read it; the solve does not.

Soundness rule of thumb kept throughout: every emitted row must be implied
by genuine moment vectors of the presented algebra, so the feasible set can
only grow relative to the true problem and optima stay one-sided bounds.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    Polynomial, Presentation, Word, UNIT_WORD,
    is_normal_form, normal_form, poly_mul, word_adjoint,
)
from .problems import ProblemFile, word_to_str, poly_to_str
from .sdpmodel import (
    Block, LinearConstraint, SDPModel, HermitianModel,
    SENSE_EQ, SENSE_GE, realify, realify_matrix, unrealify_matrix,
)
# not called here; bench/tracing.py wraps it under this module's name
from .sdpmodel import to_equality_form  # noqa: F401
from . import ipm

BASIS_CAP = 2000
CONSISTENCY_TOL = 1e-9
RANK_TOL = 1e-9        # relative to the largest singular value
REPRESENT_TOL = 1e-8


class RelaxationError(Exception):
    pass


class NotRepresentableError(RelaxationError):
    pass


class RelaxationWarning(UserWarning):
    pass


def generate_basis(pres: Presentation, level: int) -> list[Word]:
    """All rewriting-irreducible words of degree up to level, canonically
    sorted (degree, then letters).  The level-d list is a prefix of the
    level-(d+1) list, which is what makes bounds monotone across levels."""
    if level < 0:
        raise RelaxationError("level must be nonnegative")
    alphabet = []
    for g in range(len(pres.generators)):
        alphabet.append((g, False))
        if not pres.selfadjoint(g):
            alphabet.append((g, True))
    words: list[Word] = [UNIT_WORD]
    frontier = [UNIT_WORD]
    for _ in range(level):
        nxt = []
        for w in frontier:
            for letter in alphabet:
                cand = Word(w.letters + (letter,))
                if is_normal_form(cand, pres):
                    nxt.append(cand)
        frontier = nxt
        words.extend(nxt)
        if len(words) > BASIS_CAP:
            raise RelaxationError(
                f"moment basis exceeds cap ({BASIS_CAP}) before level {level}; "
                "lower the level or raise relaxation.BASIS_CAP")
    return sorted(words)


# Orthonormal coordinates of a block of size n: the upper triangle in
# np.triu_indices order, a diagonal entry with weight 1 and an off-diagonal
# one as sqrt(2) Re, followed in complex mode by sqrt(2) Im of the strict
# upper triangle.  The trace pairing of two blocks is then the dot product
# of their coordinates.

def _n_coords(n: int, real_mode: bool) -> int:
    return n * (n + 1) // 2 if real_mode else n * n


def _coords(V: np.ndarray, n: int, real_mode: bool) -> np.ndarray:
    """Coordinates, along axis 0, of the blocks whose upper triangles run
    along axis 0 of V."""
    i, j = np.triu_indices(n)
    re = (np.where(i == j, 1.0, math.sqrt(2.0)) * V.real.T).T
    if real_mode:
        return re
    return np.concatenate([re, math.sqrt(2.0) * V[i != j].imag])


def _matrices(C: np.ndarray, n: int, real_mode: bool) -> np.ndarray:
    """Blocks, stacked along axis 0, whose coordinates are the columns of C."""
    i, j = np.triu_indices(n)
    t = len(i)
    A = np.zeros((C.shape[1], n, n), dtype=float if real_mode else complex)
    A[:, i, j] = C[:t].T
    if not real_mode:
        A[:, i[i != j], j[i != j]] += 1j * C[t:].T
    A *= np.where(np.eye(n, dtype=bool), 1.0, math.sqrt(0.5))
    A[:, j, i] = np.conj(A[:, i, j])
    return A


@dataclass
class RelaxationResult:
    """A solved relaxation.

    bound is the relaxation's optimum in the problem's sense.  status is
    UNBOUNDED when the moments push the objective without limit and
    INFEASIBLE when no moment blocks are feasible; bound is then the
    infinite optimum, -inf and +inf for a minimization.  After MAX_ITER or
    NUMERICAL it is the last iterate's estimate and certifies nothing.

    solution is the solver's record of the moment LMI, which it takes as
    its dual: y holds the free parameters q of p = p0 + N q, Z the moment
    blocks at p followed by one 1x1 slack per scalar inequality, and X a
    Gram (sum of squares) certificate of the bound, all realified in
    complex mode.  Its status is the solver's own, where INFEASIBLE and
    UNBOUNDED are swapped.

    moments and moment_matrix, the main block, are read from y and Z when
    the solve ended OPTIMAL or MAX_ITER, and are empty otherwise."""

    bound: float
    status: ipm.Status
    solution: ipm.Solution
    moments: dict[Word, complex]
    moment_matrix: np.ndarray
    level: int


# a certificate of the LMI's primal side speaks about its dual, the moments
_DUAL_STATUS = {ipm.Status.INFEASIBLE: ipm.Status.UNBOUNDED,
                ipm.Status.UNBOUNDED: ipm.Status.INFEASIBLE}


@dataclass
class RelaxationModel:
    problem: ProblemFile
    level: int
    real_mode: bool
    bases: list[list[Word]]            # per block, main block first
    weights: list[Polynomial]          # block weight polynomials, unit first
    entries: list[list[list[Polynomial]]]
    n_moment_vars: int
    sense_factor: float                # +1 minimize, -1 maximize
    _P: np.ndarray = field(repr=False, default=None)   # params -> block coordinates
    _W: np.ndarray = field(repr=False, default=None)   # params -> moments of _var_words
    _var_words: list[Word] = field(repr=False, default_factory=list)
    _roots: list[Word] = field(repr=False, default_factory=list)  # root word per param
    _p0: np.ndarray = field(repr=False, default=None)  # params = _p0 + _N q
    _N: np.ndarray = field(repr=False, default=None)
    _f: np.ndarray = field(repr=False, default=None)   # objective, times sense_factor
    _ineq: list[tuple] = field(repr=False, default_factory=list)  # (g, sense, rhs): g.p sense rhs
    _lmi: SDPModel = field(repr=False, default=None)   # the LMI in q, as the solver's dual

    @property
    def basis(self) -> list[Word]:
        return self.bases[0]

    @functools.cached_property
    def model(self) -> SDPModel:
        """The row form, X = the moment blocks (realified when complex),
        built on first access and cached; the solve does not read it."""
        U, sv, _ = np.linalg.svd(self._P @ self._N)
        Q = U[:, int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0:]
        data = [self._representative(self._f, "the objective"), Q]
        data += [self._representative(g, "a scalar constraint") for g, _, _ in self._ineq]
        rows = [(SENSE_EQ, float(r)) for r in Q.T @ (self._P @ self._p0)]
        rows += [(sense, float(rhs)) for _, sense, rhs in self._ineq]
        cost, constraints = _trace_form(self._stacks(np.column_stack(data)), rows)
        if self.real_mode:
            return SDPModel([Block(len(b)) for b in self.bases], cost, constraints)
        return realify(HermitianModel([len(b) for b in self.bases], cost, constraints))

    def _stacks(self, columns: np.ndarray) -> list[np.ndarray]:
        """Per block, the stack of matrices whose coordinates are the columns."""
        sizes = [len(b) for b in self.bases]
        offsets = np.cumsum([_n_coords(n, self.real_mode) for n in sizes])[:-1]
        return [_matrices(C, n, self.real_mode) for C, n in zip(np.split(columns, offsets), sizes)]

    def solve(self, options: ipm.SolverOptions | None = None) -> RelaxationResult:
        sol = ipm.solve(self._lmi, options)
        # min f.p = f.p0 + min (f N).q = f.p0 - max b.y with b = -f N
        bound = self.sense_factor * (float(self._f @ self._p0) - sol.dual_value)
        moments = {}
        gamma = np.zeros((0, 0))
        if sol.status in (ipm.Status.OPTIMAL, ipm.Status.MAX_ITER):
            values = self._W @ (self._p0 + self._N @ sol.y)
            moments = {w: complex(v) for w, v in zip(self._var_words, values)}
            gamma = sol.Z[0] if self.real_mode else unrealify_matrix(sol.Z[0])
        status = _DUAL_STATUS.get(sol.status, sol.status)
        if status in _DUAL_STATUS:
            bound = self.sense_factor * np.inf * (1 if status == ipm.Status.INFEASIBLE else -1)
        return RelaxationResult(bound, status, sol, moments, gamma, self.level)

    def _functional(self, p: Polynomial, what: str) -> np.ndarray:
        """Complex f with omega(p) = f . params."""
        index = {w: k for k, w in enumerate(self._var_words)}
        o = np.zeros(len(index), dtype=complex)
        for w, c in p.terms():
            if w not in index:
                raise NotRepresentableError(
                    f"{what} involves {word_to_str(w, self.problem.presentation)}, "
                    "which lies outside this moment structure; raise the level")
            o[index[w]] += c
        return o @ self._W

    def _representative(self, f: np.ndarray, what: str, n_rows: int | None = None
                        ) -> np.ndarray:
        """Least-norm coordinates c, on the first n_rows rows of P, of the
        trace functional worth f . p at every parameter vector p."""
        P = self._P[:n_rows]
        c = np.linalg.lstsq(P.T, f, rcond=None)[0]
        resid = np.abs(P.T @ c - f)
        if np.max(resid, initial=0.0) > REPRESENT_TOL:
            root = self._roots[int(np.argmax(resid))]
            raise NotRepresentableError(
                f"{what} involves {word_to_str(root, self.problem.presentation)}, "
                f"which the level-{self.level} moment blocks do not determine; "
                "raise the level")
        return c

    def blocks_from_moments(self, moments: dict[Word, complex]) -> list[np.ndarray]:
        """Candidate solver blocks from a word-moment assignment, e.g. one
        realized by a concrete representation.  Useful with
        ipm.feasibility_check to confirm genuine states stay feasible."""
        def value(e: Polynomial) -> complex:
            for w, _ in e.terms():
                if w not in moments:
                    raise RelaxationError(
                        f"moment for word {word_to_str(w, self.problem.presentation)}"
                        " missing from the assignment")
            return sum(c * moments[w] for w, c in e.terms())

        out = []
        for mat in self.entries:
            G = np.array([[value(e) for e in row] for row in mat], dtype=complex)
            G = (G + G.conj().T) / 2
            out.append(np.real(G) if self.real_mode else realify_matrix(G))
        return out

    def evaluate(self, poly: Polynomial, moments: dict[Word, complex]) -> complex:
        p = normal_form(poly, self.problem.presentation)
        return sum(c * moments.get(w, 0j) for w, c in p.terms())


def _coeffs_real(p: Polynomial) -> bool:
    return all(abs(c.imag) <= 1e-12 for _, c in p.terms())


def _detect_real_mode(problem: ProblemFile) -> bool:
    pres = problem.presentation
    for rule in pres.rules:
        if not _coeffs_real(rule.rhs):
            return False
    if not _coeffs_real(problem.objective):
        return False
    for p, _, _ in problem.constraints:
        if not _coeffs_real(p):
            return False
    return all(_coeffs_real(p) for p in problem.positives)


def _moment_parameters(var_words: set[Word], pres: Presentation, real_mode: bool
                       ) -> tuple[list[Word], np.ndarray, list[Word]]:
    """The variable words closed under single-term adjoints, sorted; the map
    W from the real parameters to their moments; and the root word of each
    parameter.

    A state has omega(w*) = conj omega(w), so nf(w*) = c u ties the moments
    as y_w = conj(c) conj(y_u).  Following u from word to word either ends
    at a word whose adjoint is not a single term, a free root (the real and
    imaginary parts of its moment are two parameters), or runs into a cycle
    of k words.  The smallest word of a cycle is its root, and composing the
    ties around the cycle gives y_w = C conj^k(y_w): for odd k a line
    y_w = phi s through phi = sqrt(C) with one real parameter s, or zero when
    |C| != 1; for even k a free root when C = 1, zero otherwise.  Every other
    word's row of W is conj(c) conj(row of u).  In real mode a free root
    keeps only its real part, and a line only a real phi, which is then 1."""
    adjoint: dict[Word, tuple[Word, complex] | None] = {}
    for w in var_words:
        while w not in adjoint:
            terms = normal_form(Polynomial.from_word(word_adjoint(w)), pres).terms()
            adjoint[w] = terms[0] if len(terms) == 1 else None
            w = terms[0][0] if len(terms) == 1 else w
    words = sorted(adjoint)

    free = [1.0] if real_mode else [1.0, 1j]
    seeds: dict[Word, list[complex]] = {}     # a root's entries in its row of W
    for w in words:
        if adjoint[w] is None:
            seeds[w] = free
            continue
        (u, c), cycle = adjoint[w], [w]
        C = c.conjugate()     # y_w = C conj^k(y_u), k = len(cycle)
        while u not in cycle and adjoint[u] is not None:
            cycle.append(u)
            u, c = adjoint[u]
            C *= c.conjugate() if len(cycle) % 2 else c
        if u != w or min(cycle) != w:
            continue     # w follows u
        if len(cycle) % 2:
            phi = cmath.sqrt(C + 0j)     # + 0j: phi = i, not -i, at C = -1
            seeds[w] = ([] if abs(abs(C) - 1.0) > 1e-8 or (real_mode and abs(phi.imag) > 1e-8)
                        else [1.0 if real_mode else phi])
        else:
            seeds[w] = free if abs(C - 1.0) <= CONSISTENCY_TOL * max(1.0, abs(C)) else []
    roots = [w for w, seed in seeds.items() for _ in seed]

    index = {w: k for k, w in enumerate(words)}
    W = np.zeros((len(words), len(roots)), dtype=complex)
    W[[index[w] for w in roots], range(len(roots))] = [v for seed in seeds.values() for v in seed]

    done = set(seeds)

    def follow(w: Word) -> np.ndarray:
        if w not in done:
            u, c = adjoint[w]
            W[index[w]] = c.conjugate() * np.conj(follow(u))
            done.add(w)
        return W[index[w]]

    for w in words:
        follow(w)
    return words, W, roots


def _trace_form(mats: list[np.ndarray], rows: list[tuple[str, float]]
                ) -> tuple[list[np.ndarray], list[LinearConstraint]]:
    """Cost and constraints from per-block stacks whose matrix 0 is the
    cost and matrix k the left-hand side of rows[k - 1]."""
    return [A[0] for A in mats], [LinearConstraint([A[k] for A in mats], sense, rhs)
                                  for k, (sense, rhs) in enumerate(rows, start=1)]


def _restrict(E: np.ndarray, e: np.ndarray, p0: np.ndarray, N: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """p0', N' with {p0' + N' q} = {p0 + N q : E (p0 + N q) = e}, N' with
    orthonormal columns when N has them."""
    U, sv, Vt = np.linalg.svd(E @ N)
    r = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0
    rhs = e - E @ p0
    z = Vt[:r].T @ ((U[:, :r].T @ rhs) / sv[:r])
    if np.max(np.abs(E @ (N @ z) - rhs)) > REPRESENT_TOL * (1.0 + np.max(np.abs(rhs))):
        raise RelaxationError("the scalar equality constraints admit no moment vector")
    return p0 + N @ z, N @ Vt[r:].T


def build_relaxation(problem: ProblemFile, level: int | None = None) -> RelaxationModel:
    pres = problem.presentation
    d = problem.level if level is None else level
    if d < 0:
        raise RelaxationError("level must be nonnegative")

    if problem.basis_words is not None:
        main_basis = []
        for w in problem.basis_words:
            nf = normal_form(w, pres)
            terms = nf.terms()
            if len(terms) != 1 or abs(terms[0][1] - 1.0) > 1e-12:
                raise RelaxationError(
                    f"basis word {word_to_str(w, pres)} does not reduce to a "
                    "single unit-coefficient word")
            main_basis.append(terms[0][0])
        main_basis = sorted(set(main_basis))
        if UNIT_WORD not in main_basis:
            main_basis = sorted([UNIT_WORD] + main_basis)
    else:
        main_basis = generate_basis(pres, d)

    bases = [main_basis]
    weights = [Polynomial.unit()]
    for p in problem.positives:
        nf = normal_form(p, pres)
        if not nf.terms():
            warnings.warn("a declared positive reduces to zero; skipping",
                          RelaxationWarning)
            continue
        dp = d - math.ceil(nf.degree() / 2)
        if dp < 0:
            warnings.warn(
                f"positive {poly_to_str(nf, pres)} needs level "
                f">= {math.ceil(nf.degree() / 2)}; no localizing block added",
                RelaxationWarning)
            continue
        bases.append([w for w in main_basis if w.degree() <= dp])
        weights.append(nf)

    entries = []
    var_words: set[Word] = set()
    for basis, weight in zip(bases, weights):
        n = len(basis)
        mat = [[None] * n for _ in range(n)]
        for i in range(n):
            left = Polynomial.from_word(basis[i])
            row_base = poly_mul(left, weight)
            for j in range(n):
                e = normal_form(
                    poly_mul(row_base, Polynomial.from_word(word_adjoint(basis[j]))),
                    pres)
                mat[i][j] = e
                for w, _ in e.terms():
                    var_words.add(w)
        entries.append(mat)

    obj_nf = normal_form(problem.objective, pres)
    cons_nf = [(normal_form(p, pres), s, r) for p, s, r in problem.constraints]
    for w, _ in obj_nf.terms():
        var_words.add(w)
    for p, _, _ in cons_nf:
        for w, _ in p.terms():
            var_words.add(w)

    real_mode = _detect_real_mode(problem)
    words, W, roots = _moment_parameters(var_words, pres, real_mode)
    word_index = {w: k for k, w in enumerate(words)}

    # P: parameters to the coordinates of every block, via the upper
    # triangles G p of the blocks
    sizes = [len(b) for b in bases]
    P = []
    for mat, n in zip(entries, sizes):
        upper = [e for i, row in enumerate(mat) for e in row[i:]]
        slot, word, coeff = zip(*[(s, word_index[w], c) for s, e in enumerate(upper)
                                  for w, c in e.terms()])
        G = np.zeros((len(upper), len(roots)), dtype=complex)
        np.add.at(G, np.array(slot), np.array(coeff)[:, None] * W[list(word)])
        P.append(_coords(G, n, real_mode))
    P = np.vstack(P)

    # the parameters with the unit moment fixed to 1 when the problem
    # normalizes: p = p0 + N q
    p0, N = np.zeros(len(roots)), np.eye(len(roots))
    if problem.normalization:
        # the unit word is its own adjoint, a root on the line through 1
        k = roots.index(UNIT_WORD)
        p0[k] = 1.0
        N = np.delete(N, k, axis=1)

    sense_factor = 1.0 if problem.sense == "minimize" else -1.0
    relax = RelaxationModel(
        problem=problem, level=d, real_mode=real_mode,
        bases=bases, weights=weights, entries=entries,
        n_moment_vars=len(roots), sense_factor=sense_factor,
        _P=P, _W=W, _var_words=words, _roots=roots,
    )
    f = sense_factor * relax._functional(obj_nf, "the objective").real
    g = [relax._functional(p, "a scalar constraint").real for p, _, _ in cons_nf]
    # NotRepresentableError at build, not when the row form is first read
    for v, what in [(f, "the objective")] + [(gk, "a scalar constraint") for gk in g]:
        relax._representative(v, what)

    # the LMI in q, the solver's dual: its slack Z = C - sum_k q_k A_k is the
    # moment blocks at p = p0 + N q when C = Gamma(p0), A_k = -Gamma(N e_k),
    # and b = -f N.  Scalar equalities restrict p0 and N, and an inequality
    # adds the 1x1 block +-(g.p - rhs).
    eq = [k for k, (_, sense, _) in enumerate(cons_nf) if sense == SENSE_EQ]
    if eq:
        p0, N = _restrict(np.array([g[k] for k in eq]),
                          np.array([cons_nf[k][2] for k in eq]), p0, N)
    lmi = relax._stacks(np.column_stack([P @ p0, -(P @ N)]))
    if not real_mode:
        lmi = [realify_matrix(A) for A in lmi]
    ineq = [(gk, sense, rhs) for gk, (_, sense, rhs) in zip(g, cons_nf) if sense != SENSE_EQ]
    for gk, sense, rhs in ineq:
        sign = 1.0 if sense == SENSE_GE else -1.0
        lmi.append(sign * np.concatenate([[gk @ p0 - rhs], -(gk @ N)])[:, None, None])
    cost, constraints = _trace_form(lmi, [(SENSE_EQ, float(bk)) for bk in -(f @ N)])
    relax._lmi = SDPModel([Block(A.shape[1]) for A in lmi], cost, constraints)
    relax._p0, relax._N, relax._f, relax._ineq = p0, N, f, ineq
    return relax


def gram_representative(relax: RelaxationModel, poly: Polynomial | None = None
                        ) -> np.ndarray:
    """Matrix M with tr(M Gamma) equal to the value of the polynomial for
    every admissible moment matrix Gamma.  Least Frobenius norm among all
    such representatives; raises NotRepresentableError when the polynomial
    cannot be reached from this basis."""
    p = normal_form(poly if poly is not None else relax.problem.objective,
                    relax.problem.presentation)
    f = relax._functional(p, "the polynomial")
    if np.max(np.abs(f.imag), initial=0.0) > REPRESENT_TOL:
        raise NotRepresentableError(
            "polynomial is not a real form in the moment parameters")
    n = len(relax.basis)
    c = relax._representative(f.real, "the polynomial", _n_coords(n, relax.real_mode))
    return _matrices(c[:, None], n, relax.real_mode)[0]


def expand_gram(relax: RelaxationModel, M: np.ndarray) -> Polynomial:
    """Re-expand a representative: sum_ij M_ij gamma_j gamma_i-adjoint in
    normal form, matching the pairing tr(M Gamma)."""
    pres = relax.problem.presentation
    basis = relax.bases[0]
    total = Polynomial.zero()
    n = len(basis)
    for i in range(n):
        for j in range(n):
            c = complex(M[i, j])
            if abs(c) < 1e-15:
                continue
            word_poly = poly_mul(Polynomial.from_word(basis[j]),
                                 Polynomial.from_word(word_adjoint(basis[i])))
            total = total + word_poly.scale(c)
    return normal_form(total, pres)


def jnc_family(problem: ProblemFile) -> list[tuple[str, Polynomial]]:
    """Named polynomials eligible for joint numerical range queries: F0 is
    the objective, Fk the k-th scalar constraint, and 1 the unit."""
    pres = problem.presentation
    fam = [("F0", normal_form(problem.objective, pres))]
    for k, (p, _, _) in enumerate(problem.constraints, start=1):
        fam.append((f"F{k}", normal_form(p, pres)))
    fam.append(("1", Polynomial.unit()))
    return fam


def jnc_support(problem: ProblemFile, weighted: list[tuple[Polynomial, float]],
                level: int | None = None,
                options: ipm.SolverOptions | None = None) -> RelaxationResult:
    """Minimize sum lambda_i omega(F_i) over the relaxation cone: psd moment
    and localizing blocks with normalization, scalar constraints excluded."""
    combo = Polynomial.zero()
    for p, lam in weighted:
        combo = combo + p.scale(lam)
    sub = replace(problem, sense="minimize", objective=combo, constraints=[])
    relax = build_relaxation(sub, level=level if level is not None else problem.level)
    return relax.solve(options)
