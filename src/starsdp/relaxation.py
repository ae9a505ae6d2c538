"""Moment relaxation: from an algebra problem to a finite block SDP.

A hierarchy level is one positivity condition.  Over a word basis
(gamma_i) the moment blocks have entries that are normal forms of
gamma_i * weight * gamma_j-adjoint, with weight 1 for the main block and a
declared positive for each localizing block.  An entry is a lookup, not
polynomial arithmetic: sum_t c_t nf(gamma_i w_t gamma_j-adjoint) over the
weight's terms, each word's normal form taken from the presentation's
cache, and a main-block entry is the cached Polynomial itself, shared with
the cache and never mutated.  Words appearing in those entries become
shared scalar unknowns, tied only by the adjoint pairing
omega(w*) = conj omega(w).  When w* rewrites to a single term c u, the
moment of w is conj(c) times the conjugate of the moment of u.  Following
these ties from word to word ends at a word whose adjoint is not a single
term, which carries two real parameters (a free complex value), or runs
into a cycle, u = w or a pair w, u most often, whose smallest word carries
one (a real line through a phase, for an odd cycle) or two (for an even
one), or none when the ties disagree.  The moments of the words are then
W p in the real parameters p, the blocks' upper triangles G p, and

    P p = orthonormal coordinates of every block.

An entry holds one moment, or a few, so G, P and W are held as index
triplets (row, parameter, value), and neither P nor W is made dense on
the way from the build to the solve.

The relaxation is solved as a linear matrix inequality in p, as NPA and
Lasserre's hierarchy state it: Gamma(p) = sum_k p_k H_k psd, where H_k is
the block G e_k, each entry written from G's triplets, never through
coordinates.  The unit moment and the scalar equalities are eliminated
first, p = p0 + N q, and each scalar inequality becomes a 1x1 block.  The
solver takes this LMI as its dual with y = q, so its Schur matrix has one
row per free parameter, its dual slacks Z are the moment blocks at p, its X
is a Gram (sum of squares) certificate of the bound, and the moments are
read back exactly as W p.  The objective and each scalar constraint must
be trace pairings with the blocks, in the row space of P, which is checked
on P^T P: diagonal, but for the columns that multi-term entries couple.

The blocks enter the LMI split into their term-sparsity components (Wang,
Magron and Lasserre's TSSOS; Klep, Magron and Povh for the noncommutative
case).  Each word's parameters belong to one root, and S, a set of roots,
starts as the roots of the objective and the scalar constraints.  Basis
indices i and j join when entry (i, j) uses a root in S, the connected
components of that graph are the blocks' components, the roots of every
in-component entry join S, and this repeats until S stops growing.  At the
fixpoint an off-component entry uses no root in S, and a root outside S
appears in off-component entries only.  So the LMI keeps one block per
component on the parameters of S alone, and the split is exact: setting
every dropped parameter to 0 extends a feasible point of the split LMI to a
feasible point of the dense one, block diagonal up to a permutation, with
the same objective, while every principal block of a feasible dense point is
feasible for the split.  A component that no free parameter reaches is a
constant matrix, dropped when it is psd and kept (making the LMI
infeasible) when it is not.  The readout is that zero extension.

RelaxationModel.model states the dense relaxation in row form, an SDP
whose X are the whole moment blocks, derived on first access from P, made
dense, and from p0 and N over every parameter: its equality rows, an
orthonormal basis of the complement of range(P N), hold the scalar
equalities folded in, and the objective and inequalities are least-norm
representatives on the rows of P.  Feasibility checks of given moments and
the SDPA export read it; the solve does not.

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
    is_normal_form, normal_form, word_adjoint,
)
from .problems import ProblemFile, word_to_str, poly_to_str
from .sdpmodel import SDPModel, SENSE_EQ, SENSE_GE
# not called here; bench/tracing.py wraps them under this module's name
from .algebra import poly_mul  # noqa: F401
from .sdpmodel import realify, to_equality_form  # noqa: F401
from . import ipm

BASIS_CAP = 2000
CONSISTENCY_TOL = 1e-9
# relative to the largest singular value in _restrict and the equality
# basis; relative to the largest eigenvalue of the column-scaled Gram matrix
# (a squared singular value) in RelaxationModel._gram_solve
RANK_TOL = 1e-9
REPRESENT_TOL = 1e-8

_UNIT = Polynomial.unit()


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
        if not pres.generators[g].selfadjoint:
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
# upper triangle.

def _n_coords(n: int, real_mode: bool) -> int:
    return n * (n + 1) // 2 if real_mode else n * n


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
    its dual: y holds the free parameters q of p = p0 + N q on the kept
    parameters, Z the term-sparsity components of the moment blocks at p,
    main block first, followed by one 1x1 slack per scalar inequality, and
    X a Gram (sum of squares) certificate of the bound, block by block
    over the same components, the moment and Gram blocks Hermitian in
    complex mode.  Its status is the solver's own,
    where INFEASIBLE and UNBOUNDED are swapped.

    moments and moment_matrix, the whole main block, are the zero
    extension of y and Z when the solve ended OPTIMAL or MAX_ITER, and are
    empty otherwise: every dropped parameter is 0, each component's Z sits
    at its indices, a dropped constant component keeps its value, and every
    other entry is 0."""

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
    # G: per term of an upper-triangle entry, (i, j, param, value), i <= j
    # numbering the basis indices of every block, block after block
    _G: tuple = field(repr=False, default=())
    # W, the moments of _var_words, as the parameters of each word (one per
    # column) and their coefficients, 0 past a word's own
    _Wk: np.ndarray = field(repr=False, default=None)
    _Wv: np.ndarray = field(repr=False, default=None)
    _var_words: list[Word] = field(repr=False, default_factory=list)
    _roots: list[Word] = field(repr=False, default_factory=list)  # root word per param
    _f: np.ndarray = field(repr=False, default=None)   # objective, times sense_factor
    _constraints: list[tuple] = field(repr=False, default_factory=list)  # (g, sense, rhs)
    _keep: np.ndarray = field(repr=False, default=None)  # the params the LMI keeps
    _p0: np.ndarray = field(repr=False, default=None)  # kept params = _p0 + _N q
    _N: np.ndarray = field(repr=False, default=None)
    _lmi: SDPModel = field(repr=False, default=None)   # the LMI in q, as the solver's dual
    # the main block's indices of each leading LMI block, and its dropped
    # constant components
    _parts: list[np.ndarray] = field(repr=False, default_factory=list)
    _gamma0: np.ndarray = field(repr=False, default=None)

    @property
    def basis(self) -> list[Word]:
        return self.bases[0]

    @property
    def _W(self) -> np.ndarray:
        """W made dense, words by parameters."""
        W = np.zeros((len(self._var_words), self.n_moment_vars), dtype=complex)
        np.add.at(W, (np.arange(len(W))[:, None], self._Wk), self._Wv)
        return W

    @property
    def _P(self) -> np.ndarray:
        """P made dense, coordinates by parameters, from G's terms."""
        I, J, k, v = self._G
        sizes = np.array([len(b) for b in self.bases])
        starts = np.cumsum([0, *sizes])
        b = np.searchsorted(starts, I, side="right") - 1
        n, i, j = sizes[b], I - starts[b], J - starts[b]
        counts = [_n_coords(m, self.real_mode) for m in sizes]
        row = np.cumsum([0, *counts])[b] + i * n - i * (i - 1) // 2 + j - i
        P = np.zeros((sum(counts), self.n_moment_vars))
        np.add.at(P, (row, k), np.where(i == j, 1.0, math.sqrt(2.0)) * v.real)
        if not self.real_mode:
            # the strict upper triangle's Im after the block's n(n+1)/2 Re
            off = i != j
            np.add.at(P, ((row + n * (n + 1) // 2 - i - 1)[off], k[off]),
                      math.sqrt(2.0) * v.imag[off])
        return P

    @functools.cached_property
    def model(self) -> SDPModel:
        """The row form, X = the moment blocks (Hermitian when complex),
        built on first access and cached; the solve does not read it."""
        p0, N = self._parameters(np.arange(self.n_moment_vars))
        P = self._P
        U, sv, _ = np.linalg.svd(P @ N)
        Q = U[:, int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0:]
        ineq = [(g, sense, rhs) for g, sense, rhs in self._constraints if sense != SENSE_EQ]
        data = [self._representative(self._f, "the objective"), Q]
        data += [self._representative(g, "a scalar constraint") for g, _, _ in ineq]
        rows = [(SENSE_EQ, float(r)) for r in Q.T @ (P @ p0)]
        rows += [(sense, float(rhs)) for _, sense, rhs in ineq]
        sizes = [len(b) for b in self.bases]
        cuts = np.cumsum([_n_coords(n, self.real_mode) for n in sizes])[:-1]
        return SDPModel.from_stacks([_matrices(C, n, self.real_mode) for C, n in
                                     zip(np.split(np.column_stack(data), cuts), sizes)], rows)

    def _parameters(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p0 and N with {p0 + N q} the parameters, restricted to the columns
        keep, that fix the unit moment to 1 when the problem normalizes and
        meet the scalar equalities."""
        p0, N = np.zeros(len(keep)), np.eye(len(keep))
        if self.problem.normalization:
            # the unit word is its own adjoint, a root on the line through 1
            k = int(np.searchsorted(keep, self._roots.index(UNIT_WORD)))
            p0[k] = 1.0
            N = np.delete(N, k, axis=1)
        eq = [(g[keep], rhs) for g, sense, rhs in self._constraints if sense == SENSE_EQ]
        if eq:
            p0, N = _restrict(np.array([g for g, _ in eq]), np.array([r for _, r in eq]), p0, N)
        return p0, N

    def solve(self, options: ipm.SolverOptions | None = None) -> RelaxationResult:
        sol = ipm.solve(self._lmi, options)
        # min f.p = f.p0 + min (f N).q = f.p0 - max b.y with b = -f N
        bound = self.sense_factor * (float(self._f[self._keep] @ self._p0) - sol.dual_value)
        moments = {}
        gamma = np.zeros((0, 0))
        if sol.status in (ipm.Status.OPTIMAL, ipm.Status.MAX_ITER):
            # the zero extension: every dropped parameter is 0
            p = np.zeros(self.n_moment_vars)
            p[self._keep] = self._p0 + self._N @ sol.y
            values = (self._Wv * p[self._Wk]).sum(axis=1)
            moments = {w: complex(v) for w, v in zip(self._var_words, values)}
            gamma = self._gamma0.copy()
            for idx, Z in zip(self._parts, sol.Z):
                gamma[idx[:, None], idx] = Z
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
        f = np.zeros(self.n_moment_vars, dtype=complex)
        np.add.at(f, self._Wk, o[:, None] * self._Wv)
        return f

    @functools.cached_property
    def _gram_all(self) -> tuple:
        return _gram(*self._G, self.n_moment_vars)

    def _gram_solve(self, f: np.ndarray, main: bool = False) -> np.ndarray | None:
        """x with P x the least-norm coordinates, on the rows of P of every
        block or of the main block alone, of the trace functional worth f . p
        at every parameter vector p; None where x misses the residual test.

        With D scaling each column of P to unit norm, x = D z with
        D P^T P D z = D f, solved on the eigenvectors of D P^T P D whose
        eigenvalues exceed RANK_TOL times the largest: 1 for a column that
        shares no entry with another, and those of a dense eigensolve on the
        columns that multi-term entries couple.  The residual is
        |P^T P x - f|."""
        if main:
            inside = self._G[0] < len(self.basis)
            d, coupled, lam, V, (a, b, g) = _gram(*(x[inside] for x in self._G), len(f))
        else:
            d, coupled, lam, V, (a, b, g) = self._gram_all
        alone = d > 0
        alone[coupled] = False
        top = max(lam.max(initial=0.0), float(alone.any()))
        x = np.divide(f, d, out=np.zeros(len(f)), where=alone & (1.0 > RANK_TOL * top))
        keep, s = lam > RANK_TOL * top, np.sqrt(d[coupled])
        x[coupled] = (V[:, keep] @ ((V[:, keep].T @ (f[coupled] / s)) / lam[keep])) / s
        resid = np.bincount(a, g * x[b], minlength=len(f)) - f
        return x if np.max(np.abs(resid), initial=0.0) <= REPRESENT_TOL else None

    def _representative(self, f: np.ndarray, what: str, n_rows: int | None = None
                        ) -> np.ndarray:
        """Least-norm coordinates c, on the first n_rows rows of P, of the
        trace functional worth f . p at every parameter vector p: P x for
        the x of _gram_solve, or lstsq on P where the Gram matrix, which
        squares P's condition number, misses."""
        P = self._P[:n_rows]
        x = self._gram_solve(f, n_rows is not None)
        c = P @ x if x is not None else np.linalg.lstsq(P.T, f, rcond=None)[0]
        resid = np.abs(P.T @ c - f)
        if np.max(resid, initial=0.0) > REPRESENT_TOL:
            # the worst root among the words of the functional itself
            used = np.flatnonzero(f)
            root = self._roots[int(used[np.argmax(resid[used])])]
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
            out.append(np.real(G) if self.real_mode else G)
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
                       ) -> tuple[list[Word], tuple, list[Word], np.ndarray]:
    """The variable words closed under single-term adjoints, sorted; the map
    W from the real parameters to their moments, as each word's parameters
    and their coefficients (a free root's two in complex mode, padded with
    zero coefficients elsewhere); the root word of each
    parameter; and the root of each parameter as an integer id, numbering
    the roots that carry parameters.

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
            terms = normal_form(word_adjoint(w), pres).terms()
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
    root_ids = np.array([k for k, seed in enumerate(filter(None, seeds.values())) for _ in seed],
                        dtype=int)

    # W as the parameters of each word and their coefficients: a root's
    # own, and a follower's from its root r, W[w] = a conj^t(W[r])
    index = {w: k for k, w in enumerate(words)}
    rows = [index[w] for w, seed in seeds.items() for _ in seed]
    cols = [c for seed in seeds.values() for c in range(len(seed))]
    Wk = np.zeros((len(words), len(free)), dtype=int)
    Wv = np.zeros((len(words), len(free)), dtype=complex)
    Wk[rows, cols] = range(len(rows))
    Wv[rows, cols] = [v for seed in seeds.values() for v in seed]
    ties = {w: (index[w], 1.0, False) for w in seeds}

    def follow(w: Word) -> tuple[int, complex, bool]:
        if w not in ties:
            u, c = adjoint[w]
            r, a, t = follow(u)
            ties[w] = (r, c.conjugate() * a.conjugate(), not t)
        return ties[w]

    r, a, t = map(np.array, zip(*[follow(w) for w in words]))
    Wk, Wv = Wk[r], Wv[r]
    Wv = np.where(t[:, None], Wv.conj(), Wv) * a[:, None]
    return words, (Wk, Wv), roots, root_ids


def _entry(left: tuple, weight: Polynomial, right: tuple, pres: Presentation) -> Polynomial:
    """nf(left * weight * right) for the letters of a basis word and of an
    adjoint one: for the unit weight the presentation's cached normal form
    itself, otherwise the normal form of sum_t c_t left w_t right."""
    if weight == _UNIT:
        return normal_form(Word(left + right), pres)
    return normal_form(Polynomial({Word(left + w.letters + right): c
                                   for w, c in weight.items()}), pres)


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


def _gram(I: np.ndarray, J: np.ndarray, k: np.ndarray, v: np.ndarray, n: int) -> tuple:
    """P^T P over n parameters from G's terms (i, j, param, value), sorted
    by entry: the squared column norms d, the columns with a nonzero
    off-diagonal entry, the eigenpairs of their block scaled to a unit
    diagonal, and P^T P itself as triplets.  The coordinates of entry (i, j)
    are its Re, and off the diagonal sqrt(2) Re and sqrt(2) Im, so two terms
    of one entry add w Re(conj(v) v'), w = 1 on the diagonal and 2 off it."""
    key = I * (J.max(initial=0) + 1) + J
    first = np.searchsorted(key, key)
    count = np.searchsorted(key, key, side="right") - first
    # every ordered pair (t, u) of terms of one entry
    t = np.repeat(np.arange(len(key)), count)
    u = first[t] + np.arange(len(t)) - np.repeat(np.cumsum(count) - count, count)
    a, b = k[t], k[u]
    g = np.where(I[t] == J[t], 1.0, 2.0) * (v[t].conj() * v[u]).real
    d = np.bincount(a[a == b], g[a == b], minlength=n)
    off = a != b
    coupled, lam, V = np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 0))
    if off.any():
        pair, inv = np.unique(a[off] * n + b[off], return_inverse=True)
        coupled = np.unique(pair[np.bincount(inv, g[off]) != 0] // n)
    if len(coupled):
        at = np.full(n, -1)
        at[coupled] = np.arange(len(coupled))
        both = (at[a] >= 0) & (at[b] >= 0)
        M = np.zeros((len(coupled), len(coupled)))
        np.add.at(M, (at[a[both]], at[b[both]]), g[both])
        s = np.sqrt(d[coupled])
        lam, V = np.linalg.eigh(M / np.outer(s, s))
    return d, coupled, lam, V, (a, b, g)


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The component of each of n nodes under the directed edges (i, j),
    given in both directions, labelled by its least node: min-label
    propagation with pointer jumping."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, i, label[j])
        new = new[new]
        if (new == label).all():
            return label
        label = new


def _term_components(n: int, i: np.ndarray, j: np.ndarray, r: np.ndarray,
                     seed: list[int], n_roots: int) -> tuple[np.ndarray, np.ndarray]:
    """The term-sparsity fixpoint on n basis indices: their component labels
    and the kept roots.  Per term of an upper-triangle entry, i and j are
    the entry's row and column and r the term's root.  Indices join when an
    entry between them uses a kept root; every root of an in-component
    entry is kept, starting from seed."""
    kept = np.zeros(n_roots, dtype=bool)
    kept[seed] = True
    kept[r[i == j]] = True      # a diagonal entry is always in-component
    # every edge in both directions, as _components takes them
    ii, jj, rr = np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([r, r])
    while True:
        use = kept[rr]
        label = _components(n, ii[use], jj[use])
        inside = label[i] == label[j]
        kept[r[inside]] = True
        # the components stand unless a newly kept root joins two of them
        if not kept[r[~inside]].any():
            return label, kept


def build_relaxation(problem: ProblemFile, level: int | None = None) -> RelaxationModel:
    pres = problem.presentation
    d = problem.level if level is None else level
    if d < 0:
        raise RelaxationError("level must be nonnegative")

    if problem.basis_words is not None:
        main_basis = []
        for w in problem.basis_words:
            nf = normal_form(w, pres).as_word()
            if nf is None:
                raise RelaxationError(
                    f"basis word {word_to_str(w, pres)} does not reduce to a "
                    "single unit-coefficient word")
            main_basis.append(nf)
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
        adjoints = [word_adjoint(b).letters for b in basis]
        mat = [[_entry(b.letters, weight, a, pres) for a in adjoints] for b in basis]
        var_words.update(w for row in mat for e in row for w, _ in e.items())
        entries.append(mat)

    obj_nf = normal_form(problem.objective, pres)
    cons_nf = [(normal_form(p, pres), s, r) for p, s, r in problem.constraints]
    for w, _ in obj_nf.terms():
        var_words.add(w)
    for p, _, _ in cons_nf:
        for w, _ in p.terms():
            var_words.add(w)

    real_mode = _detect_real_mode(problem)
    words, (Wk, Wv), roots, col_root = _moment_parameters(var_words, pres, real_mode)
    word_index = {w: k for k, w in enumerate(words)}

    # every term of an upper-triangle entry (i, j), i and j numbering the
    # basis indices of every block, block after block, with its word and
    # coefficient; G is each term times its word's row of W, the imaginary
    # part of a diagonal entry dropped, as Hermitian blocks drop it
    sizes = [len(b) for b in bases]
    starts = np.cumsum([0] + sizes)
    I, J, word, coeff = map(np.array, zip(*[
        (s + i, s + j, word_index[w], c) for mat, s in zip(entries, starts)
        for i, row in enumerate(mat) for j in range(i, len(row)) for w, c in row[j].terms()]))
    width = Wk.shape[1]
    v = (coeff[:, None] * Wv[word]).ravel()
    v = v.real if real_mode else np.where(np.repeat(I == J, width), v.real, v)
    nz = v != 0
    G = tuple(x[nz] for x in (np.repeat(I, width), np.repeat(J, width), Wk[word].ravel(), v))

    sense_factor = 1.0 if problem.sense == "minimize" else -1.0
    relax = RelaxationModel(
        problem=problem, level=d, real_mode=real_mode,
        bases=bases, weights=weights, entries=entries,
        n_moment_vars=len(roots), sense_factor=sense_factor,
        _G=G, _Wk=Wk, _Wv=Wv, _var_words=words, _roots=roots,
    )
    f = sense_factor * relax._functional(obj_nf, "the objective").real
    g = [relax._functional(p, "a scalar constraint").real for p, _, _ in cons_nf]
    # NotRepresentableError at build, not when the row form is first read;
    # P is made dense only where the Gram matrix misses
    for v, what in [(f, "the objective")] + [(gk, "a scalar constraint") for gk in g]:
        if relax._gram_solve(v) is None:
            relax._representative(v, what)
    relax._f = f
    relax._constraints = [(gk, sense, rhs) for gk, (_, sense, rhs) in zip(g, cons_nf)]

    # term sparsity: the root id of every word's parameters (-1 for a word
    # pinned to 0), then the components and the kept roots at their fixpoint,
    # seeded by the objective and the scalar constraints, on one graph whose
    # nodes are the basis indices of every block, block after block
    word_root = np.where(Wv[:, 0] != 0, col_root[Wk[:, 0]], -1)
    seed = [word_root[word_index[w]] for p in [obj_nf] + [p for p, _, _ in cons_nf]
            for w in p.words()]
    r = word_root[word]
    label, kept = _term_components(starts[-1], I[r >= 0], J[r >= 0], r[r >= 0],
                                   [r for r in seed if r >= 0], int(col_root.max(initial=-1)) + 1)
    keep = kept[col_root].nonzero()[0]

    # the LMI in q, the solver's dual: its slack Z = C - sum_k q_k A_k is the
    # moment blocks at p = p0 + N q when C = Gamma(p0), A_k = -Gamma(N e_k),
    # and b = -f N, all over the kept parameters and with one block per
    # component.  A component with every A_k = 0 is the constant Gamma(p0),
    # dropped when it is psd.  Scalar equalities restrict p0 and N, and an
    # inequality adds the 1x1 block +-(g.p - rhs).
    p0, N = relax._parameters(keep)
    # entry (i, j) of matrix k is the sum over the terms of G on kept
    # parameters of value * T[param, k], T = [p0, -N]: one sum per entry,
    # since G runs entry by entry
    T = np.column_stack([p0, -N])
    at = np.full(len(roots), -1)
    at[keep] = np.arange(len(keep))
    use = at[G[2]] >= 0
    I, J, k, v = G[0][use], G[1][use], at[G[2][use]], G[3][use]
    X = T[k].astype(v.dtype, copy=False)
    X *= v[:, None]
    first = np.flatnonzero(np.diff(I * starts[-1] + J, prepend=-1))
    X, I, J = np.add.reduceat(X, first), I[first], J[first]
    cuts = np.searchsorted(I, starts)
    # an off-component entry uses no kept parameter, so each block's stack
    # over the kept parameters is block diagonal and every component is a
    # principal submatrix of it
    lmi, main = [], []          # main: the main block's indices per leading LMI block
    gamma0 = np.zeros((sizes[0], sizes[0]), dtype=float if real_mode else complex)
    for b, n in enumerate(sizes):
        e = slice(cuts[b], cuts[b + 1])
        i, j = I[e] - starts[b], J[e] - starts[b]
        A = np.zeros((T.shape[1], n, n), dtype=X.dtype)
        A[:, i, j] = X[e].T
        A[:, j, i] = np.conj(X[e], out=X[e]).T
        block = label[starts[b]:starts[b + 1]]
        # a component's label is its least node
        for c in (block == np.arange(starts[b], starts[b + 1])).nonzero()[0]:
            idx = (block == block[c]).nonzero()[0]
            Ac = A if len(idx) == len(block) else A[:, idx[:, None], idx]
            C = Ac[0]
            if not Ac[1:].any() and \
                    np.linalg.eigvalsh(C)[0] >= -CONSISTENCY_TOL * max(1.0, np.abs(C).max()):
                if b == 0:
                    gamma0[idx[:, None], idx] = C
                continue
            lmi.append(Ac)
            if b == 0:
                main.append(idx)
    for gk, sense, rhs in relax._constraints:
        if sense != SENSE_EQ:
            sign, gk = 1.0 if sense == SENSE_GE else -1.0, gk[keep]
            lmi.append(sign * np.concatenate([[gk @ p0 - rhs], -(gk @ N)])[:, None, None])
    relax._lmi = SDPModel.from_stacks(lmi, [(SENSE_EQ, float(bk)) for bk in -(f[keep] @ N)])
    relax._keep, relax._p0, relax._N = keep, p0, N
    relax._parts, relax._gamma0 = main, gamma0
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
    normal form, matching the pairing tr(M Gamma).  The normal form of
    gamma_j gamma_i-adjoint is the main block's entry (j, i)."""
    gamma = relax.entries[0]
    total = Polynomial.zero()
    for (i, j), c in np.ndenumerate(M):
        if abs(c) >= 1e-15:
            total = total + gamma[j][i].scale(complex(c))
    return total


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
