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
coordinates.  The unit moment, the scalar equalities and ker P, the
parameter directions that no block sees, are eliminated first, p = p0 + N q
with p orthogonal to ker P, so that every row of the LMI is seen by some
block, and each scalar inequality becomes a 1x1 block.  The
solver takes this LMI as its dual with y = q, so its Schur matrix has one
row per free parameter, its dual slacks Z are the moment blocks at p, its X
is a Gram (sum of squares) certificate of the bound, and the moments are
read back exactly as W p.  The objective and each scalar constraint must
be trace pairings with the blocks, functionals that vanish on ker P.  ker P
is read once off P^T P, which is diagonal but for the columns that
multi-term entries couple, and decides both this check and the
elimination.

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

Last, the LMI keeps only the directions that the problem's symmetry group
leaves invariant, de Klerk's reduction in the moment frame (Riener,
Theobald, Andren and Lasserre, Math. Oper. Res. 2013; Ioannou and Rosset,
2021).  A signed generator permutation g -> +-g_pi acts on the words, and
one that maps every basis word and root to +-1 times a word of the
hierarchy induces a signed permutation S of the parameters with
Gamma(S p) = E Pi Gamma(p) Pi^T E: the blocks permuted among equal weights
and their bases by signed permutations, checked on G's triplets.  The
group of those that keep the presentation, fix the objective and each
scalar constraint and map the kept parameters onto themselves is searched
for per build as a chain of generators (algebra.symmetry_chain), never
listed.  Its elements map the LMI's feasible set onto itself and keep its
objective, both convex, so the group average of an optimum is an
invariant optimum: with V the signed orbit indicators of its generators,
p = p0 + N Q y for Q an orthonormal basis of range(N^T V), and the bound
is unchanged.  Q scales each signed orbit to unit length when N selects
coordinates, so the reduced solve follows the full one, whose iterates
stay invariant from its invariant start, with the same residual norms.  A
trivial group leaves N as it is.

In complex mode an element may also conjugate every coefficient.  It sends
omega to conj o omega o sigma, so a root's moment is read off conj(c W[u])
and G's triplets are compared after conj(v): its action on p is again a
signed permutation, with Gamma(S p) = E Pi conj(Gamma(p)) Pi^T E, and V and
Q are found as before.  Where the search's conjugating generator maps a
component onto itself as J v = E Pi conj(v) with J^2 = I, J is a real
structure that commutes with every invariant LMI matrix A (Gatermann and
Parrilo, J. Pure Appl. Algebra 2004), so U* A U is real for U a basis of
J's fixed vectors: the component is solved real, and its Z is lifted back
as U Z U* before the moments and the moment matrix are read out.

A build runs in two stages, since a level is fixed by the algebra, its
positives and the level, and the objective is only a functional on the
blocks.  The first, a Hierarchy, reads no objective: the bases and their
weights, the entries, the closed word set with its moment parameters and W,
G and ker P, and the functionals, representability checks and dense P read
off them.  A presentation keeps one hierarchy per key: the level, the main
basis when the problem lists its words (the level fixes a generated one),
the normal forms of the kept positives, and the real mode, which the
objective and the constraints take part in.  Its arrays are read-only and
its lists are never mutated, so every relaxation of it shares them; it also
keeps each symmetry action it has read off and the orbits found per
objective and scalar constraints.  The second stage, Hierarchy.relax, runs
on every build: the functionals of the objective and the scalar
constraints and their check on ker P, term sparsity, p0 and N, the
symmetry group that fixes them and Q, and the LMI, from which it makes the
RelaxationModel in one call.  A relaxation holds its hierarchy, the moment
frame, as hier, beside those arrays of its own, and reads the frame there.
A word of the objective or a constraint outside the hierarchy's word set
gets a hierarchy of its own, not stored, with that word added and numbered
as if it had been among the entries'.

RelaxationModel.model states the dense relaxation in row form, an SDP
whose X are the whole moment blocks, derived on first access from P, which
the hierarchy makes dense there, and from p0 and N over every parameter:
its equality rows, an orthonormal basis of the complement of range(P N),
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
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    Polynomial, Presentation, Word, UNIT_WORD,
    apply_signed, conjugates, is_normal_form, normal_form, normal_form_word, signed_word,
    symmetry_chain,
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
# (a squared singular value) in _kernel
RANK_TOL = 1e-9
REPRESENT_TOL = 1e-8
# relative: two coefficients of a symmetry's action count as equal within this
GROUP_TOL = 1e-12

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
                cand = Word(w + (letter,))
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
    its dual: y holds the coordinates of p = p0 + N Q y on the kept
    parameters in the invariant directions Q, Z the term-sparsity
    components of the moment blocks at p, main block first, followed by one
    1x1 slack per scalar inequality, and X a Gram (sum of squares)
    certificate of the bound, block by block over the same components, the
    moment and Gram blocks Hermitian in complex mode unless a component
    was solved real in a basis U, where Z is U* Z U.  Its status is the
    solver's own, where INFEASIBLE and UNBOUNDED are swapped.

    moments and moment_matrix, the whole main block, are the zero
    extension of y and Z when the solve ended OPTIMAL or MAX_ITER, and are
    empty otherwise: every dropped parameter is 0, each component's Z,
    lifted back as U Z U*, sits at its indices, a dropped constant
    component keeps its value, and every other entry is 0."""

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
    """A relaxation: its hierarchy, the moment frame that every relaxation of
    it shares, and the objective stage's own arrays."""

    problem: ProblemFile
    hier: Hierarchy = field(repr=False)
    sense_factor: float                # +1 minimize, -1 maximize
    _f: np.ndarray = field(repr=False)   # objective, times sense_factor
    _constraints: list[tuple] = field(repr=False)  # (g, sense, rhs)
    _keep: np.ndarray = field(repr=False)  # the params the LMI keeps
    # kept params = _p0 + _N y, _N the restriction N Q to the invariant directions
    _p0: np.ndarray = field(repr=False)
    _N: np.ndarray = field(repr=False)
    _lmi: SDPModel = field(repr=False)   # the LMI in y, as the solver's dual
    # the main block's indices of each leading LMI block, and its dropped
    # constant components
    _parts: list[np.ndarray] = field(repr=False)
    _gamma0: np.ndarray = field(repr=False)
    # per leading LMI block, the basis U it was solved real in, else None
    _lifts: list[np.ndarray | None] = field(repr=False)
    # the order of the symmetry group the LMI is restricted by, and the
    # LMI's rows (free parameters) before the restriction
    symmetry: dict[str, int] = field(repr=False)
    # the seconds build_relaxation spent making the hierarchy, 0.0 when it
    # was reused, and in the rest of the build
    timings: dict[str, float] = field(repr=False, default_factory=dict)

    @property
    def basis(self) -> list[Word]:
        return self.hier.bases[0]

    @property
    def entries(self) -> list[list[list[Polynomial]]]:
        return self.hier.entries

    @property
    def n_moment_vars(self) -> int:
        return len(self.hier.roots)

    @functools.cached_property
    def model(self) -> SDPModel:
        """The row form, X = the moment blocks (Hermitian when complex),
        built on first access and cached; the solve does not read it."""
        hier, pres = self.hier, self.problem.presentation
        p0, N = _parameters(hier, np.arange(self.n_moment_vars), self.problem.normalization,
                            self._constraints)
        P = hier._P
        U, sv, _ = np.linalg.svd(P @ N)
        Q = U[:, int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0:]
        ineq = [(g, sense, rhs) for g, sense, rhs in self._constraints if sense != SENSE_EQ]
        data = [hier._representative(P, self._f, "the objective", pres), Q]
        data += [hier._representative(P, g, "a scalar constraint", pres) for g, _, _ in ineq]
        rows = [(SENSE_EQ, float(r)) for r in Q.T @ (P @ p0)]
        rows += [(sense, float(rhs)) for _, sense, rhs in ineq]
        sizes = [len(b) for b in hier.bases]
        cuts = np.cumsum([_n_coords(n, hier.real_mode) for n in sizes])[:-1]
        return SDPModel.from_stacks([_matrices(C, n, hier.real_mode) for C, n in
                                     zip(np.split(np.column_stack(data), cuts), sizes)], rows)

    def solve(self, options: ipm.SolverOptions | None = None) -> RelaxationResult:
        sol = ipm.solve(self._lmi, options)
        # min f.p = f.p0 + min (f N).q = f.p0 - max b.y with b = -f N
        bound = self.sense_factor * (float(self._f[self._keep] @ self._p0) - sol.dual_value)
        moments = {}
        gamma = np.zeros((0, 0))
        if sol.status in (ipm.Status.OPTIMAL, ipm.Status.MAX_ITER):
            # the zero extension: every dropped parameter is 0
            hier = self.hier
            p = np.zeros(self.n_moment_vars)
            p[self._keep] = self._p0 + self._N @ sol.y
            values = (hier.Wv * p[hier.Wk]).sum(axis=1)
            moments = {w: complex(v) for w, v in zip(hier.words, values)}
            gamma = self._gamma0.copy()
            for idx, U, Z in zip(self._parts, self._lifts, sol.Z):
                gamma[idx[:, None], idx] = Z if U is None else U @ Z @ U.conj().T
        status = _DUAL_STATUS.get(sol.status, sol.status)
        if status in _DUAL_STATUS:
            bound = self.sense_factor * np.inf * (1 if status == ipm.Status.INFEASIBLE else -1)
        return RelaxationResult(bound, status, sol, moments, gamma, self.hier.level)

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
        for mat in self.hier.entries:
            G = np.array([[value(e) for e in row] for row in mat], dtype=complex)
            G = (G + G.conj().T) / 2
            out.append(np.real(G) if self.hier.real_mode else G)
        return out

    def evaluate(self, poly: Polynomial, moments: dict[Word, complex]) -> complex:
        p = normal_form(poly, self.problem.presentation)
        return sum(c * moments.get(w, 0j) for w, c in p.terms())


def _parameters(hier: "Hierarchy", keep: np.ndarray, normalization: bool,
                constraints: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """p0 and N with {p0 + N q} the parameters of hier, restricted to the
    columns keep, that fix the unit moment to 1 when normalization holds,
    meet the scalar equalities among constraints, (g, sense, rhs) with g a
    functional on the parameters, and are orthogonal to ker P."""
    p0, N = np.zeros(len(keep)), np.eye(len(keep))
    if normalization:
        # the unit word is its own adjoint, a root on the line through 1
        k = int(np.searchsorted(keep, hier.roots.index(UNIT_WORD)))
        p0[k] = 1.0
        N = np.delete(N, k, axis=1)
    eq = [(g[keep], rhs) for g, sense, rhs in constraints if sense == SENSE_EQ]
    # keep holds all of a direction of ker P or none of it: an entry
    # that couples its parameters keeps all of their roots or none
    eq += [(u, 0.0) for u in hier.unseen[keep].T if u.any()]
    if eq:
        p0, N = _restrict(np.array([g for g, _ in eq]), np.array([r for _, r in eq]), p0, N)
    return p0, N


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


def _adjoint_closure(words, pres: Presentation,
                     adjoint: dict[Word, tuple[Word, complex] | None]) -> dict:
    """adjoint extended, in place, by every word reached from words through
    single-term adjoints: w maps to (u, c) when nf(w*) = c u, else to None."""
    for w in words:
        while w not in adjoint:
            terms = normal_form(w.adjoint(), pres).terms()
            adjoint[w] = terms[0] if len(terms) == 1 else None
            w = terms[0][0] if len(terms) == 1 else w
    return adjoint


def _moment_parameters(adjoint: dict[Word, tuple[Word, complex] | None], real_mode: bool
                       ) -> tuple[list[Word], tuple, list[Word], np.ndarray]:
    """The words of adjoint, a set closed under single-term adjoints
    (_adjoint_closure), sorted; the map
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


def _entry(left: Word, weight: Polynomial, right: Word, pres: Presentation) -> Polynomial:
    """nf(left * weight * right) for a basis word and an adjoint one: for
    the unit weight the presentation's cached normal form itself, otherwise
    the normal form of sum_t c_t left w_t right."""
    if weight == _UNIT:
        return normal_form(Word(left + right), pres)
    return normal_form(Polynomial({Word(left + w + right): c
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
    off-diagonal entry, and the eigenpairs of their block scaled to a unit
    diagonal.  The coordinates of entry (i, j) are its Re, and off the
    diagonal sqrt(2) Re and sqrt(2) Im, so two terms of one entry add
    w Re(conj(v) v'), w = 1 on the diagonal and 2 off it."""
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
        coupled = np.flatnonzero(np.bincount(pair[np.bincount(inv, g[off]) != 0] // n,
                                             minlength=n))
    if len(coupled):
        at = np.full(n, -1)
        at[coupled] = np.arange(len(coupled))
        both = (at[a] >= 0) & (at[b] >= 0)
        M = np.zeros((len(coupled), len(coupled)))
        np.add.at(M, (at[a[both]], at[b[both]]), g[both])
        s = np.sqrt(d[coupled])
        lam, V = np.linalg.eigh(M / np.outer(s, s))
    return d, coupled, lam, V


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


def _kernel(G: tuple, n: int) -> np.ndarray:
    """ker P over n parameters as orthonormal columns: a unit vector per
    parameter in no entry, and the eigenvectors of P^T P on the columns that
    multi-term entries couple, scaled to a unit diagonal, whose eigenvalues
    are at most RANK_TOL times the largest, scaled back and orthonormalized."""
    d, coupled, lam, V = _gram(*G, n)
    null = V[:, lam <= RANK_TOL * lam.max(initial=0.0)] / np.sqrt(d[coupled])[:, None]
    lone = np.flatnonzero(d == 0)
    K = np.zeros((n, len(lone) + null.shape[1]))
    K[lone, np.arange(len(lone))] = 1.0
    if null.size:
        K[coupled, len(lone):] = np.linalg.qr(null)[0]
    return K


def _signed_image(sigma: tuple[int, ...], w: Word, index: dict[Word, int],
                  pres: Presentation) -> tuple[int, int] | None:
    """(index[u], c) with nf(sigma(w)) = c u, c = +-1, or None when sigma(w)
    is not +-1 times a word of index.  The words of index are normal forms,
    so an image that is one of them is its own normal form."""
    u, c = signed_word(sigma, w)
    if u in index:
        return index[u], c
    nf = normal_form_word(u, pres)._terms
    if len(nf) != 1:
        return None
    (u, d), = nf.items()
    if u not in index or abs(d.imag) > GROUP_TOL or abs(abs(d.real) - 1.0) > GROUP_TOL:
        return None
    return index[u], c if d.real > 0 else -c


def _aggregate(key: np.ndarray, v: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The values v summed per key, as the sorted keys and their sums, a sum
    of size at most tol dropped."""
    key, inv = np.unique(key, return_inverse=True)
    total = np.bincount(inv, v.real, len(key))
    if np.iscomplexobj(v):
        total = total + 1j * np.bincount(inv, v.imag, len(key))
    nz = np.abs(total) > tol
    return key[nz], total[nz]


def _action(hier: "Hierarchy", sigma: tuple[int, ...], pres: Presentation
            ) -> tuple[np.ndarray, ...] | None:
    """The signed permutation (perm, sign) of the moment parameters, (S p)_k
    = sign_k p_perm_k, that a signed generator permutation sigma induces,
    followed when sigma conjugates by the signed node map (beta, eps) on
    the basis indices of every block, or None when S maps some block's
    moment matrix to no signed permutation of a block's: Gamma(S p) = E Pi Gamma(p) Pi^T E, blocks
    permuted among equal weights, and E Pi conj(Gamma(p)) Pi^T E when sigma
    conjugates.

    sigma sends basis word gamma_i to e_i gamma_beta(i), and a state omega
    to omega o sigma, whose parameters are S p, or to conj o omega o sigma
    when sigma conjugates: a root word r goes to nf(sigma(r)) = c u, so its
    moment to c W[u] p, or conj(c W[u] p), read off on r's own parameters.
    The action is kept when every basis word and root goes to +-1 times a
    word of the hierarchy, S is a signed permutation, and it maps G's
    triplets, conjugated when sigma conjugates, onto themselves, which also
    makes it sound where the rewriting is not confluent."""
    conj = conjugates(sigma, pres)
    to = [0]
    for weight in hier.weights[1:]:
        image = normal_form(apply_signed(sigma, weight, conj), pres)
        to.append(next((b for b, w in enumerate(hier.weights)
                        if b and w.close_to(image, GROUP_TOL)), -1))
    if -1 in to or len(set(to)) != len(to):
        return None
    # the words whose images give the action: the main basis (each a word
    # of the hierarchy), then each root once
    main = hier.bases[0]
    roots = list(dict.fromkeys(hier.roots))
    image = [_signed_image(sigma, w, hier.word_index, pres) for w in main + roots]
    if None in image:
        return None
    u, c = np.array(image).T

    # the signed node map beta, eps over the blocks, block b sent to to[b]
    basis_at = np.full(len(hier.words), -1)
    basis_at[[hier.word_index[w] for w in main]] = np.arange(len(main))
    sizes = np.diff(hier.starts)
    block = np.repeat(np.arange(len(sizes)), sizes)
    offset = np.arange(hier.starts[-1]) - hier.starts[block]
    b0, to = basis_at[u[offset]], np.array(to)[block]
    if not ((b0 >= 0) & (b0 < sizes[to])).all():
        return None
    beta, eps = hier.starts[to] + b0, c[offset]

    # S off W: a parameter of root r takes the real part of its own
    # coefficient's conjugate times c W[u], or c conj(W[u]), which must be +-1
    # on one parameter
    root_at = {r: len(main) + i for i, r in enumerate(roots)}
    of_root = np.array([root_at[r] for r in hier.roots], dtype=int)
    root_words = np.array([hier.word_index[r] for r in hier.roots], dtype=int)
    n_params = len(hier.roots)
    is_own = (hier.Wk[root_words] == np.arange(n_params)[:, None]) & (hier.Wv[root_words] != 0)
    own = np.conj(hier.Wv[root_words, is_own.argmax(axis=1)])
    u, c = u[of_root], c[of_root]
    M = ((own * c)[:, None] * (np.conj(hier.Wv[u]) if conj else hier.Wv[u])).real
    j = np.abs(M).argmax(axis=-1)[:, None]
    top = np.take_along_axis(M, j, -1)[:, 0]
    perm = np.take_along_axis(hier.Wk[u], j, -1)[:, 0].astype(np.int32)
    sign = np.sign(top).astype(np.int8)
    if not ((np.abs(np.abs(top) - 1.0) <= GROUP_TOL).all()
            and (np.abs(M).sum(axis=-1) - np.abs(top) <= GROUP_TOL).all()
            and (np.sort(perm) == np.arange(n_params)).all()):
        return None

    # G's triplets under the action, moved to the upper triangle, must be
    # G's own, both summed per entry and parameter
    I, J, k, v = hier.G
    n = hier.starts[-1]
    tol = GROUP_TOL * max(1.0, np.abs(v).max(initial=0.0))
    want, want_total = _aggregate((I * n + J) * n_params + k, v, tol)
    Ib, Jb = beta[I], beta[J]
    w = eps[I] * eps[J] * sign[k] * (np.conj(v) if conj else v)
    swap = Ib > Jb
    if np.iscomplexobj(w):
        w = np.where(swap, np.conj(w), w)
    key, total = _aggregate((np.where(swap, Jb, Ib) * n + np.where(swap, Ib, Jb)) * n_params
                            + perm[k], w, tol)
    if len(key) != len(want) or (key != want).any() or (np.abs(total - want_total) > tol).any():
        return None
    for a in (perm, sign, beta, eps):
        a.flags.writeable = False
    # only a conjugating element's node map is read, by _real_basis
    return (perm, sign, beta, eps) if conj else (perm, sign)


def _invariant_columns(perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The signed orbit indicators V, one column per orbit, that span the
    vectors p with p_k = sign_k p_perm_k for every row (perm, sign), the
    generators of a group.  Each index is tied to the least index of its
    orbit, found by relaxing both ways along every generator to a fixpoint,
    with the sign the ties compose to; an orbit where two ties disagree
    holds only p = 0 and has no column."""
    n = perm.shape[1]
    root, rel = np.arange(n), np.ones(n, dtype=np.int8)
    while True:
        last = root.copy()
        for p, s in zip(perm, sign):
            # p_k = s_k p_(perm k): k takes perm k's root, or perm k takes k's
            take = root[p] < root
            root[take], rel[take] = root[p][take], (s * rel[p])[take]
            take = root < root[p]
            root[p[take]], rel[p[take]] = root[take], (s * rel)[take]
        if (root == last).all():
            break
    conflict = np.zeros(n, dtype=bool)
    for p, s in zip(perm, sign):
        conflict[root[rel != s * rel[p]]] = True
    kept = ~conflict[root]
    is_root = np.zeros(n, dtype=bool)
    is_root[root[kept]] = True
    V = np.zeros((n, int(is_root.sum())))
    V[kept.nonzero()[0], (np.cumsum(is_root) - 1)[root[kept]]] = rel[kept]
    return V


def _invariant_directions(N: np.ndarray, V: np.ndarray) -> np.ndarray:
    """An orthonormal basis Q of range(N^T V).  When N selects coordinates,
    the nonzero columns of N^T V have disjoint supports, and Q is them
    scaled to unit length, so that N Q holds +-1/sqrt(orbit size) and one
    parameter per row; otherwise it is read off the SVD."""
    B = N.T @ V
    if ((N == 0) | (N == 1)).all() and (N.sum(axis=0) == 1).all():
        B = B[:, B.any(axis=0)]
        return B / np.sqrt((B * B).sum(axis=0))
    U, sv, _ = np.linalg.svd(B, full_matrices=False)
    return U[:, :int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0]


def _real_basis(beta: np.ndarray, eps: np.ndarray, nodes: np.ndarray) -> np.ndarray | None:
    """The unitary U whose columns are fixed vectors of the antiunitary
    J v = E Pi conj(v), (J v)_i = eps_i conj(v_beta(i)), on the basis
    indices nodes of one component, or None unless J maps them onto
    themselves with J^2 = I: beta an involution there with eps equal on each
    swapped pair.  Column i is (e_i + eps e_j) / sqrt(2) for the first i of a
    pair i, j = beta(i), i (e_i - eps e_j) / sqrt(2) for the second, and e_i,
    or i e_i when eps_i = -1, for a fixed index; U* A U is real for every A
    that commutes with J."""
    at = np.full(len(beta), -1)
    at[nodes] = np.arange(len(nodes))
    b, e = at[beta[nodes]], eps[nodes]
    i = np.arange(len(nodes))
    if (b < 0).any() or (b[b] != i).any() or (e != e[b]).any():
        return None
    r = math.sqrt(0.5)
    U = np.zeros((len(i), len(i)), dtype=complex)
    U[i, i] = np.where(i == b, np.where(e > 0, 1.0, 1j), np.where(i < b, r, -1j * r * e))
    U[b[i < b], i[i < b]] = r * e[i < b]
    U[b[i > b], i[i > b]] = 1j * r
    U.flags.writeable = False
    return U


class Hierarchy:
    """The first stage of a relaxation, which no objective enters: the
    blocks' bases, weights and entries, the closed word set adjoint with its
    moment parameters (W, their roots and root ids), G and ker P, and the
    edges term sparsity runs on, with the functionals and the checks that
    read them.  relax() is the second stage, and every relaxation it makes
    holds this hierarchy.

    Every array is read-only, and no list or dict is mutated once made, so
    that every relaxation of the hierarchy shares them.  The exceptions are
    two caches of the symmetry search: _actions keeps the action on the
    parameters (_action) of each signed generator permutation that a search
    offers, and _orbits the search's result (_symmetry) per objective and
    scalar constraints, which fix the kept parameters and the functionals
    it reads, with the real basis of each component that relax finds."""

    def __init__(self, level: int, real_mode: bool, bases: list[list[Word]],
                 weights: list[Polynomial], entries: list, adjoint: dict):
        self.level, self.real_mode = level, real_mode
        self.bases, self.weights, self.entries, self.adjoint = bases, weights, entries, adjoint
        self.words, (self.Wk, self.Wv), self.roots, self.root_ids = \
            _moment_parameters(adjoint, real_mode)
        self.word_index = {w: k for k, w in enumerate(self.words)}

        # every term of an upper-triangle entry (i, j), i and j numbering the
        # basis indices of every block, block after block, with its word and
        # coefficient; G is each term times its word's row of W, the
        # imaginary part of a diagonal entry dropped, as Hermitian blocks
        # drop it
        self.starts = np.cumsum([0] + [len(b) for b in bases])
        I, J, word, coeff = map(np.array, zip(*[
            (s + i, s + j, self.word_index[w], c) for mat, s in zip(entries, self.starts)
            for i, row in enumerate(mat) for j in range(i, len(row)) for w, c in row[j].terms()]))
        width = self.Wk.shape[1]
        v = (coeff[:, None] * self.Wv[word]).ravel()
        v = v.real if real_mode else np.where(np.repeat(I == J, width), v.real, v)
        nz = v != 0
        self.G = tuple(x[nz] for x in (np.repeat(I, width), np.repeat(J, width),
                                       self.Wk[word].ravel(), v))
        self.unseen = _kernel(self.G, len(self.roots))

        # term sparsity's edges: the terms of upper-triangle entries on a
        # root, with the root id of their word's parameters (-1 for a word
        # pinned to 0)
        self.word_root = np.where(self.Wv[:, 0] != 0, self.root_ids[self.Wk[:, 0]], -1)
        r = self.word_root[word]
        self.edges = (I[r >= 0], J[r >= 0], r[r >= 0])
        self.n_roots = int(self.root_ids.max(initial=-1)) + 1
        self._actions: dict[tuple[int, ...], tuple[np.ndarray, ...] | None] = {}
        self._orbits: dict[tuple, tuple] = {}
        for a in (self.Wk, self.Wv, self.root_ids, self.starts, *self.G, self.unseen,
                  self.word_root, *self.edges):
            a.flags.writeable = False

    @property
    def _P(self) -> np.ndarray:
        """P made dense, coordinates by parameters, from G's terms."""
        I, J, k, v = self.G
        sizes = np.diff(self.starts)
        b = np.searchsorted(self.starts, I, side="right") - 1
        n, i, j = sizes[b], I - self.starts[b], J - self.starts[b]
        counts = [_n_coords(m, self.real_mode) for m in sizes]
        row = np.cumsum([0, *counts])[b] + i * n - i * (i - 1) // 2 + j - i
        P = np.zeros((sum(counts), len(self.roots)))
        np.add.at(P, (row, k), np.where(i == j, 1.0, math.sqrt(2.0)) * v.real)
        if not self.real_mode:
            # the strict upper triangle's Im after the block's n(n+1)/2 Re
            off = i != j
            np.add.at(P, ((row + n * (n + 1) // 2 - i - 1)[off], k[off]),
                      math.sqrt(2.0) * v.imag[off])
        return P

    def _functional(self, p: Polynomial, what: str, pres: Presentation) -> np.ndarray:
        """Complex f with omega(p) = f . params."""
        index = self.word_index
        o = np.zeros(len(index), dtype=complex)
        for w, c in p.terms():
            if w not in index:
                raise NotRepresentableError(
                    f"{what} involves {word_to_str(w, pres)}, "
                    "which lies outside this moment structure; raise the level")
            o[index[w]] += c
        f = np.zeros(len(self.roots), dtype=complex)
        np.add.at(f, self.Wk, o[:, None] * self.Wv)
        return f

    def _check(self, f: np.ndarray, resid: np.ndarray, what: str, pres: Presentation) -> None:
        """NotRepresentableError when resid, the size per parameter of the
        part of f that no trace pairing reaches, exceeds REPRESENT_TOL,
        naming the worst root among the words of the functional itself."""
        if np.max(resid, initial=0.0) > REPRESENT_TOL:
            used = np.flatnonzero(f)
            root = self.roots[int(used[np.argmax(resid[used])])]
            raise NotRepresentableError(
                f"{what} involves {word_to_str(root, pres)}, "
                f"which the level-{self.level} moment blocks do not determine; "
                "raise the level")

    def _representative(self, P: np.ndarray, f: np.ndarray, what: str,
                        pres: Presentation) -> np.ndarray:
        """Least-norm coordinates c, on the rows of P (all of them, or the
        main block's), of the trace functional worth f . p at every
        parameter vector p."""
        c = np.linalg.lstsq(P.T, f, rcond=None)[0]
        self._check(f, np.abs(P.T @ c - f), what, pres)
        return c

    def extended(self, words: list[Word], pres: Presentation) -> "Hierarchy":
        """The hierarchy on the same blocks whose word set also holds words,
        numbered as if they had been among the entries' words."""
        return Hierarchy(self.level, self.real_mode, self.bases, self.weights, self.entries,
                         _adjoint_closure(words, pres, dict(self.adjoint)))

    def _symmetry(self, pres: Presentation, polys: list[Polynomial], F: np.ndarray,
                  keep: np.ndarray) -> tuple[int, np.ndarray | None, tuple | None, dict]:
        """The order of the group of signed generator permutations, in
        complex mode also composed with conjugation, that fix polys, the
        objective and the scalar constraints; the signed orbit indicators V
        of the kept parameters under it, None when it moves none; the node
        map (beta, eps) of its conjugating generator, None without one; and
        an empty cache of the real bases (_real_basis) that relax fills.
        The search fixes the polynomials' Hermitian parts, whose functionals
        are F's rows; an action is taken when it fixes F within GROUP_TOL and
        maps the kept parameters, off which F vanishes, onto themselves."""
        at = np.full(len(self.roots), -1)
        at[keep] = np.arange(len(keep))
        tol = GROUP_TOL * max(1.0, np.abs(F).max(initial=0.0))

        def accept(sigma: tuple[int, ...]) -> bool:
            if sigma not in self._actions:
                self._actions[sigma] = _action(self, sigma, pres)
            action = self._actions[sigma]
            return action is not None and (at[action[0][keep]] >= 0).all() and \
                np.abs(F[:, action[0]] - action[1] * F).max(initial=0.0) <= tol

        hermitian = [normal_form(p + p.adjoint(), pres) for p in polys]
        chain, order = symmetry_chain(pres, hermitian, self.weights[1:], accept,
                                      not self.real_mode)
        J = next((self._actions[s][2:] for s in chain if conjugates(s, pres)), None)
        V = None
        if chain:
            perm, sign = (np.array(a) for a in zip(*(self._actions[s][:2] for s in chain)))
            perm, sign = at[perm[:, keep]], sign[:, keep]
            if not ((perm == np.arange(len(keep))) & (sign == 1)).all():
                V = _invariant_columns(perm, sign)
                V.flags.writeable = False
        return order, V, J, {}

    def relax(self, problem: ProblemFile, objective: Polynomial,
              constraints: list[tuple[Polynomial, str, float]]) -> RelaxationModel:
        """The second stage: the relaxation of the problem's sense of
        objective under the scalar constraints, both in normal form and on
        words of this hierarchy.  Their functionals and their check on ker P,
        the term-sparsity fixpoint seeded by their roots, p0 and N, and the
        LMI."""
        sense_factor = 1.0 if problem.sense == "minimize" else -1.0
        pres = problem.presentation
        f = sense_factor * self._functional(objective, "the objective", pres).real
        g = [self._functional(p, "a scalar constraint", pres).real for p, _, _ in constraints]
        # NotRepresentableError at build, not when the row form is first read:
        # a trace pairing with the blocks vanishes on ker P
        K = self.unseen
        for v, what in [(f, "the objective")] + [(gk, "a scalar constraint") for gk in g]:
            self._check(v, np.abs(K @ (K.T @ v)), what, pres)
        scalar = [(gk, sense, rhs) for gk, (_, sense, rhs) in zip(g, constraints)]

        # term sparsity: the components and the kept roots at their fixpoint,
        # seeded by the objective and the scalar constraints, on one graph
        # whose nodes are the basis indices of every block, block after block
        seed = [self.word_root[self.word_index[w]]
                for p in [objective] + [p for p, _, _ in constraints] for w in p.words()]
        starts = self.starts
        label, kept = _term_components(starts[-1], *self.edges, [r for r in seed if r >= 0],
                                       self.n_roots)
        keep = kept[self.root_ids].nonzero()[0]

        # the LMI in y, the solver's dual: its slack Z = C - sum_k y_k A_k is the
        # moment blocks at p = p0 + N y when C = Gamma(p0), A_k = -Gamma(N e_k),
        # and b = -f N, all over the kept parameters and with one block per
        # component.  A component with every A_k = 0 is the constant Gamma(p0),
        # dropped when it is psd.  Scalar equalities restrict p0 and N, and an
        # inequality adds the 1x1 block +-(g.p - rhs).
        p0, N = _parameters(self, keep, problem.normalization, scalar)
        # the symmetries that fix f, each g and the kept parameters map the
        # feasible set onto itself, so averaging an optimum over them gives
        # an optimum in their invariant subspace: N becomes N Q, Q a basis of
        # range(N^T V) for their signed orbit indicators V.  p0 is invariant
        # already: the point of its affine set, which is invariant, nearest
        # the unit moment's vector, or 0 without normalization.
        polys = [objective] + [p for p, _, _ in constraints]
        key = tuple(frozenset(p.items()) for p in polys)
        if key not in self._orbits:
            self._orbits[key] = self._symmetry(pres, polys, np.array([f, *g]), keep)
        order, V, conj, real_bases = self._orbits[key]
        symmetry = {"order": order, "rows": N.shape[1]}
        if V is not None:
            N = N @ _invariant_directions(N, V)
        at = np.full(len(self.roots), -1)
        at[keep] = np.arange(len(keep))
        # entry (i, j) of matrix k is the sum over the terms of G on kept
        # parameters of value * T[param, k], T = [p0, -N]: one sum per entry,
        # since G runs entry by entry
        T = np.column_stack([p0, -N])
        G = self.G
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
        lmi, main, lifts = [], [], []   # the main block's indices and U per leading LMI block
        sizes = np.diff(starts)
        gamma0 = np.zeros((sizes[0], sizes[0]), dtype=float if self.real_mode else complex)
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
                # a component that the conjugating generator maps onto itself
                # with J^2 = I is real in a basis U of J's fixed vectors
                U = None
                if conj is not None:
                    if block[c] not in real_bases:
                        real_bases[block[c]] = _real_basis(*conj, starts[b] + idx)
                    U = real_bases[block[c]]
                if U is not None:
                    R = U.conj().T @ Ac @ U
                    if np.abs(R.imag).max() <= GROUP_TOL * max(1.0, np.abs(Ac).max()):
                        Ac = R.real
                    else:
                        U = None
                lmi.append(Ac)
                if b == 0:
                    main.append(idx)
                    lifts.append(U)
        for gk, sense, rhs in scalar:
            if sense != SENSE_EQ:
                sign, gk = 1.0 if sense == SENSE_GE else -1.0, gk[keep]
                lmi.append(sign * np.concatenate([[gk @ p0 - rhs], -(gk @ N)])[:, None, None])
        return RelaxationModel(
            problem, self, sense_factor, _f=f, _constraints=scalar, _keep=keep, _p0=p0, _N=N,
            _lmi=SDPModel.from_stacks(lmi, [(SENSE_EQ, float(bk)) for bk in -(f[keep] @ N)]),
            _parts=main, _gamma0=gamma0, _lifts=lifts, symmetry=symmetry)


def _hierarchy(problem: ProblemFile, d: int) -> tuple[Hierarchy, float]:
    """The problem's level-d hierarchy, from its presentation's store or
    made and stored there, and the seconds spent making it (0.0 when it was
    stored).  The positives' warnings fire either way.

    The key is what the first stage reads besides the presentation: the
    level, the main basis when basis_words gives it (the level fixes a
    generated one), the normal forms of the kept positives, and the real
    mode, which the objective and the constraints take part in."""
    pres = problem.presentation
    main_basis = None
    if problem.basis_words is not None:
        main_basis = []
        for w in problem.basis_words:
            nf = normal_form(w, pres).as_word()
            if nf is None:
                raise RelaxationError(
                    f"basis word {word_to_str(w, pres)} does not reduce to a "
                    "single unit-coefficient word")
            main_basis.append(nf)
        main_basis = sorted(set(main_basis) | {UNIT_WORD})

    positives, notes = [], []
    for p in problem.positives:
        nf = normal_form(p, pres)
        if not nf.terms():
            notes.append("a declared positive reduces to zero; skipping")
            continue
        dp = d - math.ceil(nf.degree() / 2)
        if dp < 0:
            notes.append(f"positive {poly_to_str(nf, pres)} needs level "
                         f">= {math.ceil(nf.degree() / 2)}; no localizing block added")
            continue
        positives.append((nf, dp))
    real_mode = _detect_real_mode(problem)
    key = (d, None if main_basis is None else tuple(main_basis),
           tuple(tuple(nf.terms()) for nf, _ in positives), real_mode)

    hier = pres._hierarchies.get(key)
    start = time.perf_counter()
    if hier is None and main_basis is None:
        main_basis = generate_basis(pres, d)
    for note in notes:
        warnings.warn(note, RelaxationWarning)
    if hier is not None:
        return hier, 0.0
    bases = [main_basis] + [[w for w in main_basis if w.degree() <= dp] for _, dp in positives]
    weights = [Polynomial.unit()] + [nf for nf, _ in positives]
    entries = []
    for basis, weight in zip(bases, weights):
        adjoints = [b.adjoint() for b in basis]
        entries.append([[_entry(b, weight, a, pres) for a in adjoints] for b in basis])
    words = {w for mat in entries for row in mat for e in row for w, _ in e.items()}
    hier = Hierarchy(d, real_mode, bases, weights, entries, _adjoint_closure(words, pres, {}))
    pres._hierarchies[key] = hier
    return hier, time.perf_counter() - start


def build_relaxation(problem: ProblemFile, level: int | None = None) -> RelaxationModel:
    start = time.perf_counter()
    d = problem.level if level is None else level
    if d < 0:
        raise RelaxationError("level must be nonnegative")
    hier, seconds = _hierarchy(problem, d)
    pres = problem.presentation
    objective = normal_form(problem.objective, pres)
    constraints = [(normal_form(p, pres), s, r) for p, s, r in problem.constraints]
    # a word outside the blocks' word set gets its parameters on a hierarchy
    # of its own, which is not stored
    outside = [w for p in [objective] + [p for p, _, _ in constraints]
               for w, _ in p.items() if w not in hier.word_index]
    if outside:
        t = time.perf_counter()
        hier = hier.extended(outside, pres)
        seconds += time.perf_counter() - t
    relax = hier.relax(problem, objective, constraints)
    relax.timings = {"hierarchy": seconds, "relax": time.perf_counter() - start - seconds}
    return relax


def gram_representative(relax: RelaxationModel, poly: Polynomial | None = None
                        ) -> np.ndarray:
    """Matrix M with tr(M Gamma) equal to the value of the polynomial for
    every admissible moment matrix Gamma.  Least Frobenius norm among all
    such representatives; raises NotRepresentableError when the polynomial
    cannot be reached from this basis."""
    p = normal_form(poly if poly is not None else relax.problem.objective,
                    relax.problem.presentation)
    hier, pres = relax.hier, relax.problem.presentation
    f = hier._functional(p, "the polynomial", pres)
    if np.max(np.abs(f.imag), initial=0.0) > REPRESENT_TOL:
        raise NotRepresentableError(
            "polynomial is not a real form in the moment parameters")
    n = len(relax.basis)
    c = hier._representative(hier._P[:_n_coords(n, hier.real_mode)], f.real, "the polynomial",
                             pres)
    return _matrices(c[:, None], n, hier.real_mode)[0]


def expand_gram(relax: RelaxationModel, M: np.ndarray) -> Polynomial:
    """Re-expand a representative: sum_ij M_ij gamma_j gamma_i-adjoint in
    normal form, matching the pairing tr(M Gamma).  The normal form of
    gamma_j gamma_i-adjoint is the main block's entry (j, i)."""
    gamma = relax.hier.entries[0]
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
