"""Moment relaxation: from an algebra problem to a finite block SDP.

The moment matrix over a word basis (gamma_i) has entries that are normal
forms of gamma_i * weight * gamma_j-adjoint.  Words appearing in those
entries become shared scalar unknowns; adjoint relations between them are
collapsed into orbits, and each orbit is pinned to one matrix slot (its
pivot).  Every other slot yields an equality trace row against the pivots,
so the kernel of the evaluation map is enforced without ever materializing
a spanning set for it.

Soundness rule of thumb kept throughout: every emitted row must be implied
by genuine moment vectors of the presented algebra, so the feasible set can
only grow relative to the true problem and optима stay one-sided bounds.
"""

from __future__ import annotations

import cmath
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
    SENSE_EQ, realify, realify_matrix, to_equality_form, unrealify_matrix,
)
from . import ipm

BASIS_CAP = 2000
COEFF_TOL = 1e-9
CONSISTENCY_TOL = 1e-9


class RelaxationError(Exception):
    pass


class NotRepresentableError(RelaxationError):
    pass


class RelaxationWarning(UserWarning):
    pass


def generate_basis(pres: Presentation, level: int, cap: int = BASIS_CAP) -> list[Word]:
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
        if len(words) > cap:
            raise RelaxationError(
                f"moment basis exceeds cap ({cap}) before level {level}; "
                "lower the level or raise the cap")
    return sorted(words)


class _Orbits:
    """Union-find over variable words with conjugation-and-scale edges.

    Each non-root word stores (flag, factor) meaning
    y_word = factor * y_parent, conjugated first when flag is set.
    Roots carry a state: free, a real line with complex direction phi
    (y = phi * s, s real), or identically zero."""

    def __init__(self):
        self.parent: dict[Word, Word] = {}
        self.edge: dict[Word, tuple[bool, complex]] = {}
        self.state: dict[Word, tuple[str, complex | None]] = {}

    def add(self, w: Word):
        if w not in self.parent:
            self.parent[w] = w
            self.edge[w] = (False, 1.0 + 0j)
            self.state[w] = ("free", None)

    def find(self, w: Word) -> tuple[Word, bool, complex]:
        if self.parent[w] == w:
            return w, False, 1.0 + 0j
        r, f, c = self.find(self.parent[w])
        ef, ec = self.edge[w]
        cc = ec * (c.conjugate() if ef else c)
        ff = f != ef
        self.parent[w] = r
        self.edge[w] = (ff, cc)
        return r, ff, cc

    def union_conj(self, w: Word, u: Word, c: complex) -> tuple[Word, Word, complex] | None:
        """Record y_w = c * conj(y_u).  Returns the triple back when both
        live in one orbit already, for the deferred consistency pass."""
        rw, fw, cw = self.find(w)
        ru, fu, cu = self.find(u)
        if rw == ru:
            return (w, u, c)
        beta = c * cu.conjugate()
        fb = not fu
        K = beta / cw
        if not fw:
            self.parent[rw] = ru
            self.edge[rw] = (fb, K)
        else:
            self.parent[rw] = ru
            self.edge[rw] = (not fb, K.conjugate())
        return None

    def impose_zero(self, r: Word):
        self.state[r] = ("zero", None)

    def impose_line(self, r: Word, phi: complex):
        st, old = self.state[r]
        if st == "zero":
            return
        if st == "free":
            self.state[r] = ("line", phi)
            return
        if min(abs(phi - old), abs(phi + old)) > 1e-8:
            self.state[r] = ("zero", None)

    def settle(self, w: Word, u: Word, c: complex):
        """Apply a same-orbit relation y_w = c * conj(y_u) to the root."""
        rw, fw, cw = self.find(w)
        _, fu, cu = self.find(u)
        alpha, fa = cw, fw
        beta, fb = c * cu.conjugate(), not fu
        if fa == fb:
            if abs(alpha - beta) > CONSISTENCY_TOL * max(abs(alpha), abs(beta), 1.0):
                self.impose_zero(rw)
            return
        g = alpha / beta if fa else beta / alpha
        if abs(abs(g) - 1.0) > 1e-8:
            self.impose_zero(rw)
            return
        self.impose_line(rw, cmath.sqrt(g))

    def resolve(self, w: Word) -> tuple[str, Word, complex]:
        """Kinds: zero; real (y = coeff * s, s a real parameter);
        id / conj (y = coeff * t or coeff * conj t, t complex free)."""
        r, f, c = self.find(w)
        st, phi = self.state[r]
        if st == "zero":
            return ("zero", r, 0j)
        if st == "line":
            mu = c * (phi.conjugate() if f else phi)
            return ("real", r, mu)
        return (("conj" if f else "id"), r, c)


# A linear functional on block entries: {(block, p, q): coeff} standing for
# sum coeff * X_block[p, q].

def _acc(F: dict, key, v):
    F[key] = F.get(key, 0j) + v


def _conj_functional(F):
    return {(b, q, p): v.conjugate() for (b, p, q), v in F.items()}


def _sym_from_functional(F, sizes):
    mats = [np.zeros((n, n)) for n in sizes]
    for (b, p, q), v in F.items():
        if p == q:
            mats[b][p, p] += v.real
        else:
            mats[b][p, q] += v.real / 2
            mats[b][q, p] += v.real / 2
    return mats


def _herm_from_functional(F, sizes):
    # tr(H X) = Re(sum coeff X[p,q]) for hermitian X
    mats = [np.zeros((n, n), dtype=complex) for n in sizes]
    for (b, p, q), v in F.items():
        mats[b][q, p] += v / 2
        mats[b][p, q] += v.conjugate() / 2
    return mats


def _functional_norm(mats):
    return max((float(np.max(np.abs(M))) if M.size else 0.0) for M in mats)


@dataclass
class RelaxationResult:
    bound: float
    status: ipm.Status
    solution: ipm.Solution
    moments: dict[Word, complex]
    moment_matrix: np.ndarray
    level: int


@dataclass
class RelaxationModel:
    problem: ProblemFile
    level: int
    real_mode: bool
    bases: list[list[Word]]            # per block, main block first
    weights: list[Polynomial]          # block weight polynomials, unit first
    entries: list[list[list[Polynomial]]]
    model: SDPModel                    # solver-ready (realified when complex)
    hermitian: HermitianModel | None
    n_moment_vars: int
    structure_rows: int
    sense_factor: float                # +1 minimize, -1 maximize
    _orbits: _Orbits = field(repr=False, default=None)
    _pivots: dict = field(repr=False, default_factory=dict)
    _var_words: list[Word] = field(repr=False, default_factory=list)

    @property
    def basis(self) -> list[Word]:
        return self.bases[0]

    def solve(self, options: ipm.SolverOptions | None = None) -> RelaxationResult:
        work = self.model if self.model.is_equality_only() else to_equality_form(self.model)
        sol = ipm.solve(work, options)
        bound = self.sense_factor * sol.primal_value
        moments = {}
        gamma = np.zeros((0, 0))
        if sol.status in (ipm.Status.OPTIMAL, ipm.Status.MAX_ITER):
            moments = self.moments_from(sol)
            gamma = self.moment_block(sol)
        return RelaxationResult(bound, sol.status, sol, moments, gamma, self.level)

    def _block_matrix(self, sol: ipm.Solution, b: int) -> np.ndarray:
        Xb = sol.X[b]
        return unrealify_matrix(Xb) if not self.real_mode else Xb

    def moment_block(self, sol: ipm.Solution) -> np.ndarray:
        return self._block_matrix(sol, 0)

    def moments_from(self, sol: ipm.Solution) -> dict[Word, complex]:
        params: dict[Word, complex] = {}
        for root, (b, i, j, kind, sigma) in self._pivots.items():
            V = complex(self._block_matrix(sol, b)[i, j])
            if kind == "real":
                params[root] = complex((V / sigma).real)
            elif kind == "id":
                params[root] = V / sigma
            else:
                params[root] = (V / sigma).conjugate()
        out: dict[Word, complex] = {}
        for w in self._var_words:
            kind, root, mu = self._orbits.resolve(w)
            if kind == "zero":
                out[w] = 0j
            elif kind == "real":
                out[w] = mu * params[root].real if root in params else 0j
            elif root not in params:
                out[w] = 0j
            elif kind == "id":
                out[w] = mu * params[root]
            else:
                out[w] = mu * params[root].conjugate()
        return out

    def blocks_from_moments(self, moments: dict[Word, complex]) -> list[np.ndarray]:
        """Candidate solver blocks from a word-moment assignment, e.g. one
        realized by a concrete representation.  Useful with
        ipm.feasibility_check to confirm genuine states stay feasible."""
        out = []
        for b, basis in enumerate(self.bases):
            n = len(basis)
            G = np.zeros((n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    v = 0j
                    for w, c in self.entries[b][i][j].terms():
                        if w not in moments:
                            raise RelaxationError(
                                f"moment for word {word_to_str(w, self.problem.presentation)}"
                                " missing from the assignment")
                        v += c * moments[w]
                    G[i, j] = v
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


def build_relaxation(problem: ProblemFile, level: int | None = None,
                     cap: int = BASIS_CAP) -> RelaxationModel:
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
        main_basis = generate_basis(pres, d, cap)

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

    # close under single-term adjoints so conjugation links are never lost
    orbits = _Orbits()
    pending = []
    queue = sorted(var_words)
    seen = set(queue)
    while queue:
        w = queue.pop()
        orbits.add(w)
        adj = normal_form(Polynomial.from_word(word_adjoint(w)), pres)
        terms = adj.terms()
        if len(terms) != 1:
            continue
        u, c = terms[0]
        orbits.add(u)
        if u not in seen:
            seen.add(u)
            queue.append(u)
        # conj(y_w) = c y_u, hence y_w = conj(c) conj(y_u)
        rel = orbits.union_conj(w, u, c.conjugate())
        if rel is not None:
            pending.append(rel)
    var_words = seen
    for w, u, c in pending:
        orbits.settle(w, u, c)

    real_mode = _detect_real_mode(problem)
    roots = sorted({orbits.find(w)[0] for w in var_words})
    if real_mode:
        for r in roots:
            st, phi = orbits.state[r]
            if st == "free":
                orbits.state[r] = ("line", 1.0 + 0j)
            elif st == "line":
                if abs(phi.imag) > 1e-8:
                    # y must equal a purely imaginary multiple of a real
                    # parameter and stay real: only zero does both
                    orbits.state[r] = ("zero", None)
                else:
                    orbits.state[r] = ("line", 1.0 + 0j)

    sizes = [len(b) for b in bases]

    # pivot scan: first single-term slot in block-major upper-triangle order
    pivots: dict[Word, tuple] = {}
    for b in range(len(bases)):
        n = sizes[b]
        for i in range(n):
            for j in range(i, n):
                terms = entries[b][i][j].terms()
                if len(terms) != 1:
                    continue
                w, c = terms[0]
                kind, root, mu = orbits.resolve(w)
                if kind == "zero" or root in pivots:
                    continue
                sigma = c * mu
                if abs(sigma) < COEFF_TOL:
                    continue
                pivots[root] = (b, i, j, "real" if kind == "real" else kind, sigma)

    def read_param(root) -> tuple[dict, str]:
        b, i, j, kind, sigma = pivots[root]
        if kind == "real":
            # s = Re(X_bij / sigma)
            F = {}
            _acc(F, (b, i, j), 0.5 / sigma)
            _acc(F, (b, j, i), (0.5 / sigma).conjugate())
            return F, "real"
        if kind == "id":
            return {(b, i, j): 1.0 / sigma}, "id"
        return {(b, j, i): (1.0 / sigma).conjugate()}, "conj"

    dropped: set[Word] = set()

    def term_functional(w, c) -> dict | None:
        """Functional reading c * y_w off the pivots, or None if y_w hangs
        on an orbit that never got a pivot slot."""
        kind, root, mu = orbits.resolve(w)
        if kind == "zero":
            return {}
        if root not in pivots:
            dropped.add(root)
            return None
        F, _ = read_param(root)
        if kind == "conj":
            F = _conj_functional(F)
        coeff = c * mu
        out = {}
        for k, v in F.items():
            _acc(out, k, coeff * v)
        return out

    def poly_functional(p: Polynomial, where: str) -> dict:
        total = {}
        for w, c in p.terms():
            F = term_functional(w, c)
            if F is None:
                raise RelaxationError(
                    f"{where} involves {word_to_str(w, pres)}, which the "
                    f"level-{d} moment matrix does not pin down; raise the level")
            for k, v in F.items():
                _acc(total, k, v)
        return total

    constraints: list[LinearConstraint] = []
    structure_rows = 0

    def emit(F, sense, rhs, count_structure):
        nonlocal structure_rows
        if real_mode:
            mats = _sym_from_functional(F, sizes)
            if _functional_norm(mats) < 1e-12:
                return
            constraints.append(LinearConstraint(mats, sense, rhs))
            if count_structure:
                structure_rows += 1
            return
        re_mats = _herm_from_functional(F, sizes)
        if _functional_norm(re_mats) >= 1e-12:
            constraints.append(LinearConstraint(re_mats, sense, rhs))
            if count_structure:
                structure_rows += 1
        im_mats = _herm_from_functional({k: -1j * v for k, v in F.items()}, sizes)
        if _functional_norm(im_mats) >= 1e-12:
            constraints.append(LinearConstraint(im_mats, SENSE_EQ, 0.0))
            if count_structure:
                structure_rows += 1

    # line pivots in complex mode carry Im(X_pivot / sigma) = 0
    if not real_mode:
        for root, (b, i, j, kind, sigma) in sorted(
                pivots.items(), key=lambda kv: kv[1][:3]):
            if kind != "real":
                continue
            F = {(b, i, j): -1j / sigma}
            mats = _herm_from_functional(F, sizes)
            if _functional_norm(mats) >= 1e-12:
                constraints.append(LinearConstraint(mats, SENSE_EQ, 0.0))
                structure_rows += 1

    for b in range(len(bases)):
        n = sizes[b]
        for i in range(n):
            for j in range(i, n):
                F = {(b, i, j): 1.0 + 0j}
                ok = True
                for w, c in entries[b][i][j].terms():
                    T = term_functional(w, c)
                    if T is None:
                        ok = False
                        break
                    for k, v in T.items():
                        _acc(F, k, -v)
                if not ok:
                    continue
                emit(F, SENSE_EQ, 0.0, True)

    if dropped:
        names = ", ".join(word_to_str(orbits.find(w)[0], pres) for w in sorted(dropped)[:4])
        warnings.warn(
            f"{len(dropped)} moment orbit(s) have no pivot slot (e.g. {names}); "
            "their structure rows are omitted", RelaxationWarning)

    if problem.normalization:
        Fn = term_functional(UNIT_WORD, 1.0 + 0j)
        if not Fn:
            raise RelaxationError("unit word is not represented; cannot normalize")
        if real_mode:
            constraints.append(LinearConstraint(_sym_from_functional(Fn, sizes),
                                                SENSE_EQ, 1.0))
        else:
            constraints.append(LinearConstraint(_herm_from_functional(Fn, sizes),
                                                SENSE_EQ, 1.0))

    for p, sense, rhs in cons_nf:
        F = poly_functional(p, "a scalar constraint")
        emit(F, sense, float(rhs), False)

    sense_factor = 1.0 if problem.sense == "minimize" else -1.0
    F_obj = poly_functional(obj_nf, "the objective")
    F_obj = {k: sense_factor * v for k, v in F_obj.items()}
    if real_mode:
        cost = _sym_from_functional(F_obj, sizes)
    else:
        cost = _herm_from_functional(F_obj, sizes)

    n_vars = 0
    for r in roots:
        st, _ = orbits.state[r]
        if st == "zero":
            continue
        n_vars += 1 if (st == "line") else 2

    if real_mode:
        model = SDPModel([Block(n) for n in sizes], cost, constraints)
        hermitian = None
    else:
        hermitian = HermitianModel(sizes, cost, constraints)
        model = realify(hermitian)
    model.validate()

    return RelaxationModel(
        problem=problem, level=d, real_mode=real_mode,
        bases=bases, weights=weights, entries=entries,
        model=model, hermitian=hermitian,
        n_moment_vars=n_vars, structure_rows=structure_rows,
        sense_factor=sense_factor,
        _orbits=orbits, _pivots=pivots, _var_words=sorted(var_words),
    )


def _moment_parameterization(relax: RelaxationModel):
    """Main-block moment matrix as sum_k p_k H_k over real parameters p_k,
    one (line) or two (free complex) per orbit, plus the objective's real
    coefficient vector on the same parameters."""
    orbits = relax._orbits
    basis = relax.bases[0]
    n = len(basis)
    roots = sorted({orbits.find(w)[0] for w in relax._var_words})
    index: dict[tuple[Word, int], int] = {}
    for r in roots:
        st, _ = orbits.state[r]
        if st == "zero":
            continue
        index[(r, 0)] = len(index)
        if st == "free":
            index[(r, 1)] = len(index)
    K = len(index)
    H = [np.zeros((n, n), dtype=complex) for _ in range(K)]

    def contribs(w, c):
        if w not in orbits.parent:
            raise NotRepresentableError(
                f"word {word_to_str(w, relax.problem.presentation)} lies outside "
                "this moment structure; raise the level")
        kind, root, mu = orbits.resolve(w)
        if kind == "zero":
            return []
        if kind == "real":
            return [(index[(root, 0)], c * mu)]
        if kind == "id":
            return [(index[(root, 0)], c * mu), (index[(root, 1)], 1j * c * mu)]
        return [(index[(root, 0)], c * mu), (index[(root, 1)], -1j * c * mu)]

    for i in range(n):
        for j in range(i, n):
            for w, c in relax.entries[0][i][j].terms():
                for k, v in contribs(w, c):
                    H[k][i, j] += v
                    if i != j:
                        H[k][j, i] += v.conjugate()

    def functional_coeffs(p: Polynomial):
        o = np.zeros(K)
        for w, c in p.terms():
            for k, v in contribs(w, c):
                if abs(v.imag) > 1e-8:
                    raise NotRepresentableError(
                        "objective is not a real form in the moment parameters")
                o[k] += v.real
        return o

    return H, functional_coeffs


def gram_representative(relax: RelaxationModel, poly: Polynomial | None = None,
                        tol: float = 1e-8) -> np.ndarray:
    """Matrix M with tr(M Gamma) equal to the value of the polynomial for
    every admissible moment matrix Gamma.  Least Frobenius norm among all
    such representatives; raises NotRepresentableError when the polynomial
    cannot be reached from this basis."""
    pres = relax.problem.presentation
    p = normal_form(poly if poly is not None else relax.problem.objective, pres)
    H, functional_coeffs = _moment_parameterization(relax)
    try:
        o = functional_coeffs(p)
    except KeyError:
        raise NotRepresentableError(
            "polynomial involves words outside this moment structure; "
            "raise the level") from None
    n = len(relax.bases[0])
    K = len(H)

    if relax.real_mode:
        params = [(i, i, 1.0) for i in range(n)]
        params += [(i, j, 0.0) for i in range(n) for j in range(i + 1, n)]
        cols = []
        for (i, j, _) in params:
            col = np.empty(K)
            for k in range(K):
                col[k] = (H[k][i, j].real if i == j
                          else 2.0 * H[k][i, j].real)
            cols.append(col)
        D = np.column_stack(cols) if cols else np.zeros((K, 0))
        sol, *_ = np.linalg.lstsq(D, o, rcond=None)
        M = np.zeros((n, n))
        for (i, j, _), v in zip(params, sol):
            if i == j:
                M[i, i] = v
            else:
                M[i, j] = v
                M[j, i] = v
    else:
        params = [("d", i, i) for i in range(n)]
        params += [("re", i, j) for i in range(n) for j in range(i + 1, n)]
        params += [("im", i, j) for i in range(n) for j in range(i + 1, n)]
        cols = []
        for kind, i, j in params:
            col = np.empty(K)
            for k in range(K):
                if kind == "d":
                    col[k] = H[k][i, i].real
                elif kind == "re":
                    col[k] = 2.0 * H[k][i, j].real
                else:
                    col[k] = 2.0 * H[k][i, j].imag
            cols.append(col)
        D = np.column_stack(cols) if cols else np.zeros((K, 0))
        sol, *_ = np.linalg.lstsq(D, o, rcond=None)
        M = np.zeros((n, n), dtype=complex)
        for (kind, i, j), v in zip(params, sol):
            if kind == "d":
                M[i, i] = v
            elif kind == "re":
                M[i, j] += v
                M[j, i] += v
            else:
                M[i, j] += 1j * v
                M[j, i] += -1j * v
    resid = float(np.max(np.abs(D @ sol - o))) if K else 0.0
    if resid > tol:
        raise NotRepresentableError(
            f"no gram representative at level {relax.level} "
            f"(residual {resid:.2e}); raise the level")
    return M


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
