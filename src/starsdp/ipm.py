"""Dense primal-dual interior point solver for block trace-form SDPs.

The solver follows the central path of the simplified homogeneous self-dual
embedding (Ye, Todd and Mizuno 1994; Xu, Hung and Ye 1996; de Klerk, Roos
and Terlaky 1997) of min <C, X> s.t. A(X) = b, X psd and its dual
max b.y s.t. sum_k y_k A_k + Z = C, Z psd, over real symmetric blocks and
Hermitian ones alike: <A, X> = Re tr(A* X), and y, b and the Schur matrix
stay real.  Two scalars tau, kappa >= 0
join X, y and Z, and the embedding asks for

    A(X) = b tau,   sum_k y_k A_k + Z = C tau,   b.y - <C, X> = kappa,

from X = xi I, Z = eta I, y = 0, tau = 1, kappa = <X, Z> / N.  Each
iteration is one Mehrotra predictor-corrector Newton step with the HKM
scaling; its target removes the share 1 - sigma of all three residuals and
aims X Z and tau kappa at sigma mu, mu = (<X, Z> + tau kappa) / (N + 1),
so residuals and mu fall together.  dtau follows from the gap row, dkappa
from tau kappa complementarity, and all five move by one common length:
the full step if it stays inside the cones, else STEP_FRACTION of the
longest one that does.

How a solve ends is read from the iterate alone:
  OPTIMAL     (X, y, Z) / tau meets tol_feas on both residuals and tol_gap
              on the relative gap.
  INFEASIBLE  b.y > 0 and |sum_k y_k A_k + Z| / a <= tol_feas b.y / |b|:
              y is a dual ray, the primal has no feasible point.
  UNBOUNDED   <C, X> < 0 and |A(X)| / a <= tol_feas |<C, X>| / |C|: X is
              a primal ray, the dual has no feasible point.
  NUMERICAL   a Cholesky factor of X or Z fails, or the step length falls
              below STEP_FLOOR; the reason adds tau, kappa and mu at the
              end and the length of the last step taken.
  MAX_ITER    none of these within max_iter iterations.
Here a = max_k |A_k|, so the ray tests do not change when A, b or C is
scaled.  On an infeasible model tau falls toward 0 while kappa stays
positive, so b.y > 0 or <C, X> < 0 and a ray appears.  Solution.reason
says which test ended a solve that is not OPTIMAL; the solution is X, y
and Z over tau.

A solve reads the model's own stacks, SDPModel.stacks(), and groups the
blocks by size, in order of first appearance: X, Z and the other iterates
of k blocks of size n are (k, n, n) arrays, and their data one (1 + m, k,
n, n) array, C and then the constraint matrices A_s, a view of the block's
stack when k = 1.  A stack is complex when any of its data are, and a real
block in a complex stack keeps a real iterate, returned as the real part
of its view.  A small model of several sizes is merged instead: its blocks,
in model order, go on the diagonal of one (1 + m, 1, N, N) array, when the
flops per iteration that the zeros off the blocks add, 4 m (N^3 - sum n^3)
+ m^2 (N^2 - sum n^2), stay within MERGE_FLOPS per size group saved.  The
Cholesky factor, the inverse and every product of block-diagonal matrices
keep exact zeros off the blocks, so a merged solve is the blockwise one up
to rounding; xi, eta and the scales of the tests come from the size groups,
so it starts at the blockwise start too.  A model holds its data exactly
Hermitian, so the residuals, dZ and the updated X and Z are too; only
products need _sym.  X and Z of a group are held as one (2k, n, n) stack,
X first, so one Cholesky call and one inverse serve both with no copy, and
the Newton direction (dX, dZ) is written into a second such stack, which
the step length reads as it is and the update adds.  Products broadcast
over the leading axis, and a stack flattened to k n^2 entries behaves like
one block for residuals, sum_k y_k A_ks and the certificates.  So a solve
makes one workspace per group, once (_Work): the views of X, Z, dX and dZ
and the float view of X flattened, C, the rows as one float matrix F and
the Schur buffers; each phase of an iteration is one pass over the
workspaces, and its sums over the groups start from the first group's
term.  One Newton solve works on the Schur complement

    M[k,l] = sum_b Re < A_kb, X_b A_lb inv(Z_b) >.

With the Cholesky factors X = Lx Lx* and Z = Lz Lz*, M[k,l] = sum_b
Re < F_kb, F_lb > for F_kb = inv(Lz_b) A_kb Lx_b, so each stack adds
flat(F_s) @ flat(F_s)^T, which numpy computes as one SYRK: half the flops
of a general product, and M comes out exactly symmetric.  It runs on the
float views of complex stacks, since Re <A, T> is the dot product of the
interleaved real and imaginary parts of A and T.  Beside the model's own
data, which only a group of several blocks or a merged one copies, the
Schur buffers are two A-shaped arrays per stack that receive inv(Lz) A_s
and F_s in every iteration; fresh arrays of that size would be
page-faulted in anew at every iteration.  The solution lists X and Z per
block in the model's order, as views into the stacks.  Solution.timings
sums per phase the time between perf_counter reads at its boundaries.

The direction is the HKM one (Helmberg, Rendl, Vanderbei and Wolkowicz
1996; Kojima, Shindoh and Hara 1997): dZ from its equation, then

    dX = sym((nu I - corr - X dZ) inv(Z)) - X,

with nu I the target of X Z and corr = dX dZ of the predictor, both 0 in
the predictor.  The Schur right-hand side is tau b + A(X Rd inv(Z)) in the
predictor, for the dual residual Rd, and rho tau b + sigma A(X) + rho A(X
Rd inv(Z)) - nu A(inv(Z)) + A(corr inv(Z)) in the corrector, rho = 1 -
sigma.  dZ holds dtau Ct, and Ct = (Z + Rd) / tau, so X dZ inv(Z) is
summed from X Rd inv(Z), X (sum_l dv_l A_l) inv(Z) and X itself: X Z
inv(Z) formed as a product carries cond(Z) times its rounding into dX,
which near a degenerate optimum, cond(Z) about 1e9, left errors in A(dX)
above the primal residual the step was to remove.

On a model of one stack each iteration makes six LAPACK calls: the
Cholesky factors of the X-Z stack and of M, the inverses of both factors,
and the eigvalsh calls of the two step lengths.  They call numpy.linalg's
gufuncs (_umath_linalg.cholesky_lo, inv and eigvalsh_lo) directly, under
the error state numpy.linalg sets itself, where the gufunc raises the
invalid flag exactly when LAPACK fails on a matrix of the stack; each
factor and its inverse share one such state, entered once.  The results
are bit for bit those of numpy.linalg, without its checks and wrapping,
which cost more than the call itself on a 3 x 3 block.  The rare paths,
the eigen fallback of the Schur solve and the factor of X alone that names
a failed one, keep the public calls.

M = F F^T is positive semidefinite by construction, and definite while X, Z
stay in the cone and the constraints are independent.  Neither holds
numerically to the end.  Dependent rows make M singular at every
iteration: a model written by hand or read from SDPA can have them, though
a relaxation drops the directions of its parameters that no block sees
before the solve.  At a degenerate optimum X and Z lose rank together,
which drives up cond(M).  M is therefore never perturbed.  With its
Cholesky factor M = L L^T the Newton solve is dy = inv(L)^T inv(L) r, two
products with the pair (inv(L)^T, inv(L)) that _psd_solver returns; when
that factor fails, or a squared pivot of it is at most eps times the
largest diagonal entry of M, the size of the factor's own rounding, the
solve runs on the eigendecomposition of M with the eigenvalues below
1e-15 * lambda_max dropped, the least-norm solution on the numerical range
of M, with the pair (V / w, V^T).  Whether LAPACK returns a factor of such
an M turns on the last bit of the data, and the factor solves nothing:
with one, I3322's level-2 solve at tolerance 1e-9 ended NUMERICAL.
Neither solve is refined.  dZ satisfies its equation for any dy, so what a
solve leaves in M dy - r shows up only in the next iterate's primal
residual, which is measured afresh and removed by the next step with the
rest.  Refining either solve, up to three passes while the residual
halved, changed no status and no iteration count on the benchmark's 412
solves, on 1,408 random involution relaxations at tolerance 1e-9 and on
242 solves of the test presentations, and moved no bound by more than
4.3e-12.  The step of tau adds a second right-hand side, solved as a
second column.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .sdpmodel import SDPModel, ModelError, SENSE_GE, SENSE_LE


STEP_FRACTION = 0.98    # share of the distance to the cone boundary a step takes
STEP_FLOOR = 1e-12      # a shorter step ends the solve NUMERICAL
EPS = float(np.finfo(float).eps)


class Status(enum.Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"
    MAX_ITER = "MAX_ITER"
    NUMERICAL = "NUMERICAL"


@dataclass(frozen=True)
class SolverOptions:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        """ValueError naming the first field out of range: max_iter must be
        an integer >= 0 and each tolerance a finite number >= 0."""
        if (not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool)
                or self.max_iter < 0):
            raise ValueError(f"max_iter must be an integer >= 0, not {self.max_iter!r}")
        for name in ("tol_gap", "tol_feas"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not (math.isfinite(value) and value >= 0)):
                raise ValueError(f"{name} must be a finite number >= 0, not {value!r}")


@dataclass(slots=True)                  # small: a solve keeps one per iteration
class Iterate:
    iteration: int
    primal: float
    dual: float
    mu: float
    primal_res: float
    dual_res: float
    tau: float
    kappa: float


@dataclass
class Solution:
    X: list[np.ndarray]
    y: np.ndarray
    Z: list[np.ndarray]
    primal_value: float
    dual_value: float
    gap: float
    primal_res: float
    dual_res: float
    status: Status
    iterations: int
    reason: str = ""                # why the solve ended other than OPTIMAL
    history: list[Iterate] = field(repr=False, default_factory=list)
    # seconds in "schur" (factor X, Z, assemble M), "newton" (Schur solves,
    # direction recovery) and "step" (step lengths)
    timings: dict[str, float] = field(default_factory=dict)
    # per stack the solve ran on, the model indices of its blocks: one size,
    # or several when the model was merged
    groups: list[list[int]] = field(default_factory=list)


@dataclass
class FeasibilityReport:
    min_eigenvalues: list[float]
    residuals: list[float]          # signed tr(A X) - b per constraint
    violations: list[float]         # nonnegative violation given each sense
    objective: float

    @property
    def max_violation(self) -> float:
        eig = max((-e for e in self.min_eigenvalues), default=0.0)
        lin = max(self.violations, default=0.0)
        return max(eig, lin, 0.0)


def _ct(M):
    """The conjugate transpose over the last two axes, a view when M is real."""
    T = M.swapaxes(-1, -2)
    return T.conj() if T.dtype.kind == "c" else T


def _sym(M):
    """The Hermitian part over the last two axes."""
    return (M + _ct(M)) * 0.5


def _rv(M):
    """The float view of a complex stack, M itself when real: Re <A, B> is
    the dot product of _rv(A) and _rv(B)."""
    return M.view(float) if M.dtype.kind == "c" else M


def _flat(S):
    """A stack (m, ...) as an (m, rest) float matrix, over the float view
    of a complex stack."""
    R = _rv(S)
    return R.reshape(len(R), math.prod(R.shape[1:]))


def _eigvalsh(a):
    """The eigenvalues of a Hermitian stack by numpy.linalg's LAPACK gufunc,
    called as numpy.linalg calls it: under this error state the gufunc
    raises the invalid flag exactly when LAPACK fails on a matrix of the
    stack, which becomes LinAlgError, and other flags are ignored.  Without
    numpy.linalg's checks and wrapping a call costs about half as much on
    tiny blocks."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _umath_linalg.eigvalsh_lo(a)
    except FloatingPointError:
        raise LinAlgError("eigvalsh_lo failed") from None


def _factor(S):
    """The Cholesky factor L of a stack and inv(L), both as numpy.linalg's
    cholesky and inv compute them, under one error state (see _eigvalsh):
    None when a factor fails, LinAlgError when an inverse does."""
    with np.errstate(all="ignore", invalid="raise"):
        try:
            L = _umath_linalg.cholesky_lo(S)
        except FloatingPointError:
            return None
        try:
            return L, _umath_linalg.inv(L)
        except FloatingPointError:
            raise LinAlgError("inv failed") from None


# A model of several block sizes is solved as one block-diagonal matrix when
# the flops per iteration that the zeros off its blocks add are at most
# MERGE_FLOPS per size group saved (_merges).  At one BLAS thread a group
# saved cost 80-150 us per iteration: merging was faster at 1.2e5 extra flops
# (CHSH level 2, the Hermitian level 2 of three free involutions), broke even
# near 2.3e5-4.6e5 on Hermitian data and 1e6 on real data, and was 10-60%
# slower from 1.9e6 on (CHSH levels 3 and 4, the Hermitian level 3).
MERGE_FLOPS = 2e5


def _groups(sizes):
    """Block indices grouped by size, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


def _merges(sizes, m):
    """Whether a model of these block sizes and m rows is solved as one
    block-diagonal matrix: when it has several sizes and the extra flops of
    the merged Schur matrix and its factors, F = inv(Lz) A Lx on N x N in
    place of each n x n block and the SYRK of F over N^2 entries, stay
    within MERGE_FLOPS per size group saved."""
    distinct = set(sizes)
    if len(distinct) < 2:
        return False
    N = sum(sizes)
    extra = (4 * m * (N ** 3 - sum(n ** 3 for n in sizes))
             + m * m * (N * N - sum(n * n for n in sizes)))
    return extra <= MERGE_FLOPS * (len(distinct) - 1)


def _group(S, groups):
    """Per block whether its stack in S (the cost, then the rows) is real,
    and per group C and A, the first entry and the rest of one (1 + m, k,
    n, n) array: float, or complex when any of its blocks is not real, and
    a view of the block's own stack for a group of one block of that dtype."""
    real = [not np.iscomplexobj(Sb) for Sb in S]
    G = []
    for g in groups:
        dt = float if all(real[i] for i in g) else complex
        G.append(np.asarray(S[g[0]][:, None], dtype=dt) if len(g) == 1
                 else np.stack([S[i] for i in g], axis=1, dtype=dt))
    return real, [Gg[0] for Gg in G], [Gg[1:] for Gg in G]


def _diagonal(S, places, real):
    """The blocks' stacks S on the diagonal of one (1 + m, 1, N, N) array,
    at their places, zero elsewhere: C and A as _group gives them."""
    N = sum(len(Sb[0]) for Sb in S)
    G = np.zeros((len(S[0]), 1, N, N), dtype=float if all(real) else complex)
    for Sb, (_, _, s) in zip(S, places):
        G[:, 0, s, s] = Sb
    return [G[0]], [G[1:]]


def _places(groups, sizes):
    """Per block in model order, its place in the groups' stacks: the
    group, the index in its stack, and the rows and columns it takes there.
    A group of one size stacks its blocks; a merged group, of several sizes,
    puts them on the diagonal of its one matrix, in the group's order."""
    places = [None] * len(sizes)
    for g, grp in enumerate(groups):
        merged = len({sizes[i] for i in grp}) > 1
        o = 0
        for j, i in enumerate(grp):
            n = sizes[i]
            places[i] = (g, 0, slice(o, o + n)) if merged else (g, j, slice(0, n))
            o += n
    return places


def _gather(blocks, places, like):
    """Per-block (n, n) arrays as one Hermitian stack per group, each
    shaped and typed as like, its C, and zero off the blocks; a real stack
    takes their real parts, whose imaginary parts _check_start found zero."""
    out = [np.zeros_like(L) for L in like]
    for B, (g, j, s) in zip(blocks, places):
        out[g][j, s, s] = B if np.iscomplexobj(out[g]) else np.real(B)
    return [_sym(S) for S in out]


def _scatter(stacks, places, real):
    """The blocks of the stacks in model order, as views; the real part of
    those marked real."""
    return [stacks[g][j, s, s].real if r else stacks[g][j, s, s]
            for (g, j, s), r in zip(places, real)]


def _check_start(start, stacks, m):
    """ModelError naming the first fault of a warm start (X, y, Z): a block
    count, a block's shape, a non-finite entry or a nonzero imaginary part
    where the model's block (its stack in stacks) is real, or y's length."""
    X, y, Z = start
    for name, blocks in (("X", X), ("Z", Z)):
        if len(blocks) != len(stacks):
            raise ModelError(f"start {name} has {len(blocks)} blocks, the model {len(stacks)}")
        for b, (B, S) in enumerate(zip(blocks, stacks)):
            B, n = np.asarray(B), S.shape[-1]
            if B.shape != (n, n):
                raise ModelError(f"start {name} block {b}: shape {B.shape} does not match "
                                 f"block size {n}")
            if not np.isfinite(B).all():
                raise ModelError(f"start {name} block {b}: matrix has a non-finite entry")
            if not np.iscomplexobj(S) and np.imag(B).any():
                raise ModelError(f"start {name} block {b}: matrix has a nonzero imaginary "
                                 "part where the model's block is real")
    y = np.asarray(y)
    if y.shape != (m,):
        raise ModelError(f"start y: shape {y.shape} does not match {m} constraints")
    if not np.isfinite(y).all():
        raise ModelError("start y has a non-finite entry")


class _Work:
    """One size group's arrays in a solve, made once (see the module
    docstring): T and G receive inv(Lz) A and F, with g the matrix view of
    G.  Each iteration sets its own arrays on it, yA = sum_k y_k A_k to W."""

    __slots__ = ("k", "S", "X", "Z", "x", "D", "dX", "dZ", "C", "A", "F", "T", "G", "g",
                 "yA", "Rd", "Li", "Lx", "Lzi", "Zi", "XRZi", "Ct", "W")

    def __init__(self, S, C, A):
        self.k = k = len(C)
        self.S, self.X, self.Z, self.x = S, S[:k], S[k:], _rv(S[:k]).reshape(-1)
        self.D = np.empty_like(S)
        self.dX, self.dZ = self.D[:k], self.D[k:]
        self.C, self.A, self.F = C, A, _flat(A)
        self.T, self.G = np.empty_like(A), np.empty_like(A)
        self.g = _flat(self.G)


def _schur(work):
    """M[k, l] = sum_b Re <F_kb, F_lb> with F_kb = Lzi_b A_kb Lx_b, one SYRK
    per group, summed from the first group's."""
    M = None
    for w in work:
        np.matmul(w.Lzi, w.A, out=w.T)
        np.matmul(w.T, w.Lx, out=w.G)
        Mg = w.g @ w.g.T                # numpy's SYRK: exactly symmetric
        M = Mg if M is None else M + Mg
    return M


def feasibility_check(model: SDPModel, X: list[np.ndarray]) -> FeasibilityReport:
    """Report cone and linear residuals of a candidate block assignment, with
    Re <A, X_b> of the cost and every row from one tensordot per stack."""
    S = model.stacks()
    if len(X) != len(S):
        raise ModelError("block count mismatch in feasibility check")
    X = [np.asarray(Xb, dtype=complex if np.iscomplexobj(Xb) else float) for Xb in X]
    if any(Xb.shape != Sb.shape[1:] for Sb, Xb in zip(S, X)):
        raise ModelError("block shape mismatch in feasibility check")
    eigs = [np.linalg.eigvalsh(_sym(Xb))[0] for Xb in X]
    v = sum((np.tensordot(Sb, np.conj(Xb), 2).real for Sb, Xb in zip(S, X)),
            np.zeros(1 + len(model.rhs)))
    r = v[1:] - model.rhs
    # +1 for <=, -1 for >=, 0 for ==
    s = np.array([(c == SENSE_LE) - (c == SENSE_GE) for c in model.senses], dtype=float)
    violations = np.where(s == 0, np.abs(r), np.maximum(s * r, 0.0))
    return FeasibilityReport(list(map(float, eigs)), r.tolist(), violations.tolist(),
                             float(v[0]))


def _tril_inv(L):
    """The inverse of a lower triangular L, by halves: with L = [[P, 0],
    [Q, R]], inv(L) = [[inv(P), 0], [-inv(R) Q inv(P), inv(R)]], two GEMMs
    per level in place of a general LU solve, down to LAPACK's inverse at
    n <= 48.  Its caller sets the error state of _eigvalsh, under which a
    failed inverse raises FloatingPointError."""
    n = len(L)
    if n <= 48:
        return _umath_linalg.inv(L)
    h = n // 2
    Li = np.zeros_like(L)
    Pi, Ri = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    Li[:h, :h], Li[h:, h:] = Pi, Ri
    Li[h:, :h] = -(Ri @ L[h:, :h]) @ Pi
    return Li


def _psd_solver(M):
    """The pair (P, Q) whose solve x = P @ (Q @ r) of M x = r serves M
    symmetric positive semidefinite, and r one right-hand side or a column
    of them.

    When the Cholesky factor L of M exists and its squared pivots exceed
    eps * max(diag(M)), the pair is (inv(L)^T, inv(L)), with inv(L) from
    _tril_inv; the factor and its inverse run under one error state.
    Otherwise M has lost rank to rounding or has dependent rows, and the
    pair (V / w, V^T) gives the least-squares solution of least norm on the
    eigenvectors V whose eigenvalues w exceed 1e-15 * lambda_max; M itself
    is not perturbed.  Neither solve is refined (see the module docstring)."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            L = _umath_linalg.cholesky_lo(M)
            pivots = L.diagonal()
            if pivots.size and (np.minimum.reduce(pivots) ** 2
                                <= EPS * np.maximum.reduce(M.diagonal())):
                raise LinAlgError("a pivot at rounding level")
            Li = _tril_inv(L)
    except (FloatingPointError, LinAlgError):
        w, V = np.linalg.eigh(M)
        keep = w > 1e-15 * max(float(w[-1]), 0.0)
        V, w = V[:, keep], w[keep]
        return V / w, V.T
    return Li.T, Li


def _max_step(Li, D):
    """Largest a with X + a dX and Z + a dZ psd on every block of a stack,
    where Li = inv(cholesky(concatenate((X, Z)))) and D = concatenate((dX,
    dZ)), from one triple product and one eigvalsh call.  Returns np.inf if
    neither direction pushes against the boundary."""
    W = Li @ D @ _ct(Li)
    lam = float(np.minimum.reduce(_eigvalsh(_sym(W))[:, 0]))
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def solve(model: SDPModel, options: SolverOptions | None = None,
          start: tuple[list[np.ndarray], np.ndarray, list[np.ndarray]] | None = None) -> Solution:
    """Solve an equality-form block SDP, from the warm start (X, y, Z) if
    given.  Deterministic: identical inputs give identical iterates and
    output."""
    opts = options or SolverOptions()
    if not model.is_equality_only():
        raise ModelError("solver requires equality form; apply to_equality_form first")
    sizes = [b.size for b in model.blocks]
    b = model.rhs
    m = len(b)
    stacks = model.stacks()
    if start is not None:
        _check_start(start, stacks, m)
    groups = _groups(sizes)
    real, C, A = _group(stacks, groups)

    N = sum(sizes)
    # the scales of the start and the tests, from the size groups, so a
    # merged model starts where the unmerged one would
    normC = max((float(np.linalg.norm(Cg, axis=(-2, -1)).max()) for Cg in C), default=0.0)
    normsA = np.sqrt(sum((np.einsum("kbij,kbij->k", _rv(Ag), _rv(Ag)) for Ag in A),
                         np.zeros(m)))
    xi = max(1.0, math.sqrt(max(sizes, default=1)),
             np.maximum.reduce((1 + np.abs(b)) / (1 + normsA), initial=0.0))
    maxA = np.maximum.reduce(normsA, initial=0.0) or 1.0  # a zero A scales no ray
    eta = max(1.0, math.sqrt(max(sizes, default=1)), normC, maxA)
    normb = math.sqrt(b @ b)
    normCF = math.sqrt(sum(float(np.vdot(Cg, Cg).real) for Cg in C))
    bscale, cscale = 1.0 + normb, 1.0 + normC

    if _merges(sizes, m):
        groups = [list(range(len(sizes)))]
        places = _places(groups, sizes)
        C, A = _diagonal(stacks, places, real)
    else:
        places = _places(groups, sizes)
    # X and Z of a group as one (2k, n, n) stack, X first; its workspace
    # holds the Newton direction (dX, dZ) likewise, written in place
    if start is not None:
        XZ = [np.concatenate(XZg) for XZg in zip(_gather(start[0], places, C),
                                                 _gather(start[2], places, C))]
        y = np.array(start[1], dtype=float)
    else:
        XZ = []
        for Cg in C:
            k, n = Cg.shape[:2]
            S = np.zeros((2 * k, n, n), dtype=Cg.dtype)
            diagonals = S.reshape(2 * k, n * n)[:, ::n + 1]
            diagonals[:k], diagonals[k:] = xi, eta
            XZ.append(S)
        y = np.zeros(m)
    work = [_Work(S, Cg, Ag) for S, Cg, Ag in zip(XZ, C, A)]
    AX0 = None                          # sums over the groups start from the first's
    if not work:
        # no cone, so A(X) = 0 and no dual constraint: y = b is a dual ray
        # unless b = 0, where X = () is optimal; either ends the solve at
        # iteration 0
        y, AX0 = b.copy(), np.zeros(m)
    tau = 1.0
    kappa = sum(float(np.vdot(w.X, w.Z).real) for w in work) / max(N, 1)

    history: list[Iterate] = []
    timings = {"schur": 0.0, "newton": 0.0, "step": 0.0}
    status, reason = Status.MAX_ITER, ""
    pobj = dobj = relgap = pres = dres = 0.0
    step = None                         # the length of the last step taken

    for it in range(opts.max_iter + 1):
        # the residuals and their inner products, one pass over the groups
        AX, cx, xz, rr = AX0, 0.0, 0.0, 0.0
        for w in work:
            w.yA = (y @ w.F).view(w.C.dtype).reshape(w.C.shape)
            w.Rd = tau * w.C - w.Z - w.yA
            AXg = w.F @ w.x
            AX = AXg if AX is None else AX + AXg
            cx += float(np.vdot(w.C, w.X).real)
            xz += float(np.vdot(w.X, w.Z).real)
            rr += float(np.vdot(w.Rd, w.Rd).real)
        by = float(b @ y)
        rp = tau * b - AX
        rg = kappa - by + cx
        mu = (xz + tau * kappa) / (N + 1)
        pobj, dobj = cx / tau, by / tau
        pres = math.sqrt(rp @ rp) / tau / bscale
        dres = math.sqrt(rr) / tau / cscale
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        history.append(Iterate(it, pobj, dobj, mu, pres, dres, tau, kappa))

        if pres <= opts.tol_feas and dres <= opts.tol_feas and relgap <= opts.tol_gap:
            status = Status.OPTIMAL
            break
        if by > 0:
            rr = 0.0
            for w in work:
                ray = w.yA + w.Z
                rr += float(np.vdot(ray, ray).real)
            dual_ray = math.sqrt(rr) * normb
            if dual_ray <= opts.tol_feas * by * maxA:
                status = Status.INFEASIBLE
                reason = (f"dual ray at iteration {it}, primal infeasible: |sum_k y_k A_k + Z| "
                          f"/ max|A_k| = {dual_ray / (by * maxA):.1e} b.y / |b| with b.y > 0")
                break
        if cx < 0:
            primal_ray = math.sqrt(AX @ AX) * normCF
            if primal_ray <= opts.tol_feas * -cx * maxA:
                status = Status.UNBOUNDED
                reason = (f"primal ray at iteration {it}, dual infeasible: |A(X)| / max|A_k| "
                          f"= {primal_ray / (-cx * maxA):.1e} |<C, X>| / |C| with <C, X> < 0")
                break
        if it == opts.max_iter:
            reason = (f"iteration limit {it} reached: gap {relgap:.1e}, primal residual "
                      f"{pres:.1e}, dual residual {dres:.1e}")
            break

        # phase "schur": X and Z of a group factored and inverted as one stack
        t0 = time.perf_counter()
        for w in work:
            factors = _factor(w.S)
            if factors is None:
                break
            L, w.Li = factors
            w.Lx, w.Lzi = L[:w.k], w.Li[w.k:]
            w.Zi = _ct(w.Lzi) @ w.Lzi
        if factors is None:             # a factor failed
            status, name = Status.NUMERICAL, "Z"
            try:                        # factor X alone to name the one that failed
                [np.linalg.cholesky(w.X) for w in work]
            except LinAlgError:
                name = "X"
            reason = f"the Cholesky factor of {name} failed at iteration {it}"
            break
        M = _schur(work)
        timings["schur"] += (t1 := time.perf_counter()) - t0

        # "newton": predictor, then corrector: target, Schur solve, direction
        P, Q = _psd_solver(M)
        # the gap row is written against the shifted cost Ct = (Z + Rd) / tau
        # = C - sum_k (y_k / tau) A_k, in dv = dy - dtau y / tau: with C
        # itself, terms of size y^T M y cancel to rounding noise once M is
        # ill-conditioned
        AXRZi, CtX, CtXRZi = None, 0.0, 0.0
        for w in work:
            w.XRZi = w.X @ w.Rd @ w.Zi
            w.Ct = (w.Z + w.Rd) / tau
            AXRZg = w.F @ _rv(w.XRZi).ravel()
            AXRZi = AXRZg if AXRZi is None else AXRZi + AXRZg
            CtX += float(np.vdot(w.Ct, w.X).real)
            CtXRZi += float(np.vdot(w.Ct, w.XRZi).real)
        u = (AX + AXRZi) / tau          # A(X Ct inv(Z))
        bu = b - u
        CtDCt = (CtX + CtXRZi) / tau    # <Ct, X Ct inv(Z)>
        rg_t = rg + float(y @ rp) / tau
        rpR = rp + AXRZi
        # the predictor removes all residuals and aims X Z and tau kappa at
        # 0; AW, A(W) of the corrector's W, is None until then
        rho, AW, nu_tk = 1.0, None, -tau * kappa
        for fraction in (1.0, STEP_FRACTION):
            # the step that removes the share rho of the residuals and aims
            # X Z at nu I: dX = sym((nu I - corr - X dZ) inv(Z)) - X, and with
            # W = (corr - nu I) inv(Z), 0 in the predictor, the Schur
            # right-hand side is r = A(X) + rho (rp + A(X Rd inv(Z))) + A(W)
            # and CtG = <Ct, -X - rho X Rd inv(Z) - W>
            r = AX + rho * rpR
            CtG = -CtX - rho * CtXRZi
            if AW is None:              # M q = b + A(X Ct inv(Z)) rides along
                p, q = (P @ (Q @ np.column_stack([r, b + u]))).T
            else:
                p = P @ (Q @ (r + AW))
                CtG -= CtW
            # the step with tau dkappa + kappa dtau = nu_tk, dv = p + dtau q
            dtau = ((rho * rg_t + CtG - bu @ p + nu_tk / tau)
                    / (bu @ q + CtDCt + kappa / tau))
            dv = p + dtau * q
            # dZ = rho Rd - sum_k dv_k A_k + dtau Ct, and -X dZ inv(Z) with
            # X Z inv(Z) = X taken exactly: a product through inv(Z) carries
            # cond(Z) times its rounding into dX
            c = dtau / tau
            for w in work:
                S = (dv @ w.F).view(w.C.dtype).reshape(w.C.shape)
                np.subtract(rho * w.Rd, S, out=w.dZ)
                w.dZ += dtau * w.Ct
                T = w.X @ S @ w.Zi - (rho + c) * w.XRZi
                np.subtract(_sym(T if AW is None else T - w.W), (1.0 + c) * w.X, out=w.dX)
            dkappa = (nu_tk - kappa * dtau) / tau
            timings["newton"] += (t2 := time.perf_counter()) - t1
            # the full step if it stays inside the cones, else the fraction
            # of the longest step that does
            limits = [_max_step(w.Li, w.D) for w in work]
            if dtau < 0:
                limits.append(-tau / dtau)
            if dkappa < 0:
                limits.append(-kappa / dkappa)
            longest = min(limits, default=np.inf)
            alpha = 1.0 if longest > 1.0 else fraction * longest
            timings["step"] += (t1 := time.perf_counter()) - t2
            if AW is None:
                # the corrector aims at sigma mu, sigma from the predictor's
                # reach, and takes out its second-order term dX dZ
                xz = 0.0
                for w in work:
                    Sa = w.S + alpha * w.D
                    xz += float(np.vdot(Sa[:w.k], Sa[w.k:]).real)
                mu_aff = (xz + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (N + 1)
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0, 1e-8))
                rho, nu = 1.0 - sigma, sigma * mu
                CtW = 0.0
                for w in work:
                    w.W = w.dX @ w.dZ @ w.Zi - nu * w.Zi
                    AWg = w.F @ _rv(w.W).ravel()
                    AW = AWg if AW is None else AW + AWg
                    CtW += float(np.vdot(w.Ct, w.W).real)
                nu_tk = sigma * mu - tau * kappa - dtau * dkappa
        if alpha < STEP_FLOOR:
            status = Status.NUMERICAL
            reason = f"step length {alpha:.1e} below {STEP_FLOOR:.0e} at iteration {it}"
            break
        for w in work:
            w.S += alpha * w.D
        y = y + alpha * (dv + dtau / tau * y)
        tau += alpha * dtau
        kappa += alpha * dkappa
        step = alpha

    if status == Status.NUMERICAL:      # lost accuracy or an ill-posed problem?
        reason += (f"; tau {tau:.1e}, kappa {kappa:.1e}, mu {mu:.1e}, last step "
                   + ("none" if step is None else f"{step:.1e}"))

    XZ = [w.S / tau for w in work]
    return Solution(
        X=_scatter([S[:w.k] for S, w in zip(XZ, work)], places, real), y=y / tau,
        Z=_scatter([S[w.k:] for S, w in zip(XZ, work)], places, real),
        primal_value=pobj, dual_value=dobj, gap=relgap,
        primal_res=pres, dual_res=dres, status=status, reason=reason,
        iterations=len(history) - 1, history=history, timings=timings, groups=groups,
    )
