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
              below STEP_FLOOR.
  MAX_ITER    none of these within max_iter iterations.
Here a = max_k |A_k|, so the ray tests do not change when A, b or C is
scaled.  On an infeasible model tau falls toward 0 while kappa stays
positive, so b.y > 0 or <C, X> < 0 and a ray appears.  Solution.reason
says which test ended a solve that is not OPTIMAL; the solution is X, y
and Z over tau.

A solve reads the model once, through SDPModel.stacks(), and groups the
blocks by size, in order of first appearance: X, Z and the other iterates
of k blocks of size n are (k, n, n) arrays, and their data one (1 + m, k,
n, n) array, C and then the constraint matrices A_s, a view of the block's
stack when k = 1.  A stack is complex when any of its data are, and a real
block in a complex stack keeps a real iterate, returned as the real part
of its view.  stacks() returns the data exactly Hermitian, so the
residuals, dZ and the updated X and Z are too; only products need _sym.
X and Z of a group are held as one (2k, n, n) stack, X first, so one
Cholesky call and one inverse serve both with no copy.  Products broadcast
over the leading axis, and a stack flattened to k n^2 entries behaves like
one block for residuals, sum_k y_k A_ks and the certificates, so every
per-iteration loop runs over the distinct sizes, not over the blocks.  One
Newton solve works on the Schur complement

    M[k,l] = sum_b Re < A_kb, X_b A_lb inv(Z_b) >.

With the Cholesky factors X = Lx Lx* and Z = Lz Lz*, M[k,l] = sum_b
Re < F_kb, F_lb > for F_kb = inv(Lz_b) A_kb Lx_b, so each stack adds
flat(F_s) @ flat(F_s)^T, which numpy computes as one SYRK: half the flops
of a general product, and M comes out exactly symmetric.  It runs on the
float views of complex stacks, since Re <A, T> is the dot product of the
interleaved real and imaginary parts of A and T.  Beside the model's own
data a solve holds three A-shaped arrays per stack: the copy that stacks()
made, and two buffers, allocated once per solve, that receive inv(Lz) A_s
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

On a model of one block size each iteration makes six LAPACK calls: the
Cholesky factors of the X-Z stack and of M, the inverses of both factors,
and the eigvalsh calls of the two step lengths.  They call numpy.linalg's
gufuncs (_umath_linalg.cholesky_lo, inv and eigvalsh_lo) directly, under
the error state numpy.linalg sets itself, where the gufunc raises the
invalid flag exactly when LAPACK fails on a matrix of the stack.  The
results are bit for bit those of numpy.linalg, without its checks and
wrapping, which cost more than the call itself on a 3 x 3 block.  The rare
paths, the eigen fallback of the Schur solve and the factor of X alone that
names a failed one, keep the public calls.

M = F F^T is positive semidefinite by construction, and definite while X, Z
stay in the cone and the constraints are independent.  Neither holds
numerically to the end.  Dependent rows make M singular at every
iteration: a model written by hand or read from SDPA can have them, and so
can a relaxation, whose free parameters may include directions that no
block sees (the free-root problem of the tests emits LMI rows of rank 43
of 52 at level 3).  At a degenerate optimum X and Z lose rank together,
which drives up cond(M).  M is therefore never perturbed.  With its
Cholesky factor M = L L^T the Newton solve is dy = inv(L)^T inv(L) r; when
that factor fails, or a squared pivot of it is at most eps times the
largest diagonal entry of M, the size of the factor's own rounding, the
solve runs on the eigendecomposition of M with the eigenvalues below
1e-15 * lambda_max dropped, the least-norm solution on the numerical range
of M.  Whether LAPACK returns a factor of such an M turns on the last bit
of the data, and the factor solves nothing: with one, I3322's level-2
solve at tolerance 1e-9 ended NUMERICAL.  Neither solve is refined.  dZ
satisfies its equation for any dy, so what a solve leaves in M dy - r
shows up only in the next iterate's primal residual, which is measured
afresh and removed by the next step with the rest.  Refining either
solve, up to three passes while the residual halved, changed no status
and no iteration count on the benchmark's 412 solves, on 1,408 random
involution relaxations at tolerance 1e-9 and on 242 solves of the test
presentations, and moved no bound by more than 4.3e-12.  The step of tau
adds a second right-hand side, solved as a second column.
"""

from __future__ import annotations

import enum
import math
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


def _inner(A, B):
    """Re <A, B>, summed over a whole stack."""
    return float(np.vdot(A, B).real)


def _dot(P, Q):
    """Re <P, Q> summed over two lists of stacks."""
    return sum(map(_inner, P, Q))


def _lapack(gufunc):
    """The LAPACK gufunc behind a numpy.linalg call, called on a stack as
    numpy.linalg calls it: the gufunc raises the invalid flag exactly when
    LAPACK fails on a matrix of the stack, which becomes LinAlgError, and
    other flags are ignored.  Without numpy.linalg's checks and wrapping a
    call costs about half as much on tiny blocks."""
    def call(a):
        try:
            with np.errstate(all="ignore", invalid="raise"):
                return gufunc(a)
        except FloatingPointError:
            raise LinAlgError(f"{gufunc.__name__} failed") from None
    return call


_cholesky = _lapack(_umath_linalg.cholesky_lo)
_inv = _lapack(_umath_linalg.inv)
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo)


def _groups(sizes):
    """Block indices grouped by size, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


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


def _gather(blocks, groups, like):
    """Per-block (n, n) arrays as one Hermitian (k, n, n) stack per group."""
    return [_sym(np.array([blocks[i] for i in g], dtype=L.dtype))
            for g, L in zip(groups, like)]


def _scatter(stacks, groups, real):
    """The blocks of the stacks in model order, as views; the real part of
    those marked real."""
    out = [None] * sum(map(len, groups))
    for S, g in zip(stacks, groups):
        for j, i in enumerate(g):
            out[i] = S[j].real if real[i] else S[j]
    return out


def _apply(Af, X):
    """The vector (sum_b <A_kb, X_b>)_k, one matvec per flat stack _flat(A)."""
    return sum(F @ _rv(Xb).ravel() for F, Xb in zip(Af, X))


def _adjoint(Af, y, like):
    """The stacks sum_k y_k A_k, shaped as like, one product per flat stack."""
    return [(y @ F).view(L.dtype).reshape(L.shape) for F, L in zip(Af, like)]


def _schur(A, Lx, Lzi, work):
    """M[k, l] = sum_b Re <F_kb, F_lb> with F_kb = Lzi_b A_kb Lx_b, one SYRK
    per stack.  work holds two A-shaped buffers per stack, which receive
    Lzi A and F."""
    m = len(A[0])
    M = np.zeros((m, m))
    for Ab, Lxb, Lzib, (T, F) in zip(A, Lx, Lzi, work):
        np.matmul(Lzib, Ab, out=T)
        Ff = _flat(np.matmul(T, Lxb, out=F))
        M += Ff @ Ff.T                  # numpy's SYRK: exactly symmetric
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
    cons = model.constraints
    v = sum((np.tensordot(Sb, np.conj(Xb), 2).real for Sb, Xb in zip(S, X)),
            np.zeros(1 + len(cons)))
    r = v[1:] - np.array([con.rhs for con in cons], dtype=float)
    # +1 for <=, -1 for >=, 0 for ==
    s = np.array([(con.sense == SENSE_LE) - (con.sense == SENSE_GE) for con in cons], dtype=float)
    violations = np.where(s == 0, np.abs(r), np.maximum(s * r, 0.0))
    return FeasibilityReport(list(map(float, eigs)), r.tolist(), violations.tolist(),
                             float(v[0]))


def _tril_inv(L):
    """The inverse of a lower triangular L, by halves: with L = [[P, 0],
    [Q, R]], inv(L) = [[inv(P), 0], [-inv(R) Q inv(P), inv(R)]], two GEMMs
    per level in place of a general LU solve, down to LAPACK's inverse at
    n <= 48."""
    n = len(L)
    if n <= 48:
        return _inv(L)
    h = n // 2
    Li = np.zeros_like(L)
    Pi, Ri = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    Li[:h, :h], Li[h:, h:] = Pi, Ri
    Li[h:, :h] = -(Ri @ L[h:, :h]) @ Pi
    return Li


def _psd_solver(M):
    """A solver x = f(r) for M x = r, M symmetric positive semidefinite, and
    r one right-hand side or a column of them.

    When the Cholesky factor L of M exists and its squared pivots exceed
    eps * max(diag(M)), f applies inv(L)^T inv(L), two matrix products per
    solve, with inv(L) from _tril_inv.  Otherwise M has lost rank to
    rounding or has dependent rows, and f returns the
    least-squares solution of least norm on the eigenvectors whose
    eigenvalues exceed 1e-15 * lambda_max; M itself is not perturbed.
    Neither solve is refined (see the module docstring)."""
    try:
        L = _cholesky(M)
        pivots = L.diagonal()
        if pivots.size and pivots.min() ** 2 <= EPS * M.diagonal().max():
            raise LinAlgError("a pivot at rounding level")
        Li = _tril_inv(L)
    except LinAlgError:
        w, V = np.linalg.eigh(M)
        keep = w > 1e-15 * max(float(w[-1]), 0.0)
        V, w = V[:, keep], w[keep]
        return lambda r: (V / w) @ (V.T @ r)
    return lambda r: Li.T @ (Li @ r)


def _max_step(Li, dX, dZ):
    """Largest a with X + a dX and Z + a dZ psd on every block of a stack,
    where Li = inv(cholesky(concatenate((X, Z)))), from one triple product
    and one eigvalsh call on the stacked directions.  Returns np.inf if
    neither direction pushes against the boundary."""
    W = Li @ np.concatenate([dX, dZ]) @ _ct(Li)
    lam = float(_eigvalsh(_sym(W))[:, 0].min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def solve(model: SDPModel, options: SolverOptions | None = None,
          start: tuple[list[np.ndarray], np.ndarray, list[np.ndarray]] | None = None) -> Solution:
    """Solve an equality-form block SDP.  Deterministic: identical inputs
    give identical iterates and output."""
    opts = options or SolverOptions()
    sizes = [b.size for b in model.blocks]
    groups = _groups(sizes)
    real, C, A = _group(model.stacks(), groups)
    if not model.is_equality_only():
        raise ModelError("solver requires equality form; apply to_equality_form first")

    ns = len(groups)
    N = sum(sizes)
    m = len(model.constraints)
    b = np.array([con.rhs for con in model.constraints], dtype=float)
    Af = [_flat(Ag) for Ag in A]
    work = [(np.empty_like(Ag), np.empty_like(Ag)) for Ag in A]

    normC = max((float(np.linalg.norm(Cg, axis=(-2, -1)).max()) for Cg in C), default=0.0)
    normsA = np.sqrt(sum((np.einsum("kbij,kbij->k", _rv(Ag), _rv(Ag)) for Ag in A),
                         np.zeros(m)))
    xi = max(1.0, np.sqrt(max(sizes, default=1)),
             np.max((1 + np.abs(b)) / (1 + normsA), initial=0.0))
    maxA = max(normsA, default=0.0) or 1.0     # a zero A scales no ray
    eta = max(1.0, np.sqrt(max(sizes, default=1)), normC, maxA)

    # X and Z of a group as one (2k, n, n) stack, X first
    if start is not None:
        XZ = [np.concatenate(XZg) for XZg in zip(_gather(start[0], groups, C),
                                                 _gather(start[2], groups, C))]
        y = np.asarray(start[1], dtype=float).copy()
    else:
        eye = [np.broadcast_to(np.eye(Cg.shape[-1], dtype=Cg.dtype), Cg.shape) for Cg in C]
        XZ = [np.concatenate((xi * I, eta * I)) for I in eye]
        y = np.zeros(m)
    if not groups:
        # no cone, so no dual constraint: y = b is a dual ray unless b = 0,
        # where X = () is optimal; either ends the solve at iteration 0
        y = b.copy()
    ks = [len(g) for g in groups]
    tau, kappa = 1.0, _dot([S[:k] for S, k in zip(XZ, ks)],
                           [S[k:] for S, k in zip(XZ, ks)]) / max(N, 1)

    normb, normCF = float(np.linalg.norm(b)), math.sqrt(_dot(C, C))
    bscale, cscale = 1.0 + normb, 1.0 + normC
    history: list[Iterate] = []
    timings = {"schur": 0.0, "newton": 0.0, "step": 0.0}
    status, reason = Status.MAX_ITER, ""
    pobj = dobj = relgap = pres = dres = 0.0

    for it in range(opts.max_iter + 1):
        X = [S[:k] for S, k in zip(XZ, ks)]
        Z = [S[k:] for S, k in zip(XZ, ks)]
        yA = _adjoint(Af, y, C)
        AX = _apply(Af, X)
        cx = _dot(C, X)
        by = float(b @ y)
        rp = tau * b - AX
        Rd = [tau * C[i] - Z[i] - yA[i] for i in range(ns)]
        rg = kappa - by + cx
        mu = (_dot(X, Z) + tau * kappa) / (N + 1)
        pobj, dobj = cx / tau, by / tau
        pres = math.sqrt(rp @ rp) / tau / bscale
        dres = math.sqrt(_dot(Rd, Rd)) / tau / cscale
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        history.append(Iterate(it, pobj, dobj, mu, pres, dres, tau, kappa))

        if pres <= opts.tol_feas and dres <= opts.tol_feas and relgap <= opts.tol_gap:
            status = Status.OPTIMAL
            break
        if by > 0:
            ray = [yA[i] + Z[i] for i in range(ns)]
            dual_ray = math.sqrt(_dot(ray, ray)) * normb
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
        try:
            L = [_cholesky(S) for S in XZ]
        except LinAlgError:
            status, name = Status.NUMERICAL, "Z"
            try:                        # factor X alone to name the one that failed
                [np.linalg.cholesky(Xg) for Xg in X]
            except LinAlgError:
                name = "X"
            reason = f"the Cholesky factor of {name} failed at iteration {it}"
            break
        Li = [_inv(Lg) for Lg in L]
        Lx = [Lg[:k] for Lg, k in zip(L, ks)]
        Lzi = [Lg[k:] for Lg, k in zip(Li, ks)]
        Zi = [_ct(li) @ li for li in Lzi]
        M = _schur(A, Lx, Lzi, work)
        timings["schur"] += (t1 := time.perf_counter()) - t0

        # "newton": predictor, then corrector: target, Schur solve, direction
        solve_M = _psd_solver(M)
        XRZi = [X[i] @ Rd[i] @ Zi[i] for i in range(ns)]
        AXRZi = _apply(Af, XRZi)
        # the gap row is written against the shifted cost Ct = (Z + Rd) / tau
        # = C - sum_k (y_k / tau) A_k, in dv = dy - dtau y / tau: with C
        # itself, terms of size y^T M y cancel to rounding noise once M is
        # ill-conditioned
        Ct = [(Z[i] + Rd[i]) / tau for i in range(ns)]
        CtX, CtXRZi = _dot(Ct, X), _dot(Ct, XRZi)
        u = (AX + AXRZi) / tau          # A(X Ct inv(Z))
        bu = b - u
        CtDCt = (CtX + CtXRZi) / tau    # <Ct, X Ct inv(Z)>
        rg_t = rg + float(y @ rp) / tau
        rpR = rp + AXRZi
        # the predictor removes all residuals and aims X Z and tau kappa at 0
        rho, W, nu_tk = 1.0, None, -tau * kappa
        for fraction in (1.0, STEP_FRACTION):
            # the step that removes the share rho of the residuals and aims
            # X Z at nu I: dX = sym((nu I - corr - X dZ) inv(Z)) - X, and with
            # W = (corr - nu I) inv(Z), 0 in the predictor, the Schur
            # right-hand side is r = A(X) + rho (rp + A(X Rd inv(Z))) + A(W)
            # and CtG = <Ct, -X - rho X Rd inv(Z) - W>
            r = AX + rho * rpR
            CtG = -CtX - rho * CtXRZi
            if W is None:               # M q = b + A(X Ct inv(Z)) rides along
                p, q = solve_M(np.column_stack([r, b + u])).T
            else:
                p = solve_M(r + _apply(Af, W))
                CtG -= _dot(Ct, W)
            # the step with tau dkappa + kappa dtau = nu_tk, dv = p + dtau q
            dtau = ((rho * rg_t + CtG - bu @ p + nu_tk / tau)
                    / (bu @ q + CtDCt + kappa / tau))
            dv = p + dtau * q
            S = _adjoint(Af, dv, C)
            dZ = [rho * Rd[i] - S[i] + dtau * Ct[i] for i in range(ns)]
            # -X dZ inv(Z) with X Z inv(Z) = X taken exactly: a product
            # through inv(Z) carries cond(Z) times its rounding into dX
            c = dtau / tau
            T = [X[i] @ S[i] @ Zi[i] - (rho + c) * XRZi[i] for i in range(ns)]
            dX = [_sym(T[i] if W is None else T[i] - W[i]) - (1.0 + c) * X[i] for i in range(ns)]
            dkappa = (nu_tk - kappa * dtau) / tau
            timings["newton"] += (t2 := time.perf_counter()) - t1
            # the full step if it stays inside the cones, else the fraction
            # of the longest step that does
            limits = [_max_step(*args) for args in zip(Li, dX, dZ)]
            limits += [-s / ds for s, ds in ((tau, dtau), (kappa, dkappa)) if ds < 0]
            longest = min(limits, default=np.inf)
            alpha = 1.0 if longest > 1.0 else fraction * longest
            timings["step"] += (t1 := time.perf_counter()) - t2
            if W is None:
                # the corrector aims at sigma mu, sigma from the predictor's
                # reach, and takes out its second-order term dX dZ
                mu_aff = (_dot([Xg + alpha * dXg for Xg, dXg in zip(X, dX)],
                               [Zg + alpha * dZg for Zg, dZg in zip(Z, dZ)])
                          + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (N + 1)
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0, 1e-8))
                rho, nu = 1.0 - sigma, sigma * mu
                W = [dX[i] @ dZ[i] @ Zi[i] - nu * Zi[i] for i in range(ns)]
                nu_tk = sigma * mu - tau * kappa - dtau * dkappa
        if alpha < STEP_FLOOR:
            status = Status.NUMERICAL
            reason = f"step length {alpha:.1e} below {STEP_FLOOR:.0e} at iteration {it}"
            break
        XZ = [XZ[i] + alpha * np.concatenate((dX[i], dZ[i])) for i in range(ns)]
        y = y + alpha * (dv + dtau / tau * y)
        tau += alpha * dtau
        kappa += alpha * dkappa

    XZ = [S / tau for S in XZ]
    return Solution(
        X=_scatter([S[:k] for S, k in zip(XZ, ks)], groups, real), y=y / tau,
        Z=_scatter([S[k:] for S, k in zip(XZ, ks)], groups, real),
        primal_value=pobj, dual_value=dobj, gap=relgap,
        primal_res=pres, dual_res=dres, status=status, reason=reason,
        iterations=len(history) - 1, history=history, timings=timings,
    )
