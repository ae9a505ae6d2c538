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
of its view.  The data are made exactly Hermitian once, in place, so the
residuals, dZ and the updated X and Z are too; only products need _sym.
X and Z of a group are factored as one stack, one cholesky and one inv
call on both.  Products broadcast over the leading axis, and a stack
flattened to k n^2 entries behaves like one block for residuals,
sum_k y_k A_ks and the certificates, so every per-iteration loop runs over
the distinct sizes, not over the blocks.  One Newton solve works on the
Schur complement

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
page-faulted in anew at every iteration.  The direction is recovered as
dX = sym(G + X (sum_l dy_l A_l) inv(Z)).  The solution lists X and Z per
block in the model's order, as views into the stacks.  Solution.timings
sums per phase the time between perf_counter reads at its boundaries.

M = F F^T is positive semidefinite by construction, and definite while X, Z
stay in the cone and the constraints are independent.  Neither holds
numerically to the end.  Dependent rows make M singular at every
iteration: a model written by hand or read from SDPA can have them, and so
can a relaxation, whose free parameters may include directions that no
block sees (the free-root problem of the tests emits LMI rows of rank 43
of 52 at level 3).  At a degenerate optimum X and Z lose rank together,
which drives up cond(M).  M is therefore never perturbed.  With its
Cholesky factor M = L L^T the Newton solve is dy = inv(L)^T inv(L) r; when
that factor fails, the solve runs on the eigendecomposition of M with the
eigenvalues below 1e-15 * lambda_max dropped, the least-norm solution on
the numerical range of M.  Neither solve is refined.  dZ satisfies its
equation for any dy, so what a solve leaves in M dy - r shows up only in
the next iterate's primal residual, which is measured afresh and removed
by the next step with the rest.  Refining either solve, up to three passes
while the residual halved, changed no status and no iteration count on the
benchmark's 412 solves, on 1,408 random involution relaxations at
tolerance 1e-9 and on 242 solves of the test presentations, and moved no
bound by more than 4.3e-12.  The step of tau adds a second right-hand
side, solved as a second column.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .sdpmodel import SDPModel, ModelError, chunks


STEP_FRACTION = 0.98    # share of the distance to the cone boundary a step takes
STEP_FLOOR = 1e-12      # a shorter step ends the solve NUMERICAL


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


def _frob(M):
    return float(np.linalg.norm(M))


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
    for Gg in G:                        # exactly Hermitian, in place, by chunks
        for P in chunks(Gg):
            np.add(P, _ct(P), out=P)
            P *= 0.5
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
    m = len(A[0]) if A else 0
    M = np.zeros((m, m))
    for Ab, Lxb, Lzib, (T, F) in zip(A, Lx, Lzi, work):
        np.matmul(Lzib, Ab, out=T)
        Ff = _flat(np.matmul(T, Lxb, out=F))
        M += Ff @ Ff.T                  # numpy's SYRK: exactly symmetric
    return M


def feasibility_check(model: SDPModel, X: list[np.ndarray]) -> FeasibilityReport:
    """Report cone and linear residuals of a candidate block assignment."""
    model.validate()
    if len(X) != len(model.blocks):
        raise ModelError("block count mismatch in feasibility check")
    X = [np.asarray(Xb, dtype=complex if np.iscomplexobj(Xb) else float) for Xb in X]
    if any(Xb.shape != (blk.size, blk.size) for blk, Xb in zip(model.blocks, X)):
        raise ModelError("block shape mismatch in feasibility check")
    eigs = [np.linalg.eigvalsh(_sym(Xb))[0] for Xb in X]
    cons = model.constraints
    r = np.array([sum(_inner(A, Xb) for A, Xb in zip(con.matrices, X)) - con.rhs
                  for con in cons], dtype=float)
    # +1 for <=, -1 for >=, 0 for ==
    s = np.array([(con.sense == "<=") - (con.sense == ">=") for con in cons], dtype=float)
    violations = np.where(s == 0, np.abs(r), np.maximum(s * r, 0.0))
    obj = sum(_inner(C, Xb) for C, Xb in zip(model.cost, X))
    return FeasibilityReport(list(map(float, eigs)), list(map(float, r)),
                             list(map(float, violations)), obj)


def _tril_inv(L):
    """The inverse of a lower triangular L, by halves: with L = [[P, 0],
    [Q, R]], inv(L) = [[inv(P), 0], [-inv(R) Q inv(P), inv(R)]], two GEMMs
    per level in place of a general LU solve, down to np.linalg.inv at
    n <= 48."""
    n = len(L)
    if n <= 48:
        return np.linalg.inv(L)
    h = n // 2
    Li = np.zeros_like(L)
    Pi, Ri = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    Li[:h, :h], Li[h:, h:] = Pi, Ri
    Li[h:, :h] = -(Ri @ L[h:, :h]) @ Pi
    return Li


def _psd_solver(M):
    """A solver x = f(r) for M x = r, M symmetric positive semidefinite, and
    r one right-hand side or a column of them.

    When the Cholesky factor L of M exists, f applies inv(L)^T inv(L), two
    matrix products per solve, with inv(L) from _tril_inv.  Otherwise M has
    lost rank to rounding or has dependent rows, and f returns the
    least-squares solution of least norm on the eigenvectors whose
    eigenvalues exceed 1e-15 * lambda_max; M itself is not perturbed.
    Neither solve is refined (see the module docstring)."""
    try:
        Li = _tril_inv(np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
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
    lam = float(np.linalg.eigvalsh(_sym(W))[:, 0].min())
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

    if start is not None:
        X = _gather(start[0], groups, C)
        y = np.asarray(start[1], dtype=float).copy()
        Z = _gather(start[2], groups, C)
    else:
        eye = [np.broadcast_to(np.eye(Cg.shape[-1], dtype=Cg.dtype), Cg.shape) for Cg in C]
        X = [xi * I for I in eye]
        y = np.zeros(m)
        Z = [eta * I for I in eye]
    tau, kappa = 1.0, sum(_inner(X[i], Z[i]) for i in range(ns)) / max(N, 1)

    normb, normCF = float(np.linalg.norm(b)), np.sqrt(sum(_inner(Cg, Cg) for Cg in C))
    bscale, cscale = 1.0 + normb, 1.0 + normC
    history: list[Iterate] = []
    timings = {"schur": 0.0, "newton": 0.0, "step": 0.0}
    status, reason = Status.MAX_ITER, ""
    pobj = dobj = relgap = pres = dres = 0.0

    for it in range(opts.max_iter + 1):
        yA = _adjoint(Af, y, C)
        AX = _apply(Af, X)
        cx = sum(_inner(C[i], X[i]) for i in range(ns))
        by = float(b @ y)
        rp = tau * b - AX
        Rd = [tau * C[i] - Z[i] - yA[i] for i in range(ns)]
        rg = kappa - by + cx
        mu = (sum(_inner(X[i], Z[i]) for i in range(ns)) + tau * kappa) / (N + 1)
        pobj, dobj = cx / tau, by / tau
        pres = float(np.linalg.norm(rp)) / tau / bscale
        dres = np.sqrt(sum(_frob(R) ** 2 for R in Rd)) / tau / cscale
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        history.append(Iterate(it, pobj, dobj, mu, pres, dres, tau, kappa))

        if pres <= opts.tol_feas and dres <= opts.tol_feas and relgap <= opts.tol_gap:
            status = Status.OPTIMAL
            break
        dual_ray = np.sqrt(sum(_frob(yA[i] + Z[i]) ** 2 for i in range(ns))) * normb
        if by > 0 and dual_ray <= opts.tol_feas * by * maxA:
            status = Status.INFEASIBLE
            reason = (f"dual ray at iteration {it}, primal infeasible: |sum_k y_k A_k + Z| "
                      f"/ max|A_k| = {dual_ray / (by * maxA):.1e} b.y / |b| with b.y > 0")
            break
        primal_ray = float(np.linalg.norm(AX)) * normCF
        if cx < 0 and primal_ray <= opts.tol_feas * -cx * maxA:
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
            L = [np.linalg.cholesky(np.concatenate((Xg, Zg))) for Xg, Zg in zip(X, Z)]
        except np.linalg.LinAlgError:
            status, name = Status.NUMERICAL, "Z"
            try:                        # factor X alone to name the one that failed
                [np.linalg.cholesky(Xg) for Xg in X]
            except np.linalg.LinAlgError:
                name = "X"
            reason = f"the Cholesky factor of {name} failed at iteration {it}"
            break
        Li = [np.linalg.inv(Lg) for Lg in L]
        Lx = [Lg[:len(Xg)] for Lg, Xg in zip(L, X)]
        Lzi = [Lg[len(Xg):] for Lg, Xg in zip(Li, X)]
        Zi = [_ct(li) @ li for li in Lzi]
        M = _schur(A, Lx, Lzi, work)
        timings["schur"] += (t1 := time.perf_counter()) - t0

        # "newton": predictor, then corrector: target, Schur solve, direction
        solve_M = _psd_solver(M)
        XRZi = [X[i] @ Rd[i] @ Zi[i] for i in range(ns)]
        sXRZi = [_sym(T) for T in XRZi]
        # the gap row is written against the shifted cost Ct = (Z + Rd) / tau
        # = C - sum_k (y_k / tau) A_k, in dv = dy - dtau y / tau: with C
        # itself, terms of size y^T M y cancel to rounding noise once M is
        # ill-conditioned
        Ct = [(Z[i] + Rd[i]) / tau for i in range(ns)]
        DCt = [(X[i] + XRZi[i]) / tau for i in range(ns)]      # X Ct inv(Z)
        u = _apply(Af, DCt)
        bu = b - u
        CtDCt = sum(_inner(Ct[i], DCt[i]) for i in range(ns))
        rg_t = rg + float(y @ rp) / tau
        # the predictor removes all residuals and aims X Z and tau kappa at 0
        rho, nu, corr, nu_tk = 1.0, 0.0, None, -tau * kappa
        for fraction in (1.0, STEP_FRACTION):
            # G and the Schur right-hand side rho rp - A(G) of the step that
            # removes the share rho of the residuals and aims X Z at nu I
            G = [-X[i] - rho * sXRZi[i] + nu * Zi[i]
                 - (0.0 if corr is None else _sym(corr[i] @ Zi[i])) for i in range(ns)]
            r = rho * rp - _apply(Af, G)
            if corr is None:            # M q = b + A(X Ct inv(Z)) rides along
                p, q = solve_M(np.column_stack([r, b + u])).T
            else:
                p = solve_M(r)
            # the step with tau dkappa + kappa dtau = nu_tk, dv = p + dtau q
            dtau = ((rho * rg_t + sum(_inner(Ct[i], G[i]) for i in range(ns))
                     - bu @ p + nu_tk / tau)
                    / (bu @ q + CtDCt + kappa / tau))
            dv = p + dtau * q
            S = _adjoint(Af, dv, C)
            dZ = [rho * Rd[i] - S[i] + dtau * Ct[i] for i in range(ns)]
            dX = [_sym(G[i] + X[i] @ S[i] @ Zi[i] - dtau * DCt[i]) for i in range(ns)]
            dkappa = (nu_tk - kappa * dtau) / tau
            timings["newton"] += (t2 := time.perf_counter()) - t1
            # the full step if it stays inside the cones, else the fraction
            # of the longest step that does
            limits = [_max_step(*args) for args in zip(Li, dX, dZ)]
            limits += [-s / ds for s, ds in ((tau, dtau), (kappa, dkappa)) if ds < 0]
            longest = min(limits, default=np.inf)
            alpha = 1.0 if longest > 1.0 else fraction * longest
            timings["step"] += (t1 := time.perf_counter()) - t2
            if corr is None:
                # the corrector aims at sigma mu, sigma from the predictor's
                # reach, and takes out its second-order term dX dZ
                mu_aff = (sum(_inner(X[i] + alpha * dX[i], Z[i] + alpha * dZ[i])
                              for i in range(ns))
                          + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (N + 1)
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0, 1e-8))
                rho, nu, corr = 1.0 - sigma, sigma * mu, [dX[i] @ dZ[i] for i in range(ns)]
                nu_tk = sigma * mu - tau * kappa - dtau * dkappa
        if alpha < STEP_FLOOR:
            status = Status.NUMERICAL
            reason = f"step length {alpha:.1e} below {STEP_FLOOR:.0e} at iteration {it}"
            break
        X = [Xb + alpha * dXb for Xb, dXb in zip(X, dX)]
        Z = [Zb + alpha * dZb for Zb, dZb in zip(Z, dZ)]
        y = y + alpha * (dv + dtau / tau * y)
        tau += alpha * dtau
        kappa += alpha * dkappa

    return Solution(
        X=_scatter([Xg / tau for Xg in X], groups, real), y=y / tau,
        Z=_scatter([Zg / tau for Zg in Z], groups, real),
        primal_value=pobj, dual_value=dobj, gap=relgap,
        primal_res=pres, dual_res=dres, status=status, reason=reason,
        iterations=len(history) - 1, history=history, timings=timings,
    )
