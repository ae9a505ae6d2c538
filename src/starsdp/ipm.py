"""Dense primal-dual interior point solver for block trace-form SDPs.

The solver follows the central path of the simplified homogeneous self-dual
embedding (Ye, Todd and Mizuno 1994; Xu, Hung and Ye 1996; de Klerk, Roos
and Terlaky 1997) of min <C, X> s.t. A(X) = b, X psd and its dual
max b.y s.t. sum_k y_k A_k + Z = C, Z psd.  Two scalars tau, kappa >= 0
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

A solve groups the blocks by size, in order of first appearance, and holds
each group of k blocks of size n as one stack: X, Z, C and the other
iterates as (k, n, n) arrays, and the constraint matrices once as an
(m, k, n, n) array A_s.  Cholesky factors, inverses, eigenvalues and
products broadcast over the leading axis, and a stack flattened to k n^2
entries behaves like one block for residuals, sum_k y_k A_ks and the
certificates, so every per-iteration loop runs over the distinct sizes,
not over the blocks.  One Newton solve works on the Schur complement

    M[k,l] = sum_b < A_kb, X_b A_lb inv(Z_b) >,

which equals < A_kb, sym(X_b A_lb inv(Z_b)) > for symmetric A_kb.  Each
stack adds one GEMM per column panel of about PANEL elements, flat(A_s) @
flat(X_s A_ls inv(Z_s))^T, and M is symmetrized at the end.  Beside the
model's own data a solve keeps its (m, k n^2) stacks of constraint data:
the products X A_l inv(Z) live one panel at a time, and the direction is
recovered as dX = sym(G + X (sum_l dy_l A_l) inv(Z)).  The solution lists
X and Z per block in the model's order, as views into the stacks.

M is symmetric positive definite while X, Z stay in the cone and the
constraints are independent.  Neither holds numerically to the end: a
model written by hand or read from SDPA can have dependent rows, which make
M singular (relaxations emit independent ones), and at a degenerate optimum
X and Z lose rank together, which drives cond(M) past 1e16.  M is therefore
never perturbed.  When its Cholesky factor fails, the Newton system is
solved through the eigendecomposition of M with the eigenvalues below
1e-15 * lambda_max dropped, the least-squares solution on the numerical
range of M.  Any residual of that solve reappears as primal infeasibility
of the direction, so it is refined away where it can be.  The step of
tau adds a second right-hand side, solved as a second column with the
same factor and refinement.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .sdpmodel import SDPModel, ModelError


PANEL = 2 ** 17     # elements of X A_l Z^-1 formed at once in the Schur assembly
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


@dataclass
class Iterate:
    iteration: int
    primal: float
    dual: float
    mu: float
    primal_res: float
    dual_res: float


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


def _sym(M):
    return (M + M.swapaxes(-1, -2)) * 0.5


def _frob(M):
    return float(np.linalg.norm(M))


def _groups(sizes):
    """Block indices grouped by size, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


def _gather(blocks, groups):
    """Per-block (n, n) arrays as one (k, n, n) stack per group."""
    return [np.array([blocks[i] for i in g], dtype=float) for g in groups]


def _scatter(stacks, groups):
    """The blocks of the stacks in model order, as views."""
    out = [None] * sum(map(len, groups))
    for S, g in zip(stacks, groups):
        for j, i in enumerate(g):
            out[i] = S[j]
    return out


def _stack(model, groups):
    """The constraint matrices of each group as one (m, k, n, n) array."""
    m = len(model.constraints)
    return [np.array([[con.matrices[i] for i in g] for con in model.constraints], dtype=float)
            .reshape(m, len(g), model.blocks[g[0]].size, model.blocks[g[0]].size)
            for g in groups]


def _apply(A, X):
    """The vector (sum_b <A_kb, X_b>)_k, one matvec per stack."""
    return sum(Ab.reshape(len(Ab), Xb.size) @ Xb.ravel() for Ab, Xb in zip(A, X))


def _adjoint(A, y):
    """The stacks sum_k y_k A_k, one vector-matrix product per stack."""
    return [(y @ Ab.reshape(len(Ab), int(np.prod(Ab.shape[1:])))).reshape(Ab.shape[1:])
            for Ab in A]


def _schur(A, X, Zi):
    """M[k, l] = sum_b <A_kb, X_b A_lb Zi_b>, one GEMM per stack and panel."""
    m = len(A[0]) if A else 0
    M = np.zeros((m, m))
    for Ab, Xb, Zb in zip(A, X, Zi):
        n2, flat = Xb.size, Ab.reshape(m, Xb.size)
        width = max(1, PANEL // n2)
        for c in range(0, m, width):
            M[:, c:c + width] += flat @ (Xb @ Ab[c:c + width] @ Zb).reshape(-1, n2).T
    M += M.T                            # sym(M) in place, one m x m array fewer
    return np.multiply(M, 0.5, out=M)


def feasibility_check(model: SDPModel, X: list[np.ndarray]) -> FeasibilityReport:
    """Report cone and linear residuals of a candidate block assignment."""
    model.validate()
    if len(X) != len(model.blocks):
        raise ModelError("block count mismatch in feasibility check")
    X = [np.asarray(Xb, dtype=float) for Xb in X]
    if any(Xb.shape != (blk.size, blk.size) for blk, Xb in zip(model.blocks, X)):
        raise ModelError("block shape mismatch in feasibility check")
    groups = _groups([blk.size for blk in model.blocks])
    Xs = _gather(X, groups)
    eigs = _scatter([np.linalg.eigvalsh(_sym(Xg))[:, 0] for Xg in Xs], groups)
    cons = model.constraints
    r = _apply(_stack(model, groups), Xs) - np.array([con.rhs for con in cons], dtype=float)
    # +1 for <=, -1 for >=, 0 for ==
    s = np.array([(con.sense == "<=") - (con.sense == ">=") for con in cons], dtype=float)
    violations = np.where(s == 0, np.abs(r), np.maximum(s * r, 0.0))
    obj = sum(float(np.vdot(C, Xb)) for C, Xb in zip(model.cost, X))
    return FeasibilityReport(list(map(float, eigs)), list(map(float, r)),
                             list(map(float, violations)), obj)


def _timed(timings, phase):
    """Decorator adding the seconds of each call to timings[phase]."""
    def wrap(fn):
        def run(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            timings[phase] += time.perf_counter() - t0
            return out
        return run
    return wrap


def _psd_solver(M):
    """A solver x = f(r) for M x = r, M symmetric positive semidefinite, and
    r one right-hand side or a column of them.

    Through the inverse of the Cholesky factor when that factor exists,
    so each solve is two matrix products.  Otherwise M has lost rank to
    rounding or has dependent rows, and f returns the least-squares
    solution of least norm on the eigenvectors whose eigenvalues exceed
    1e-15 * lambda_max; M itself is not perturbed."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(M)
        keep = w > 1e-15 * max(float(w[-1]), 0.0)
        V, w = V[:, keep], w[keep]
        return lambda r: (V / w) @ (V.T @ r)
    Li = np.linalg.inv(L)
    return lambda r: Li.T @ (Li @ r)


def _max_step(Li, dS):
    """Largest a with S + a dS psd on every block of a stack, where
    S = L L^T and Li = inv(L).  Returns np.inf if dS does not push against
    the boundary."""
    W = Li @ dS @ Li.swapaxes(-1, -2)
    lam = float(np.linalg.eigvalsh(_sym(W))[:, 0].min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def solve(model: SDPModel, options: SolverOptions | None = None,
          start: tuple[list[np.ndarray], np.ndarray, list[np.ndarray]] | None = None) -> Solution:
    """Solve an equality-form block SDP.  Deterministic: identical inputs
    give identical iterates and output."""
    opts = options or SolverOptions()
    model.validate()
    if not model.is_equality_only():
        raise ModelError("solver requires equality form; apply to_equality_form first")

    sizes = [b.size for b in model.blocks]
    groups = _groups(sizes)
    ns = len(groups)
    N = sum(sizes)
    m = len(model.constraints)
    C = _gather(model.cost, groups)
    A = _stack(model, groups)
    b = np.array([con.rhs for con in model.constraints], dtype=float)

    normC = max((float(np.linalg.norm(Cg, axis=(-2, -1)).max()) for Cg in C), default=0.0)
    normsA = np.sqrt(sum((np.einsum("kbij,kbij->k", Ag, Ag) for Ag in A), np.zeros(m)))
    xi = max(1.0, np.sqrt(max(sizes, default=1)),
             np.max((1 + np.abs(b)) / (1 + normsA), initial=0.0))
    maxA = max(normsA, default=0.0) or 1.0     # a zero A scales no ray
    eta = max(1.0, np.sqrt(max(sizes, default=1)), normC, maxA)

    if start is not None:
        X = _gather(start[0], groups)
        y = np.asarray(start[1], dtype=float).copy()
        Z = _gather(start[2], groups)
    else:
        eye = [np.broadcast_to(np.eye(Cg.shape[-1]), Cg.shape) for Cg in C]
        X = [xi * I for I in eye]
        y = np.zeros(m)
        Z = [eta * I for I in eye]
    tau, kappa = 1.0, sum(float(np.vdot(X[i], Z[i])) for i in range(ns)) / max(N, 1)

    normb, normCF = float(np.linalg.norm(b)), np.sqrt(sum(float(np.vdot(Cg, Cg)) for Cg in C))
    bscale, cscale = 1.0 + normb, 1.0 + normC
    history: list[Iterate] = []
    timings = {"schur": 0.0, "newton": 0.0, "step": 0.0}
    status, reason = Status.MAX_ITER, ""
    pobj = dobj = relgap = pres = dres = 0.0

    for it in range(opts.max_iter + 1):
        yA = _adjoint(A, y)
        AX = _apply(A, X)
        cx = sum(float(np.vdot(C[i], X[i])) for i in range(ns))
        by = float(b @ y)
        rp = tau * b - AX
        Rd = [tau * C[i] - Z[i] - yA[i] for i in range(ns)]
        rg = kappa - by + cx
        mu = (sum(float(np.vdot(X[i], Z[i])) for i in range(ns)) + tau * kappa) / (N + 1)
        pobj, dobj = cx / tau, by / tau
        pres = float(np.linalg.norm(rp)) / tau / bscale
        dres = np.sqrt(sum(_frob(R) ** 2 for R in Rd)) / tau / cscale
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        history.append(Iterate(it, pobj, dobj, mu, pres, dres))

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

        t0 = time.perf_counter()
        try:
            name = "X"
            Lx = [np.linalg.cholesky(Xg) for Xg in X]
            name = "Z"
            Lz = [np.linalg.cholesky(Zg) for Zg in Z]
        except np.linalg.LinAlgError:
            status = Status.NUMERICAL
            reason = f"the Cholesky factor of {name} failed at iteration {it}"
            break
        Lxi, Lzi = [np.linalg.inv(L) for L in Lx], [np.linalg.inv(L) for L in Lz]
        Zi = [li.swapaxes(-1, -2) @ li for li in Lzi]
        M = _schur(A, X, Zi)
        t1 = time.perf_counter()
        timings["schur"] += t1 - t0
        solve_once = _psd_solver(M)
        XRZi = [X[i] @ Rd[i] @ Zi[i] for i in range(ns)]
        # the gap row is written against the shifted cost Ct = (Z + Rd) / tau
        # = C - sum_k (y_k / tau) A_k, in dv = dy - dtau y / tau: with C
        # itself, terms of size y^T M y cancel to rounding noise once M is
        # ill-conditioned
        Ct = [(Z[i] + Rd[i]) / tau for i in range(ns)]
        DCt = [(X[i] + XRZi[i]) / tau for i in range(ns)]      # X Ct inv(Z)
        u = _apply(A, DCt)
        bu = b - u
        CtDCt = sum(float(np.vdot(Ct[i], DCt[i])) for i in range(ns))
        rg_t = rg + float(y @ rp) / tau
        timings["newton"] += time.perf_counter() - t1

        @_timed(timings, "newton")
        def schur_solve(rhs):
            dy = solve_once(rhs)
            # the Schur residual reappears as primal infeasibility of dX, so
            # refine each column while its residual norm at least halves
            r = rhs - M @ dy
            for _ in range(3):
                cand = dy + solve_once(r)
                rc = rhs - M @ cand
                better = np.sum(rc * rc, axis=0) < 0.25 * np.sum(r * r, axis=0)
                if not better.any():
                    break
                dy, r = np.where(better, cand, dy), np.where(better, rc, r)
            return dy

        @_timed(timings, "newton")
        def target(rho, nu, corr):
            """G and the Schur right-hand side rho rp - A(G) of the step that
            removes the share rho of the residuals and aims X Z at nu I."""
            G = [-X[i] - rho * _sym(XRZi[i]) + nu * Zi[i]
                 - (0.0 if corr is None else _sym(corr[i] @ Zi[i])) for i in range(ns)]
            return G, rho * rp - _apply(A, G)

        @_timed(timings, "newton")
        def direction(rho, G, p, nu_tk):
            """The step of target(rho, ...) that solves tau dkappa + kappa dtau
            = nu_tk, from dv = p + dtau q with M p = rho rp - A(G)."""
            dtau = ((rho * rg_t + sum(float(np.vdot(Ct[i], G[i])) for i in range(ns))
                     - bu @ p + nu_tk / tau)
                    / (bu @ q + CtDCt + kappa / tau))
            dv = p + dtau * q
            S = _adjoint(A, dv)
            dZ = [_sym(rho * Rd[i] - S[i] + dtau * Ct[i]) for i in range(ns)]
            dX = [_sym(G[i] + X[i] @ S[i] @ Zi[i] - dtau * DCt[i]) for i in range(ns)]
            return dX, dv + dtau / tau * y, dZ, dtau, (nu_tk - kappa * dtau) / tau

        @_timed(timings, "step")
        def step_length(d, fraction):
            """The full step if it stays inside the cones, else the fraction
            of the longest step that does."""
            dX, _, dZ, dtau, dkappa = d
            limits = [_max_step(Li, D) for Li, D in zip(Lxi + Lzi, dX + dZ)]
            limits += [-s / ds for s, ds in ((tau, dtau), (kappa, dkappa)) if ds < 0]
            longest = min(limits, default=np.inf)
            return 1.0 if longest > 1.0 else fraction * longest

        # M q = b + A(X Ct inv(Z)) rides along with the predictor's p as a
        # second column of one refined solve
        G, r = target(1.0, 0.0, None)
        p, q = schur_solve(np.column_stack([r, b + u])).T
        aff = direction(1.0, G, p, -tau * kappa)
        dXa, _, dZa, dtau_a, dkappa_a = aff
        a = step_length(aff, 1.0)
        mu_aff = (sum(float(np.vdot(X[i] + a * dXa[i], Z[i] + a * dZa[i])) for i in range(ns))
                  + (tau + a * dtau_a) * (kappa + a * dkappa_a)) / (N + 1)
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0, 1e-8))
        G, r = target(1.0 - sigma, sigma * mu, [dXa[i] @ dZa[i] for i in range(ns)])
        d = direction(1.0 - sigma, G, schur_solve(r),
                      sigma * mu - tau * kappa - dtau_a * dkappa_a)
        alpha = step_length(d, STEP_FRACTION)
        if alpha < STEP_FLOOR:
            status = Status.NUMERICAL
            reason = f"step length {alpha:.1e} below {STEP_FLOOR:.0e} at iteration {it}"
            break
        dX, dy, dZ, dtau, dkappa = d
        X = [_sym(Xb + alpha * dXb) for Xb, dXb in zip(X, dX)]
        Z = [_sym(Zb + alpha * dZb) for Zb, dZb in zip(Z, dZ)]
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    return Solution(
        X=_scatter([Xg / tau for Xg in X], groups), y=y / tau,
        Z=_scatter([Zg / tau for Zg in Z], groups),
        primal_value=pobj, dual_value=dobj, gap=relgap,
        primal_res=pres, dual_res=dres, status=status, reason=reason,
        iterations=len(history) - 1, history=history, timings=timings,
    )
