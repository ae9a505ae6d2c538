"""Dense primal-dual interior point solver for block trace-form SDPs.

Infeasible-start path following with a Mehrotra predictor-corrector and the
HKM scaling.  A solve groups the blocks by size, in order of first
appearance, and holds each group of k blocks of size n as one stack: X, Z,
C and the other iterates as (k, n, n) arrays, and the constraint matrices
once as an (m, k, n, n) array A_s.  Cholesky factors, inverses, eigenvalues
and products broadcast over the leading axis, and a stack flattened to
k n^2 entries behaves like one block for residuals, sum_k y_k A_ks and the
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
of the direction, so it is refined away where it can be.

Steps are damped by a boundary fraction and a backtracking acceptance that
keeps the complementarity mu monotone.  When the boundary makes the primal
and dual lengths unequal, the first-order change of mu can be positive at
every common scale of the two; the backtrack then falls back to the single
length min(ap, ad), along which mu falls to first order.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .sdpmodel import SDPModel, ModelError


PANEL = 2 ** 17     # elements of X A_l Z^-1 formed at once in the Schur assembly


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
    step_fraction: float = 0.98


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
    history: list[Iterate] = field(repr=False, default_factory=list)
    # seconds in "schur" (factor X, Z, assemble M), "newton" (Schur solves,
    # direction recovery) and "step" (step lengths, mu backtrack)
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


def _chol_with_jitter(M, tries=3):
    """Cholesky factor of a symmetric positive definite M, or None.

    If the plain factor fails, this factors M + j I instead, with j growing
    from 1e-12 max|M| by 100 per try: the factor is then that of a
    perturbed matrix.  Used only for the iterates X and Z, which the
    boundary fraction keeps strictly inside the cone."""
    scale = max(1.0, float(np.max(np.abs(M))))
    jitter = 0.0
    for t in range(tries + 1):
        try:
            return np.linalg.cholesky(M + jitter * np.eye(M.shape[0]))
        except np.linalg.LinAlgError:
            jitter = scale * (1e-12 if t == 0 else jitter / scale * 100)
    return None


def _chol_stack(S):
    """Cholesky factors of a (k, n, n) stack, or None.  One batched call;
    if it fails, each block is factored alone, so only the blocks whose
    plain factor fails are perturbed."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        Ls = [_chol_with_jitter(Sb) for Sb in S]
        return None if any(L is None for L in Ls) else np.array(Ls)


def _psd_solver(M):
    """A solver x = f(r) for M x = r, M symmetric positive semidefinite.

    Cholesky when it succeeds.  Otherwise M has lost rank to rounding or
    has dependent rows, and f returns the least-squares solution of least
    norm on the eigenvectors whose eigenvalues exceed 1e-15 * lambda_max;
    M itself is not perturbed."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(M)
        keep = w > 1e-15 * max(float(w[-1]), 0.0)
        V, w = V[:, keep], w[keep]
        return lambda r: V @ ((V.T @ r) / w)
    return lambda r: np.linalg.solve(L.T, np.linalg.solve(L, r))


def _max_step(L, dS):
    """Largest a with S + a dS psd on every block of a stack, where
    S = L L^T.  Returns np.inf if dS does not push against the boundary."""
    W = np.linalg.solve(L, dS)
    W = np.linalg.solve(L, W.swapaxes(-1, -2)).swapaxes(-1, -2)
    lam = float(np.linalg.eigvalsh(_sym(W))[:, 0].min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _certificate_status(A, b, C, X, y, normsA, normC):
    """Check the current iterate for a genuine infeasibility certificate.

    Primal infeasibility: y with sum_k y_k A_k psd-negative and b.y > 0.
    Primal unboundedness: a psd ray R in the constraint nullspace with
    <C, R> < 0.  Both verified to tolerance, so the status is earned, not
    guessed."""
    anorm = 1.0 + max(normsA, default=0.0)
    ny = float(np.linalg.norm(y))
    if ny > 1e-8 and float(b @ y) / ny > 1e-6:
        if all(np.linalg.eigvalsh(_sym(np.tensordot(y / ny, Ab, 1)))[:, -1].max()
               <= 1e-6 * anorm for Ab in A):
            return Status.INFEASIBLE
    nx = np.sqrt(sum(_frob(Xb) ** 2 for Xb in X))
    if nx > 1e-8:
        ray_obj = sum(float(np.vdot(Cb, Xb)) for Cb, Xb in zip(C, X)) / nx
        ray_res = float(np.linalg.norm(_apply(A, X))) / nx
        if ray_obj < -1e-6 * (1 + normC) and ray_res <= 1e-6 * anorm:
            return Status.UNBOUNDED
    return None


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

    # per-block maxima, as the divergence test below
    normC = max((float(np.linalg.norm(Cg, axis=(-2, -1)).max()) for Cg in C), default=0.0)
    normsA = np.sqrt(sum((np.einsum("kbij,kbij->k", Ag, Ag) for Ag in A), np.zeros(m)))
    xi = max(1.0, np.sqrt(max(sizes, default=1)),
             np.max((1 + np.abs(b)) / (1 + normsA), initial=0.0))
    eta = max(1.0, np.sqrt(max(sizes, default=1)), normC, max(normsA, default=0.0))

    if start is not None:
        X = _gather(start[0], groups)
        y = np.asarray(start[1], dtype=float).copy()
        Z = _gather(start[2], groups)
    else:
        eye = [np.broadcast_to(np.eye(Cg.shape[-1]), Cg.shape) for Cg in C]
        X = [xi * I for I in eye]
        y = np.zeros(m)
        Z = [eta * I for I in eye]

    bscale = 1.0 + float(np.linalg.norm(b))
    cscale = 1.0 + normC
    history: list[Iterate] = []
    timings = {"schur": 0.0, "newton": 0.0, "step": 0.0}
    status = Status.MAX_ITER
    pobj = dobj = relgap = pres = dres = 0.0
    centerings = 0

    def mu_at(dX, dZ, ap, ad):
        return sum(float(np.vdot(X[i] + ap * dX[i], Z[i] + ad * dZ[i]))
                   for i in range(ns)) / max(N, 1)

    for it in range(opts.max_iter + 1):
        rp = b - _apply(A, X)
        Rd = [C[i] - Z[i] - np.tensordot(y, A[i], 1) for i in range(ns)]
        pobj = sum(float(np.vdot(C[i], X[i])) for i in range(ns))
        dobj = float(b @ y)
        mu = sum(float(np.vdot(X[i], Z[i])) for i in range(ns)) / max(N, 1)
        pres = float(np.linalg.norm(rp)) / bscale
        dres = np.sqrt(sum(_frob(R) ** 2 for R in Rd)) / cscale
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        history.append(Iterate(it, pobj, dobj, mu, pres, dres))

        if pres <= opts.tol_feas and dres <= opts.tol_feas and relgap <= opts.tol_gap:
            status = Status.OPTIMAL
            break
        if it >= 5:
            diverging = (
                float(np.linalg.norm(y)) > 1e8
                or any(np.linalg.norm(Xg, axis=(-2, -1)).max() > 1e8 for Xg in X)
                or dobj > 1e10 * bscale
                or pobj < -1e10 * cscale
            )
            if diverging:
                cert = _certificate_status(A, b, C, X, y, normsA, normC)
                if cert is not None:
                    status = cert
                    break
        if it == opts.max_iter:
            status = Status.MAX_ITER
            break

        t0 = time.perf_counter()
        Lx = [_chol_stack(Xg) for Xg in X]
        Lz = [_chol_stack(Zg) for Zg in Z]
        if any(L is None for L in Lx + Lz):
            status = Status.NUMERICAL
            break
        Zi = [li.swapaxes(-1, -2) @ li for li in map(np.linalg.inv, Lz)]
        M = _schur(A, X, Zi)
        t1 = time.perf_counter()
        timings["schur"] += t1 - t0
        solve_once = _psd_solver(M)
        timings["newton"] += time.perf_counter() - t1

        def schur_solve(rhs):
            dy = solve_once(rhs)
            # the Schur residual reappears verbatim as primal infeasibility
            # of the recovered dX, so refine while refinement helps
            best, best_r = dy, float(np.linalg.norm(rhs - M @ dy))
            for _ in range(3):
                r = rhs - M @ best
                cand = best + solve_once(r)
                cr = float(np.linalg.norm(rhs - M @ cand))
                if cr >= best_r * 0.5:
                    break
                best, best_r = cand, cr
            return best

        @_timed(timings, "newton")
        def newton(nu, corr):
            G = [-X[i] - _sym(X[i] @ Rd[i] @ Zi[i]) + nu * Zi[i]
                 - (0.0 if corr is None else _sym(corr[i] @ Zi[i])) for i in range(ns)]
            dy = schur_solve(rp - _apply(A, G))
            S = [np.tensordot(dy, Ab, 1) for Ab in A]
            dZ = [_sym(Rd[i] - S[i]) for i in range(ns)]
            dX = [_sym(G[i] + X[i] @ S[i] @ Zi[i]) for i in range(ns)]
            return dX, dy, dZ

        @_timed(timings, "step")
        def step_sizes(dX, dZ, fraction):
            return [min(1.0, fraction * min(map(_max_step, Ls, Ds), default=np.inf))
                    for Ls, Ds in ((Lx, dX), (Lz, dZ))]

        @_timed(timings, "step")
        def mu_backtrack(dX, dZ, ap, ad):
            """Halve both lengths until mu does not increase.

            Halving keeps ap/ad, and with ap != ad the first-order change
            of mu, (ad <X,dZ> + ap <dX,Z>) / N, can be positive at every
            scale.  Then retry with the common length a = min(ap, ad).
            Along it the first-order change is (sigma - 1) mu a <= 0 for a
            step without corrector, and the second-order term
            a^2 <dX,dZ> / N shrinks faster under halving, so mu falls or
            stays level at some halving of a."""
            for ap, ad in [(ap, ad)] + ([(min(ap, ad),) * 2] if ap != ad else []):
                for _ in range(30):
                    if mu_at(dX, dZ, ap, ad) <= mu * (1 + 1e-12):
                        return True, ap, ad
                    ap *= 0.5
                    ad *= 0.5
            return False, ap, ad

        dXa, dya, dZa = newton(0.0, None)
        ap, ad = step_sizes(dXa, dZa, 1.0)
        mu_aff = mu_at(dXa, dZa, ap, ad)
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0, 1e-8))

        corr = [dXa[i] @ dZa[i] for i in range(ns)]
        dX, dy, dZ = newton(sigma * mu, corr)
        ap, ad = step_sizes(dX, dZ, opts.step_fraction)
        accepted, ap, ad = mu_backtrack(dX, dZ, ap, ad)

        if accepted and (ap >= 1e-12 or ad >= 1e-12):
            centerings = 0
        else:
            # predictor blocked at the cone boundary; a pure centering step
            # (sigma = 1, no corrector) keeps mu level and restores room
            rescued = False
            if centerings < 5:
                dXc, dyc, dZc = newton(mu, None)
                apc, adc = step_sizes(dXc, dZc, opts.step_fraction)
                ok, apc, adc = mu_backtrack(dXc, dZc, apc, adc)
                if ok and (apc >= 1e-12 or adc >= 1e-12):
                    dX, dy, dZ, ap, ad = dXc, dyc, dZc, apc, adc
                    centerings += 1
                    rescued = True
            if not rescued:
                cert = _certificate_status(A, b, C, X, y, normsA, normC)
                status = cert if cert is not None else Status.NUMERICAL
                break
        X = [_sym(Xb + ap * dXb) for Xb, dXb in zip(X, dX)]
        Z = [_sym(Zb + ad * dZb) for Zb, dZb in zip(Z, dZ)]
        y = y + ad * dy

    return Solution(
        X=_scatter(X, groups), y=y, Z=_scatter(Z, groups),
        primal_value=pobj, dual_value=dobj, gap=relgap,
        primal_res=pres, dual_res=dres,
        status=status, iterations=len(history) - 1, history=history, timings=timings,
    )
