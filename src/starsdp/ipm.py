"""Dense primal-dual interior point solver for block trace-form SDPs.

Infeasible-start path following with a Mehrotra predictor-corrector and the
HKM scaling.  A solve stacks each block's constraint matrices once into one
(m, n_b, n_b) array A_b, so residuals, sum_k y_k A_kb and the certificates
are single contractions.  One Newton solve works on the Schur complement

    M[k,l] = sum_b < A_kb, X_b A_lb inv(Z_b) >,

which equals < A_kb, sym(X_b A_lb inv(Z_b)) > for symmetric A_kb.  Each
block adds one GEMM per column panel of about PANEL elements, flat(A_b) @
flat(X_b A_lb inv(Z_b))^T, and M is symmetrized at the end.  Beside the
model's own data a solve keeps one (m, n_b^2) array per block, the stack:
the products X A_l inv(Z) live one panel at a time, and the direction is
recovered as dX = sym(G + X (sum_l dy_l A_l) inv(Z)).

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
    return (M + M.T) * 0.5


def _frob(M):
    return float(np.linalg.norm(M))


def _stack(model):
    """Each block's constraint matrices as one (m, n_b, n_b) array."""
    m = len(model.constraints)
    return [np.array([con.matrices[i] for con in model.constraints], dtype=float)
            .reshape(m, blk.size, blk.size) for i, blk in enumerate(model.blocks)]


def _apply(A, X):
    """The vector (sum_b <A_kb, X_b>)_k, one matvec per block."""
    return sum(Ab.reshape(len(Ab), Xb.size) @ Xb.ravel() for Ab, Xb in zip(A, X))


def _schur(A, X, Zi):
    """M[k, l] = sum_b <A_kb, X_b A_lb Zi_b>, one GEMM per block and panel."""
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
    eigs = []
    for blk, Xb in zip(model.blocks, X):
        if Xb.shape != (blk.size, blk.size):
            raise ModelError("block shape mismatch in feasibility check")
        eigs.append(float(np.linalg.eigvalsh(_sym(Xb))[0]))
    cons = model.constraints
    r = _apply(_stack(model), X) - np.array([con.rhs for con in cons], dtype=float)
    # +1 for <=, -1 for >=, 0 for ==
    s = np.array([(con.sense == "<=") - (con.sense == ">=") for con in cons], dtype=float)
    violations = np.where(s == 0, np.abs(r), np.maximum(s * r, 0.0))
    obj = sum(float(np.vdot(C, Xb)) for C, Xb in zip(model.cost, X))
    return FeasibilityReport(eigs, list(map(float, r)), list(map(float, violations)), obj)


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
    """Largest a with S + a dS psd, where S = L L^T.  Returns np.inf if dS
    does not push against the boundary."""
    W = np.linalg.solve(L, dS)
    W = np.linalg.solve(L, W.T).T
    lam = float(np.linalg.eigvalsh(_sym(W))[0])
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
        if all(np.linalg.eigvalsh(_sym(np.tensordot(y / ny, Ab, 1)))[-1] <= 1e-6 * anorm
               for Ab in A):
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
    nb = len(sizes)
    N = sum(sizes)
    m = len(model.constraints)
    C = [np.asarray(Cb, dtype=float) for Cb in model.cost]
    A = _stack(model)
    b = np.array([con.rhs for con in model.constraints], dtype=float)

    normC = max((_frob(Cb) for Cb in C), default=0.0)
    normsA = np.sqrt(sum((np.einsum("kij,kij->k", Ab, Ab) for Ab in A), np.zeros(m)))
    xi = max(1.0, np.sqrt(max(sizes, default=1)),
             np.max((1 + np.abs(b)) / (1 + normsA), initial=0.0))
    eta = max(1.0, np.sqrt(max(sizes, default=1)), normC, max(normsA, default=0.0))

    if start is not None:
        X = [np.asarray(Xb, dtype=float).copy() for Xb in start[0]]
        y = np.asarray(start[1], dtype=float).copy()
        Z = [np.asarray(Zb, dtype=float).copy() for Zb in start[2]]
    else:
        X = [xi * np.eye(n) for n in sizes]
        y = np.zeros(m)
        Z = [eta * np.eye(n) for n in sizes]

    bscale = 1.0 + float(np.linalg.norm(b))
    cscale = 1.0 + normC
    history: list[Iterate] = []
    timings = {"schur": 0.0, "newton": 0.0, "step": 0.0}
    status = Status.MAX_ITER
    pobj = dobj = relgap = pres = dres = 0.0
    centerings = 0

    def mu_at(dX, dZ, ap, ad):
        return sum(float(np.vdot(X[i] + ap * dX[i], Z[i] + ad * dZ[i]))
                   for i in range(nb)) / max(N, 1)

    for it in range(opts.max_iter + 1):
        rp = b - _apply(A, X)
        Rd = [C[i] - Z[i] - np.tensordot(y, A[i], 1) for i in range(nb)]
        pobj = sum(float(np.vdot(C[i], X[i])) for i in range(nb))
        dobj = float(b @ y)
        mu = sum(float(np.vdot(X[i], Z[i])) for i in range(nb)) / max(N, 1)
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
                or any(_frob(Xb) > 1e8 for Xb in X)
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
        Lx = [_chol_with_jitter(Xb) for Xb in X]
        Lz = [_chol_with_jitter(Zb) for Zb in Z]
        if any(L is None for L in Lx + Lz):
            status = Status.NUMERICAL
            break
        Zi = [li.T @ li for li in map(np.linalg.inv, Lz)]
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
                 - (0.0 if corr is None else _sym(corr[i] @ Zi[i])) for i in range(nb)]
            dy = schur_solve(rp - _apply(A, G))
            S = [np.tensordot(dy, Ab, 1) for Ab in A]
            dZ = [_sym(Rd[i] - S[i]) for i in range(nb)]
            dX = [_sym(G[i] + X[i] @ S[i] @ Zi[i]) for i in range(nb)]
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

        corr = [dXa[i] @ dZa[i] for i in range(nb)]
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
        X=X, y=y, Z=Z,
        primal_value=pobj, dual_value=dobj, gap=relgap,
        primal_res=pres, dual_res=dres,
        status=status, iterations=len(history) - 1, history=history, timings=timings,
    )
