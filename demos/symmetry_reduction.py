"""Block reduction of an SDP invariant under a cyclic permutation group.

We build a random 6x6 SDP whose data commute with the order-3 permutation
(0 1 2)(3 4 5), block-diagonalize it, and check that both problems return
the same value.  Each irreducible of C3 appears twice, so the commutant is
12-dimensional: a real 2x2 block for the trivial irreducible, and one
Hermitian 2x2 block, solved as it is, shared by the two complex ones.
Together they carry 7 free coordinates instead of the 21 of a generic 6x6
symmetric matrix, and the 4 constraint rows stay as they are.
"""

import numpy as np

from starsdp import Block, GroupRep, LinearConstraint, SDPModel, ipm, reduce_sdp

rng = np.random.default_rng(7)

perm = [1, 2, 0, 4, 5, 3]
P = np.zeros((6, 6))
for i, j in enumerate(perm):
    P[j, i] = 1.0
rep = GroupRep([np.eye(6), P, P @ P])


def averaged(M):
    M = rep.average(M)
    return np.real(M + M.conj().T) / 2


C = averaged(rng.standard_normal((6, 6))) + 3 * np.eye(6)

# feasible point with unit trace keeps the objective O(1)
W = rng.standard_normal((6, 6))
X0 = W @ W.T + np.eye(6)
X0 /= np.trace(X0)

cons = [LinearConstraint([np.eye(6)], "==", 1.0)]
for _ in range(3):
    A = averaged(rng.standard_normal((6, 6)))
    cons.append(LinearConstraint([A], "==", float(np.trace(A @ X0))))

model = SDPModel([Block(6)], [C], cons)
red = reduce_sdp(model, rep)

print(f"commutant algebra     dim {red.commutant_dim}, "
      f"{red.reduced_dim} symmetric coordinates")
print(f"reduced blocks        {red.block_summary()}; "
      f"{len(red.model.rhs)} constraint rows")

opts = ipm.SolverOptions(tol_gap=1e-9, tol_feas=1e-9)
full = ipm.solve(model, options=opts)
small = ipm.solve(red.model, options=opts)

print(f"\nfull solve            {full.primal_value:+.9f}  [{full.status.name}]")
print(f"reduced solve         {small.primal_value:+.9f}  [{small.status.name}]")
print(f"difference            {abs(full.primal_value - small.primal_value):.2e}")

X = red.expand(small)
eigs = np.linalg.eigvalsh(X)
worst = max(abs(float(np.trace(c.matrices[0] @ X)) - c.rhs) for c in cons)
print(f"\nexpanded solution     min eig {eigs.min():+.2e}, "
      f"constraint violation {worst:.2e}")
