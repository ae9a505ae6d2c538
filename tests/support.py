"""Shared fixtures: permutation groups and random invariant SDP instances."""

import numpy as np

from starsdp.sdpmodel import LinearConstraint, SDPModel, Block
from starsdp.symmetry import GroupRep


def perm_matrix(perm):
    d = len(perm)
    P = np.zeros((d, d))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return P


def cyclic_rep(perm):
    d = len(perm)
    P = perm_matrix(perm)
    mats, M = [np.eye(d)], P.copy()
    while np.linalg.norm(M - np.eye(d)) > 1e-12:
        mats.append(M.copy())
        M = M @ P
    return GroupRep(mats)


def cyclic_two_orbits(n):
    """An n-cycle rotating two disjoint orbits at once, on 2n coordinates."""
    return cyclic_rep([(i + 1) % n for i in range(n)]
                      + [n + (i + 1) % n for i in range(n)])


def c3_rep():
    """(123)(456) acting on 6 coordinates: two regular copies of a 3-cycle."""
    return cyclic_two_orbits(3)


def dihedral_rep(n):
    """The symmetry group of the n-gon, order 2n, acting on its vertices."""
    R = perm_matrix([(i + 1) % n for i in range(n)])
    F = perm_matrix([(-i) % n for i in range(n)])
    mats, power = [], np.eye(n)
    for _ in range(n):
        mats += [power, power @ F]
        power = power @ R
    return GroupRep(mats)


def _hamilton(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def q8_rep():
    """Regular representation of the quaternion group {+-1, +-i, +-j, +-k}:
    its 2-dimensional irreducible is of quaternionic type."""
    units = [tuple(s * int(i == k) for i in range(4))
             for s in (1, -1) for k in range(4)]
    return GroupRep([perm_matrix([units.index(_hamilton(g, h)) for h in units])
                     for g in units])


def q8_spin_twice():
    """Two copies of the 2-dimensional complex irreducible of Q8."""
    i, j = np.diag([1j, -1j]), np.array([[0.0, 1.0], [-1.0, 0.0]])
    return GroupRep([np.kron(np.eye(2), s * u)
                     for s in (1, -1) for u in (np.eye(2), i, j, i @ j)])


def power_rep(U):
    """Cyclic group generated by the unitary U."""
    d = U.shape[0]
    mats, M = [np.eye(d)], np.asarray(U, dtype=complex)
    while np.linalg.norm(M - np.eye(d)) > 1e-12:
        mats.append(M)
        M = M @ U
    return GroupRep(mats)


def invariant_instance(rep, n_cons, rng):
    """Random bounded-feasible SDP with all data averaged into invariance.

    The strictly feasible point is normalized to unit trace so objective
    values stay O(1) and absolute comparisons line up with relative solver
    tolerances.
    """
    d = rep.dim
    C = rep.average(rng.standard_normal((d, d)))
    C = np.real(C + C.conj().T) / 2 + 3.0 * np.eye(d)
    X0 = rng.standard_normal((d, d))
    X0 = X0 @ X0.T + np.eye(d)
    X0 /= np.trace(X0)
    cons = [LinearConstraint([np.eye(d)], "==", 1.0)]
    for _ in range(n_cons):
        A = rep.average(rng.standard_normal((d, d)))
        A = np.real(A + A.conj().T) / 2
        cons.append(LinearConstraint([A], "==", float(np.trace(A @ X0))))
    return SDPModel([Block(d)], [C], cons)


def write_group_file(path, rep):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {rep.dim}\n")
        for U in rep.elements:
            fh.write("element\n")
            for row in U:
                if np.max(np.abs(np.imag(U))) > 1e-15:
                    fh.write(" ".join(
                        f"{v.real:.17g}{v.imag:+.17g}i" for v in row) + "\n")
                else:
                    fh.write(" ".join(f"{v.real:.17g}" for v in row) + "\n")
