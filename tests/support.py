"""Shared fixtures: permutation groups, random invariant SDP instances,
random involution problems with concrete realizations, and a naive
reference rewriter."""

import dataclasses

import numpy as np

from starsdp import (
    ConcreteRealization, Polynomial, Word, normal_form, parse_problem,
)
from starsdp.algebra import single
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


def random_involution_problem(rng, k, commuting, max_deg):
    """Minimize a random Hermitian polynomial of 3 to 6 terms and degree at
    most max_deg in k selfadjoint involutions, pairwise commuting if asked."""
    names = "xyz"[:k]
    lines = ["[generators]"]
    lines += [f"{n} selfadjoint" for n in names]
    lines += ["[relations]"]
    lines += [f"{n}^2 = 1" for n in names]
    if commuting and k >= 2:
        lines.append("[commute]")
        for i in range(k - 1):
            rest = ", ".join(names[i + 1:])
            lines.append(f"{{{names[i]}}} with {{{rest}}}")
    lines += ["[objective]", f"minimize {names[0]}"]
    skeleton = parse_problem("\n".join(lines) + "\n")
    pres = skeleton.presentation

    p = Polynomial.zero()
    for _ in range(int(rng.integers(3, 7))):
        deg = int(rng.integers(0, max_deg + 1))
        w = Word(tuple((int(rng.integers(0, k)), False) for _ in range(deg)))
        p = p + Polynomial.from_word(w, float(rng.uniform(-1.0, 1.0)))
    p = 0.5 * (p + p.adjoint())
    obj = normal_form(p, pres)
    if obj.degree() == 0:
        obj = obj + normal_form(Polynomial.from_word(Word(((0, False),))), pres)
    return dataclasses.replace(skeleton, objective=obj, name="random")


def reflection(rng, d):
    """A random Householder reflection of R^d."""
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.eye(d) - 2.0 * np.outer(v, v)


def reflection_realization(pres, rng, d=4):
    """Each generator a random reflection of R^d, in a random unit state."""
    mats = {g.name: reflection(rng, d) for g in pres.generators}
    psi = rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return ConcreteRealization(pres, mats, psi)


def _reference_redex(letters, pres):
    """The first rule that applies, by a plain scan: each position from the
    left, each length from 1, and at each length star removal, then the
    commuting swap, then the explicit rules in declaration order."""
    for pos in range(len(letters)):
        for length in range(1, len(letters) - pos + 1):
            window = letters[pos:pos + length]
            if length == 1:
                g, s = window[0]
                if s and pres.generators[g].selfadjoint:
                    return pos, length, Polynomial.from_word(single(g))
            if length == 2:
                (g, s), (h, t) = window
                if s == t and h < g and (h, g) in pres.commuting:
                    return pos, length, Polynomial.from_word(Word(((h, t), (g, s))))
            for rule in pres.rules:
                if rule.lhs.letters == window:
                    return pos, length, rule.rhs
    return None


def reference_normal_form(w, pres):
    """Normal form of the word w by rewriting the first redex of
    _reference_redex until none is left, with no cache."""
    acc = {}
    stack = [(w.letters, 1.0 + 0j)]
    while stack:
        letters, coeff = stack.pop()
        redex = _reference_redex(letters, pres)
        if redex is None:
            acc[Word(letters)] = acc.get(Word(letters), 0j) + coeff
            continue
        pos, length, rhs = redex
        for u, c in rhs:
            stack.append((letters[:pos] + u.letters + letters[pos + length:], coeff * c))
    return Polynomial(acc)
