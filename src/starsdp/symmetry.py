"""Symmetry reduction of SDPs under a finite unitary group representation.

If every data matrix commutes with the action (invariance), an optimal
solution can be chosen inside the commutant algebra.  reduce_sdp block
diagonalizes the commutant (Murota, Kanno, Kojima and Kojima 2010): the
eigenspaces of a generic commutant element are irreducible subspaces,
grouped into isotypic classes by their characters, with the copies in a
class aligned by averaged intertwiners.  A class holding m copies gives one
m x m block, and every constraint row is kept as it is.  The decomposition
depends only on the group, so each GroupRep computes it once and keeps it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sdpmodel import (
    Block, LinearConstraint, SDPModel, HermitianModel, ModelError,
    realify, unrealify_matrix,
)
from . import ipm

UNITARY_TOL = 1e-8
RANK_TOL = 1e-9
SEED = 2010            # draws the generic commutant elements: reductions are deterministic
CLUSTER_TOL = 1e-6     # relative gap below which eigenvalues coincide
REBUILD_TOL = 1e-8     # data must be rebuilt from its blocks this closely


class GroupError(Exception):
    pass


class InvarianceError(Exception):
    def __init__(self, message, element=None, residual=None):
        super().__init__(message)
        self.element = element
        self.residual = residual


@dataclass(eq=False)
class GroupRep:
    """Finite collection of unitaries closed under multiplication, given as
    a sequence of d x d matrices or a (|G|, d, d) array and held as one
    (|G|, d, d) complex stack, each check holding to UNITARY_TOL."""

    elements: np.ndarray

    def __post_init__(self):
        mats = [np.asarray(U, dtype=complex) for U in self.elements]
        if not mats:
            raise GroupError("empty representation")
        d = mats[0].shape[0]
        for k, U in enumerate(mats):
            if U.shape != (d, d):
                raise GroupError(f"element {k} is not {d}x{d}")
            if np.linalg.norm(U @ U.conj().T - np.eye(d)) > UNITARY_TOL:
                raise GroupError(f"element {k} is not unitary")
        if not any(np.linalg.norm(U - np.eye(d)) <= UNITARY_TOL for U in mats):
            raise GroupError("representation does not contain the identity")
        self.elements = np.array(mats)
        for a, Ua in enumerate(mats):
            for b, Ub in enumerate(mats):
                if not np.any(np.linalg.norm(self.elements - Ua @ Ub, axis=(1, 2)) <= UNITARY_TOL):
                    raise GroupError(
                        f"product of elements {a} and {b} leaves the set; "
                        "representation is not closed")

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def pieces(self) -> list[tuple[list[np.ndarray], int]]:
        """The isotypic decomposition reduce_sdp uses, computed at first use."""
        return _irreducible_pieces(self, np.random.default_rng(SEED))

    def _conjugates(self, M: np.ndarray):
        """U M U* for a matrix or stack M (..., d, d), one chunk of elements
        U at a time; a chunk holds at most ipm.PANEL entries unless one
        element alone needs more."""
        step = max(1, ipm.PANEL // M.size)
        for s in range(0, len(self), step):
            U = self.elements[s:s + step]
            U = U.reshape(U.shape[:1] + (1,) * (M.ndim - 2) + U.shape[1:])
            yield U @ M @ U.conj().swapaxes(-1, -2)

    def average(self, M: np.ndarray) -> np.ndarray:
        """Reynolds projection onto the commutant, of a matrix or a stack."""
        M = np.asarray(M, dtype=complex)
        return sum(UMU.sum(axis=0) for UMU in self._conjugates(M)) / len(self)

    def invariance_residual(self, M: np.ndarray) -> tuple[float, int]:
        """Largest ||U M U* - M|| over the group and the first element that
        attains it; for a stack (n, d, d), one of each per matrix as arrays."""
        M = np.asarray(M, dtype=complex)
        r = np.concatenate([_frobenius(UMU - M) for UMU in self._conjugates(M)])
        if M.ndim == 2:
            return float(r.max()), int(r.argmax())
        return r.max(axis=0), r.argmax(axis=0)

    def character(self, Q: np.ndarray) -> np.ndarray:
        """tr(Q* U Q) for every element U: the character of the action on
        the invariant span of the orthonormal columns of Q."""
        return self.elements.reshape(len(self), -1) @ (Q @ Q.conj().T).T.ravel()


def _frobenius(D: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, each summed as
    np.linalg.norm sums one matrix.  g and its inverse have equal residuals
    in exact arithmetic, so the first worst element depends on the rounding;
    this keeps it the same as in a loop over the elements."""
    v = D.reshape(D.shape[:-2] + (1, -1))
    t = v.swapaxes(-1, -2)
    return np.sqrt((v.real @ t.real + v.imag @ t.imag)[..., 0, 0])


@dataclass
class InvariantBasis:
    rep: GroupRep
    mats: list[np.ndarray]             # HS-orthonormal commutant basis

    @property
    def dim(self) -> int:
        return len(self.mats)

    def reconstruction_residual(self) -> float:
        """Largest distance of a product B_i B_j from its projection onto
        the basis; zero up to rounding because the commutant is an algebra."""
        worst = 0.0
        for Bi in self.mats:
            for Bj in self.mats:
                P = Bi @ Bj
                approx = sum(np.vdot(Bk, P) * Bk for Bk in self.mats)
                worst = max(worst, float(np.linalg.norm(P - approx)))
        return worst


def invariant_basis(rep: GroupRep) -> InvariantBasis:
    """HS-orthonormal basis of the commutant via averaged matrix units."""
    d = rep.dim
    basis: list[np.ndarray] = []
    for k in range(d):
        for l in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[k, l] = 1.0
            M = rep.average(E)
            for B in basis:
                M = M - np.trace(B.conj().T @ M) * B
            nrm = float(np.linalg.norm(M))
            if nrm > RANK_TOL:
                basis.append(M / nrm)
    return InvariantBasis(rep, basis)


def _same_character(a: np.ndarray, b: np.ndarray) -> bool:
    # characters of inequivalent irreducibles are orthogonal with squared
    # norm at least |G|, so they lie at least sqrt(2|G|) apart
    return float(np.linalg.norm(a - b)) < 0.5 * np.sqrt(len(a))


def _isotypic_classes(rep: GroupRep, S: np.ndarray, real: bool,
                      rng: np.random.Generator) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Irreducible subspaces of the invariant subspace spanned by the
    orthonormal columns of S, grouped by character.

    Each class is (character, copies) with d x k orthonormal bases Q_a
    aligned so that U_g Q_a = Q_a rho(g) for one rho per class.  Over the
    reals (real S and group) the copies are real-irreducible.
    """
    def generic_commutant() -> np.ndarray:
        R = rng.standard_normal((S.shape[1],) * 2)
        if not real:
            R = R + 1j * rng.standard_normal(R.shape)
        M = rep.average(S @ R @ S.conj().T)
        return np.real(M) if real else M

    H = S.conj().T @ generic_commutant() @ S
    w, V = np.linalg.eigh((H + H.conj().T) / 2)
    gaps = np.diff(w) > CLUSTER_TOL * max(1.0, float(np.max(np.abs(w))))
    classes: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for Q in np.split(S @ V, np.flatnonzero(gaps) + 1, axis=1):
        chi = rep.character(Q)
        for c, copies in classes:
            if _same_character(c, chi):
                copies.append(Q)
                break
        else:
            classes.append((chi, [Q]))

    # an averaged random matrix intertwines copy 0 with copy a as a
    # multiple of a unitary (Schur); rescaled it carries the basis over
    T = generic_commutant()
    for _, copies in classes:
        for a in range(1, len(copies)):
            K = copies[a].conj().T @ T @ copies[0]
            copies[a] = copies[a] @ K * (np.sqrt(K.shape[0]) / np.linalg.norm(K))
    return classes


def _lift(rep: GroupRep, bases: list[np.ndarray], blocks: list[np.ndarray]) -> np.ndarray:
    """Real d x d matrix with reduced blocks `blocks` (weights included);
    blocks that are stacks (n, m_i, m_i) give a stack (n, d, d)."""
    M = sum(P @ B @ P.conj().T for P, B in zip(bases, blocks))
    return np.real(rep.average(M))


@dataclass
class ReducedSDP:
    """Block diagonalization of an invariant SDP: block i acts on the span
    of P_i = bases[i], one vector from each aligned copy of an irreducible,
    and X = Re avg_g U_g (sum_i weights[i] P_i Y_i P_i*) U_g*.  The first
    `real_blocks` blocks are real, the rest Hermitian, realified in `model`.
    """

    original: SDPModel
    rep: GroupRep
    bases: list[np.ndarray]            # P_i, d x m_i, orthonormal columns
    weights: list[int]                 # irreducible dimension, doubled for a conjugate pair
    real_blocks: int
    model: SDPModel                    # solver-ready reduced model
    commutant_dim: int                 # complex dimension of the commutant

    @property
    def reduced_dim(self) -> int:
        """Real dimension of the reduced variable."""
        sizes = [P.shape[1] for P in self.bases]
        return (sum(m * (m + 1) // 2 for m in sizes[:self.real_blocks])
                + sum(m * m for m in sizes[self.real_blocks:]))

    def block_summary(self) -> str:
        """Reduced block sizes with their kind, e.g. '2 real, 4 realified'."""
        sizes = [P.shape[1] for P in self.bases]
        return ", ".join([f"{m} real" for m in sizes[:self.real_blocks]]
                         + [f"{2 * m} realified" for m in sizes[self.real_blocks:]])

    def expand(self, sol: ipm.Solution) -> np.ndarray:
        """Optimal matrix of the original SDP from a reduced solution.

        The real part is returned: the original data is real, so the real
        part of a Hermitian feasible point is feasible with equal value.
        """
        Y = [w * (X if i < self.real_blocks else unrealify_matrix(X))
             for i, (w, X) in enumerate(zip(self.weights, sol.X))]
        X = _lift(self.rep, self.bases, Y)
        return (X + X.T) / 2


def _irreducible_pieces(rep: GroupRep, rng: np.random.Generator) -> list[tuple[list[np.ndarray], int]]:
    """(aligned copies, count) per reduced block; count 2 marks a block that
    also stands for its complex-conjugate class."""
    I = np.eye(rep.dim)
    imag = rep.elements.imag
    if max(imag.max(), -imag.min()) >= 1e-12:
        return [(copies, 1) for _, copies in _isotypic_classes(rep, I, False, rng)]
    pieces, rest = [], []
    for chi, copies in _isotypic_classes(rep, I, True, rng):
        # ||chi||^2 / |G| is 1, 2 or 4 for real, complex, quaternionic type
        if np.vdot(chi, chi).real / len(rep) < 1.5:
            pieces.append((copies, 1))
        else:
            rest += copies
    if rest:
        # Over C a complex-type class splits into a class and its conjugate,
        # whose blocks of real data are complex conjugates: keep one, counted
        # twice.  A quaternionic class is self-conjugate and stays whole.
        kept: list[np.ndarray] = []
        for chi, copies in _isotypic_classes(rep, np.hstack(rest), False, rng):
            if any(_same_character(chi.conj(), c) for c in kept):
                continue
            kept.append(chi)
            pieces.append((copies, 1 if _same_character(chi.conj(), chi) else 2))
    return pieces


def reduce_sdp(model: SDPModel, rep: GroupRep) -> ReducedSDP:
    """Block-diagonal SDP with the constraint rows of a one-block `model`
    whose data commute with `rep` to UNITARY_TOL.  ModelError if the blocks miss
    the commutant dimension of the character or fail to rebuild the data."""
    model.validate()
    if len(model.blocks) != 1 or model.blocks[0].diagonal:
        raise ModelError("symmetry reduction expects a single dense block")
    d = model.blocks[0].size
    if rep.dim != d:
        raise ModelError(
            f"representation dimension {rep.dim} does not match block size {d}")

    # the objective, then every constraint, as one stack
    data = np.array([model.cost[0]] + [con.matrices[0] for con in model.constraints])
    names = ["objective"] + [f"constraint {k}" for k in range(1, len(data))]
    residual, element = rep.invariance_residual(data)
    bad = np.flatnonzero(residual > UNITARY_TOL)
    if bad.size:
        j = bad[0]
        r, g = float(residual[j]), int(element[j])
        raise InvarianceError(
            f"{names[j]} is not invariant: residual {r:.3e} "
            f"under group element {g}", element=g, residual=r)

    pieces = rep.pieces
    commutant_dim = sum(count * len(copies) ** 2 for copies, count in pieces)
    expected = np.sum(np.abs(rep.character(np.eye(d))) ** 2) / len(rep)
    if abs(commutant_dim - expected) > 1e-6:
        raise ModelError(
            f"symmetry reduction failed: blocks span a commutant of dimension "
            f"{commutant_dim}, the character gives {expected:.6g}")

    # one block per piece, weight * P* M P for each data matrix M; a block
    # whose data are all real keeps a real variable, which loses nothing
    # because the real part of a Hermitian feasible block is feasible
    blocks = []
    for copies, count in pieces:
        P = np.hstack([Q[:, :1] for Q in copies])
        w = count * copies[0].shape[1]
        Ds = w * P.conj().T @ data @ P
        Ds = (Ds + Ds.conj().swapaxes(-1, -2)) / 2
        if float(np.max(np.abs(Ds.imag))) <= RANK_TOL:
            Ds = Ds.real
        blocks.append((P, w, Ds))
    blocks.sort(key=lambda blk: np.iscomplexobj(blk[2]))
    bases, weights, reduced = (list(t) for t in zip(*blocks))

    rebuilt = np.linalg.norm(_lift(rep, bases, reduced) - data, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(data, axis=(-2, -1)))
    bad = np.flatnonzero(rebuilt > REBUILD_TOL * scale)
    if bad.size:
        raise ModelError(
            f"symmetry reduction failed: {names[bad[0]]} is rebuilt from its "
            f"blocks with residual {rebuilt[bad[0]]:.3e}")

    n_real = sum(not np.iscomplexobj(Ds) for Ds in reduced)
    real, cplx = reduced[:n_real], reduced[n_real:]
    doubled = realify(HermitianModel(
        [Ds[0].shape[0] for Ds in cplx], [Ds[0] for Ds in cplx],
        [LinearConstraint([Ds[k + 1] for Ds in cplx], con.sense, con.rhs)
         for k, con in enumerate(model.constraints)]))
    out = SDPModel(
        [Block(Ds[0].shape[0]) for Ds in real] + doubled.blocks,
        [Ds[0] for Ds in real] + doubled.cost,
        [LinearConstraint([Ds[k + 1] for Ds in real] + dcon.matrices,
                          con.sense, con.rhs)
         for k, (con, dcon) in enumerate(zip(model.constraints, doubled.constraints))])
    out.validate()
    return ReducedSDP(
        original=model, rep=rep, bases=bases, weights=weights,
        real_blocks=n_real, model=out, commutant_dim=commutant_dim)


_GROUP_TOKEN = re.compile(r"[^\s,]+")


def _parse_entry(tok: str, line_no: int) -> complex:
    t = tok.replace("i", "j").replace("I", "j")
    try:
        return complex(t)
    except ValueError:
        raise GroupError(f"line {line_no}: bad matrix entry {tok!r}") from None


def parse_group_file(path: str) -> GroupRep:
    """Representation file: a 'dim N' line, then 'element' stanzas each
    followed by N rows of N entries (complex entries like 0.5+0.5i work)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dim = None
    elements: list[np.ndarray] = []
    current: list[list[complex]] = []

    def flush(line_no):
        nonlocal current
        if current:
            if len(current) != dim:
                raise GroupError(
                    f"line {line_no}: element has {len(current)} rows, expected {dim}")
            elements.append(np.array(current, dtype=complex))
            current = []

    for no, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#") or s.startswith("*"):
            continue
        low = s.lower()
        if low.startswith("dim"):
            if dim is not None:
                raise GroupError(f"line {no}: duplicate dim line")
            try:
                dim = int(s.split()[1])
            except (IndexError, ValueError):
                raise GroupError(f"line {no}: malformed dim line") from None
            continue
        if low == "element":
            if dim is None:
                raise GroupError(f"line {no}: element before dim")
            flush(no)
            continue
        if dim is None:
            raise GroupError(f"line {no}: expected 'dim N' first")
        row = [_parse_entry(t, no) for t in _GROUP_TOKEN.findall(s)]
        if len(row) != dim:
            raise GroupError(f"line {no}: row has {len(row)} entries, expected {dim}")
        current.append(row)
    flush(len(lines))
    if not elements:
        raise GroupError("no group elements in file")
    return GroupRep(elements)
