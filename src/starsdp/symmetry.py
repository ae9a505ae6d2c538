"""Symmetry reduction of SDPs under a finite unitary group representation.

If every data matrix commutes with the action (invariance), an optimal
solution can be chosen inside the commutant algebra.  reduce_sdp block
diagonalizes the commutant (Murota, Kanno, Kojima and Kojima 2010): the
eigenspaces of a generic commutant element are irreducible subspaces,
grouped into isotypic classes by their characters, with the copies in a
class aligned by averaged intertwiners.  A class holding m copies gives one
m x m block, and every constraint row is kept as it is.  The decomposition
depends only on the group, so each GroupRep computes it once and keeps it,
in real arithmetic for a group it holds real.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sdpmodel import SDPModel, ModelError
# not called here; bench/tracing.py wraps it under this module's name
from .sdpmodel import realify  # noqa: F401
from . import ipm, sdpmodel

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
    (|G|, d, d) stack, each check holding to UNITARY_TOL: float64 when every
    imaginary part is below 1e-12, which decides the group's arithmetic."""

    elements: np.ndarray

    def __post_init__(self):
        mats = [np.asarray(U, dtype=complex) for U in self.elements]
        if not mats:
            raise GroupError("empty representation")
        d = mats[0].shape[0]
        for k, U in enumerate(mats):
            if U.shape != (d, d):
                raise GroupError(f"element {k} is not {d}x{d}")
        E = np.array(mats)
        finite = np.isfinite(E).all(axis=(1, 2))
        if not finite.all():
            raise GroupError(f"element {int(finite.argmin())} has a non-finite entry")
        E = self.elements = E.real.copy() if np.abs(E.imag).max() < 1e-12 else E
        I = np.eye(d)
        unitary = np.linalg.norm(E @ E.conj().swapaxes(1, 2) - I, axis=(1, 2)) <= UNITARY_TOL
        if not unitary.all():
            raise GroupError(f"element {int(unitary.argmin())} is not unitary")
        if not np.any(np.linalg.norm(E - I, axis=(1, 2)) <= UNITARY_TOL):
            raise GroupError("representation does not contain the identity")
        _check_distinct_and_closed(E)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def pieces(self) -> list[tuple[list[np.ndarray], int]]:
        """The isotypic decomposition reduce_sdp uses, computed at first use."""
        return _irreducible_pieces(self, np.random.default_rng(SEED))

    def _step(self) -> int:
        """Elements per chunk of an action: all of them, or as many as fit
        CHUNK entries for one matrix.  It depends only on the group, so a
        matrix gets the same sums alone as inside a stack."""
        return min(len(self), max(1, sdpmodel.CHUNK // self.dim ** 2))

    def _slices(self, M: np.ndarray) -> list[np.ndarray]:
        """A matrix or stack M (..., d, d) as a stack (n, d, d) cut into
        slices whose conjugates by one chunk of elements fit CHUNK entries."""
        M = np.asarray(M).reshape(-1, self.dim, self.dim)
        per = max(1, sdpmodel.CHUNK // (self._step() * self.dim ** 2))
        return [M[m:m + per] for m in range(0, len(M), per)]

    def _conjugates(self, S: np.ndarray):
        """U S U* for a stack S (n, d, d), one chunk of elements U at a time."""
        step = self._step()
        for s in range(0, len(self), step):
            U = self.elements[s:s + step, None]
            yield U @ S @ U.conj().swapaxes(-1, -2)

    def average(self, M: np.ndarray) -> np.ndarray:
        """Reynolds projection onto the commutant, of a matrix or a stack."""
        A = [sum(UMU.sum(axis=0) for UMU in self._conjugates(S)) for S in self._slices(M)]
        return np.concatenate(A).reshape(np.shape(M)) / len(self)

    def invariance_residual(self, M: np.ndarray) -> tuple[float, int]:
        """Largest ||U M U* - M|| over the group and the first element that
        attains it; for a stack (n, d, d), one of each per matrix as arrays."""
        r = np.hstack([np.concatenate([_frobenius(UMU - S) for UMU in self._conjugates(S)])
                       for S in self._slices(M)])
        if np.ndim(M) == 2:
            return float(r.max()), int(r.argmax())
        return r.max(axis=0), r.argmax(axis=0)

    def character(self, Q: np.ndarray) -> np.ndarray:
        """tr(Q* U Q) for every element U: the character of the action on
        the invariant span of the orthonormal columns of Q."""
        return self.elements.reshape(len(self), -1) @ (Q @ Q.conj().T).T.ravel()


def _check_distinct_and_closed(E: np.ndarray) -> None:
    """GroupError unless the unitaries E (|G|, d, d) are distinct and every
    product U_a U_b lies within UNITARY_TOL of an element.

    Each matrix gets the key <r, U> on its real entries (a real group's, or
    the real and imaginary parts) for a fixed unit vector r.  Keys move by at
    most the Frobenius distance, so a product is compared, as squared
    distance, only with the elements whose sorted keys lie in its window:
    O(|G|^2 d^3) of products, a row of a at a time, plus O(|G|^2 log |G|).
    """
    n, d, _ = E.shape
    F = E.reshape(n, -1).view(float)
    r = np.random.default_rng(SEED).standard_normal(F.shape[1])
    r /= np.linalg.norm(r)
    keys = F @ r
    order = np.argsort(keys)
    keys, F = keys[order], F[order]
    # UNITARY_TOL, widened by twice the rounding of a key difference: a key
    # is off by at most m eps ||U||_F (m = F.shape[1], ||U||_F = sqrt(d))
    width = UNITARY_TOL + 4 * F.shape[1] * np.finfo(float).eps * np.sqrt(d)

    # pairs of elements j apart in key order; the first pair i < j that coincides
    first = n * n
    for j in range(1, n):
        near = np.flatnonzero(keys[j:] - keys[:-j] <= width)
        if not near.size:
            break
        D = F[near + j] - F[near]
        near = near[np.einsum("ij,ij->i", D, D) <= UNITARY_TOL ** 2]
        a, b = order[near], order[near + j]
        first = min([first, *(np.minimum(a, b) * n + np.maximum(a, b))])
    if first < n * n:
        raise GroupError("elements {} and {} coincide".format(*divmod(int(first), n)))

    # the products of whole rows a, CHUNK entries at once unless a row needs more
    rows = max(1, sdpmodel.CHUNK // E.size)
    for s in range(0, n, rows):
        P = (E[s:s + rows, None] @ E).reshape(-1, d * d).view(float)
        k = P @ r
        lo = np.searchsorted(keys, k - width, "left")
        hi = np.searchsorted(keys, k + width, "right")
        D = P - F[np.minimum(lo, n - 1)]
        found = (np.einsum("ij,ij->i", D, D) <= UNITARY_TOL ** 2) & (lo < hi)
        for j in range(1, int((hi - lo).max())):
            live = np.flatnonzero(~found & (lo + j < hi))
            D = P[live] - F[lo[live] + j]
            found[live[np.einsum("ij,ij->i", D, D) <= UNITARY_TOL ** 2]] = True
        if not found.all():
            a, b = divmod(int(found.argmin()), n)
            raise GroupError(f"product of elements {s + a} and {b} "
                             "leaves the set; representation is not closed")


def _frobenius(D: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, each summed as
    np.linalg.norm sums one matrix.  g and its inverse have equal residuals
    in exact arithmetic, so the first worst element depends on the rounding;
    this keeps it the same as in a loop over the elements.  As there, real
    data sum their squares alone, complex data the two halves'."""
    v = D.reshape(D.shape[:-2] + (1, -1))
    t = v.swapaxes(-1, -2)
    if np.iscomplexobj(v):
        return np.sqrt((v.real @ t.real + v.imag @ t.imag)[..., 0, 0])
    return np.sqrt((v @ t)[..., 0, 0])


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
    """HS-orthonormal basis of the commutant: the eigenvectors of eigenvalue
    1 of the Reynolds projection, whose matrix on the d^2 matrix units is
    read off from one average of their stack.  Its eigenvalues are 0 or 1,
    so 1/2 separates them; a real group gives a real basis."""
    d = rep.dim
    P = rep.average(np.eye(d * d).reshape(-1, d, d)).reshape(d * d, -1).T
    w, V = np.linalg.eigh((P + P.conj().T) / 2)
    return InvariantBasis(rep, list(V[:, w > 0.5].T.reshape(-1, d, d)))


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
        return rep.average(S @ R @ S.conj().T)

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
    `real_blocks` blocks of `model` are real, the rest Hermitian, each of
    the size m_i of its basis.
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
        """Reduced block sizes with their kind, e.g. '2 real, 2 Hermitian'."""
        sizes = [P.shape[1] for P in self.bases]
        return ", ".join([f"{m} real" for m in sizes[:self.real_blocks]]
                         + [f"{m} Hermitian" for m in sizes[self.real_blocks:]])

    def expand(self, sol: ipm.Solution) -> np.ndarray:
        """Optimal matrix of the original SDP from a reduced solution.

        The real part is returned: the original data is real, so the real
        part of a Hermitian feasible point is feasible with equal value.
        """
        X = _lift(self.rep, self.bases, [w * X for w, X in zip(self.weights, sol.X)])
        return (X + X.T) / 2


def _irreducible_pieces(rep: GroupRep, rng: np.random.Generator) -> list[tuple[list[np.ndarray], int]]:
    """(aligned copies, count) per reduced block; count 2 marks a block that
    also stands for its complex-conjugate class."""
    I = np.eye(rep.dim)
    if np.iscomplexobj(rep.elements):
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
    if len(model.blocks) != 1 or model.blocks[0].diagonal:
        raise ModelError("symmetry reduction expects a single dense block")
    d = model.blocks[0].size
    if rep.dim != d:
        raise ModelError(
            f"representation dimension {rep.dim} does not match block size {d}")

    # the objective, then every constraint, as one stack
    (data,) = model.stacks()
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
    out = SDPModel.from_stacks(reduced, list(zip(model.senses, model.rhs.tolist())))
    return ReducedSDP(
        original=model, rep=rep, bases=bases, weights=weights,
        real_blocks=n_real, model=out, commutant_dim=commutant_dim)


_GROUP_TOKEN = re.compile(r"[^\s,]+")


def _parse_entry(tok: str, line_no: int) -> complex:
    t = tok[:-1] + "j" if tok[-1] in "iI" else tok     # 0.5+0.5i; inf stays inf
    try:
        z = complex(t)
    except ValueError:
        raise GroupError(f"line {line_no}: bad matrix entry {tok!r}") from None
    if not np.isfinite(z):
        raise GroupError(f"line {line_no}: matrix entry {tok!r} is not finite")
    return z


def parse_group_file(path: str) -> GroupRep:
    """Representation file: a 'dim N' line, then 'element' stanzas each
    followed by N rows of N entries (complex entries like 0.5+0.5i work)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dim = None
    elements: list[np.ndarray] = []
    current: list[list[complex]] | None = None     # rows of the open stanza

    def flush(line_no):
        nonlocal current
        if current is not None:
            if len(current) != dim:
                raise GroupError(
                    f"line {line_no}: element has {len(current)} rows, expected {dim}")
            elements.append(np.array(current, dtype=complex))
            current = None

    for no, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#") or s.startswith("*"):
            continue
        low = s.lower()
        if low.split()[0] == "dim":
            if dim is not None:
                raise GroupError(f"line {no}: duplicate dim line")
            try:
                _, dim = s.split()
                dim = int(dim)
            except ValueError:
                raise GroupError(f"line {no}: malformed dim line") from None
            if dim < 1:
                raise GroupError(f"line {no}: dim {dim} is below 1")
            continue
        if low == "element":
            if dim is None:
                raise GroupError(f"line {no}: element before dim")
            flush(no)
            current = []
            continue
        if dim is None:
            raise GroupError(f"line {no}: expected 'dim N' first")
        row = [_parse_entry(t, no) for t in _GROUP_TOKEN.findall(s)]
        if len(row) != dim:
            raise GroupError(f"line {no}: row has {len(row)} entries, expected {dim}")
        if current is None:         # rows before the first 'element' open one
            current = []
        current.append(row)
    flush(len(lines))
    if not elements:
        raise GroupError("no group elements in file")
    return GroupRep(elements)
