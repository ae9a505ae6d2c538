"""Block SDP containers, Hermitian-to-real conversion and SDPA sparse io.

A model is the trace form

    minimize   sum_b <C_b, X_b>
    subject to sum_b <A_kb, X_b>  (<=|>=|==)  b_k,   X_b psd,

where <A, X> = Re tr(A* X).  A block whose data are real is real
symmetric, and one whose data are complex is Hermitian, with X_b Hermitian
psd of the same size.  A model is its data, one read-only stack per block:
the cost, then each row's matrix, checked once, when the model is made,
and made exactly Hermitian in the pass that checks them.  The solver and
every other reader use the model's own stacks without a copy.  Only the
SDPA export, a real format, doubles a Hermitian block into its real image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "=="
SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)
# Largest asymmetry (or off-diagonal entry of a diagonal block) a model accepts.
VALIDATE_TOL = 1e-10
# Entries one step of a pass over a stack reads or forms (here, and in the group
# actions and closure check of symmetry), so its temporaries stay small and
# page-fault-free: at 2**14 or 2**15 the group actions page-fault.
CHUNK = 2 ** 13


class ModelError(ValueError):
    pass


class SDPAFormatError(ValueError):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class Block:
    size: int
    diagonal: bool = False


@dataclass(frozen=True)
class LinearConstraint:
    matrices: list[np.ndarray]
    sense: str
    rhs: float


class SDPModel:
    """A checked block SDP: per block one read-only, exactly Hermitian
    (1 + m, n, n) stack, the cost and then each row's matrix, of which
    `cost` and the constraints' `matrices` are views."""

    def __init__(self, blocks: list[Block], cost: list[np.ndarray],
                 constraints: list[LinearConstraint]):
        """Stacks the matrices into new arrays: the caller's are never written."""
        _check(blocks, cost, constraints)
        self._take([np.array([C] + [con.matrices[b] for con in constraints])
                    for b, C in enumerate(cost)],
                   [(con.sense, con.rhs) for con in constraints], blocks)

    @classmethod
    def from_stacks(cls, stacks: list[np.ndarray], rows: list[tuple[str, float]],
                    blocks: list[Block] | None = None) -> "SDPModel":
        """Block b's cost is stacks[b][0] and its part of row k is
        stacks[b][k], with rows[k - 1] = (sense, rhs).  The blocks default
        to dense ones sized by the stacks; pass them to mark a diagonal one.
        The model takes the arrays over, converted only to contiguous float
        or complex, and makes them read-only."""
        for b, A in enumerate(stacks):
            if A.shape != (1 + len(rows),) + A.shape[-1:] * 2:
                raise ModelError(f"block {b}: stack shape {A.shape} is not "
                                 f"({1 + len(rows)}, n, n)")
        model = cls.__new__(cls)
        model._take(stacks, rows, [Block(A.shape[-1]) for A in stacks]
                    if blocks is None else blocks)
        return model

    def _take(self, stacks: list[np.ndarray], rows: list[tuple[str, float]],
              blocks: list[Block]) -> None:
        self._stacks = [np.ascontiguousarray(A, dtype=complex if np.iscomplexobj(A) else float)
                        for A in stacks]
        self.blocks, self.cost = list(blocks), [A[0] for A in self._stacks]
        self.constraints = [LinearConstraint([A[k] for A in self._stacks], sense, rhs)
                            for k, (sense, rhs) in enumerate(rows, start=1)]
        _check(self.blocks, self.cost, self.constraints)
        _hermitize(self._stacks, self.blocks)
        for A in self._stacks + self.cost + [M for c in self.constraints for M in c.matrices]:
            A.flags.writeable = False

    def is_equality_only(self) -> bool:
        return all(c.sense == SENSE_EQ for c in self.constraints)

    def stacks(self) -> list[np.ndarray]:
        """Per block, the cost followed by every row's matrix: the model's
        own arrays, in a new list."""
        return list(self._stacks)


def _check(blocks: list[Block], cost: list[np.ndarray],
           constraints: list[LinearConstraint]) -> None:
    """Counts, senses, right-hand sides and shapes, row by row, so that a
    fault among them is named before any matrix's (_hermitize)."""
    if len(cost) != len(blocks):
        raise ModelError("cost matrix count does not match block count")
    _check_shapes(cost, blocks, "cost")
    for k, con in enumerate(constraints):
        if con.sense not in SENSES:
            raise ModelError(f"constraint {k}: bad sense {con.sense!r}")
        if not math.isfinite(con.rhs):
            raise ModelError(f"constraint {k}: right-hand side {con.rhs} is not finite")
        if len(con.matrices) != len(blocks):
            raise ModelError(f"constraint {k}: matrix count mismatch")
        _check_shapes(con.matrices, blocks, f"constraint {k}")


def _check_shapes(matrices: list[np.ndarray], blocks: list[Block], where: str) -> None:
    for b, (M, blk) in enumerate(zip(matrices, blocks)):
        if M.shape != (blk.size, blk.size):
            raise ModelError(f"{where} block {b}: shape {M.shape} does not match "
                             f"block size {blk.size}")


def _hermitize(stacks: list[np.ndarray], blocks: list[Block]) -> None:
    """Make every matrix exactly Hermitian, (M + M*) / 2, or 0.5 M + 0.5 M*
    where M + M* overflows, in place, in one pass per stack by chunks, each
    checked first; ModelError names the first matrix in model order (the
    costs, then row by row) that is not Hermitian within VALIDATE_TOL, not
    diagonal in a diagonal block, or not finite.  A NaN or infinite entry
    makes its entry of M - M* NaN or infinite, so the symmetry test catches
    it at no extra cost.  A model's read-only stacks pass unwritten."""
    faults = []
    for b, (S, blk) in enumerate(zip(stacks, blocks)):
        n = S.shape[-1]
        step = max(1, CHUNK // max(n * n, 1))
        for k in range(0, len(S), step):
            P = S[k:k + step]
            D = np.conj(P.swapaxes(-1, -2))
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, max + max
                asym = np.abs(P - D).max(axis=(-2, -1), initial=0.0)
                H = (P + D) * 0.5
            bad = ~(asym <= VALIDATE_TOL)
            if blk.diagonal:
                off = np.abs(P[:, ~np.eye(n, dtype=bool)]).max(axis=-1, initial=0.0)
                bad |= off > VALIDATE_TOL
            if bad.any():
                j, kind = int(bad.argmax()), "Hermitian" if np.iscomplexobj(S) else "symmetric"
                faults.append((k + j, b, "matrix has a non-finite entry"
                               if not np.isfinite(P[j]).all() else f"matrix is not {kind}"
                               if not asym[j] <= VALIDATE_TOL else
                               "off-diagonal entries in a diagonal block"))
                break
            if not np.isfinite(H).all():            # M + M* overflowed: halve first
                H = 0.5 * P + 0.5 * D
            if S.flags.writeable or not np.array_equal(P, H):
                P[...] = H
    if faults:
        k, b, fault = min(faults)
        raise ModelError(f"{'cost' if k == 0 else f'constraint {k - 1}'} block {b}: {fault}")


def to_equality_form(model: SDPModel) -> SDPModel:
    """Convert inequalities to equalities with one shared diagonal slack block."""
    stacks, blocks = model.stacks(), list(model.blocks)
    ineq = [k for k, c in enumerate(model.constraints) if c.sense != SENSE_EQ]
    if ineq:
        j = np.arange(len(ineq))
        S = np.zeros((1 + len(model.constraints), len(ineq), len(ineq)))
        S[[1 + k for k in ineq], j, j] = [1.0 if model.constraints[k].sense == SENSE_LE else -1.0
                                          for k in ineq]
        stacks.append(S)
        blocks.append(Block(len(ineq), diagonal=True))
    return SDPModel.from_stacks(stacks, [(SENSE_EQ, c.rhs) for c in model.constraints], blocks)


def realify_matrix(A: np.ndarray) -> np.ndarray:
    """[[Re, -Im], [Im, Re]], of a matrix or over the last two axes of a
    stack; for Hermitian input the result is symmetric with each eigenvalue
    doubled in multiplicity."""
    R, I = np.real(A), np.imag(A)
    return np.block([[R, -I], [I, R]])


def realify(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """The halved real images of per-block stacks of Hermitian matrices,
    checked as a model's stacks are, on a copy: the input is not written.

    Blocks double in size and the images are halved, so that every trace
    value, hence the optimum of a model built from them, is preserved.
    """
    rows = [(SENSE_EQ, 0.0)] * (len(stacks[0]) - 1 if stacks else 0)
    checked = SDPModel.from_stacks([np.array(A) for A in stacks], rows).stacks()
    return [realify_matrix(A) * 0.5 for A in checked]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export_sdpa(model: SDPModel) -> str:
    """Serialize to sparse SDPA (.dat-s) text.

    Requires an equality-only model.  SDPA is a real format, so a Hermitian
    block is written as its realify image, twice its size.  Line order:
    constraint count, block count, block sizes (negative marks a diagonal
    block), right-hand sides, then `matno blkno i j value` entries with
    matno 0 for the cost and only the upper triangle stored, 1-based indices.
    """
    if not model.is_equality_only():
        raise ModelError("export requires an equality-only model; apply to_equality_form first")
    # the model has checked every matrix: take the image without realify's copy
    stacks = [realify_matrix(S) * 0.5 if np.iscomplexobj(S) else S for S in model.stacks()]
    m = len(model.constraints)
    lines = [str(m), str(len(stacks))]
    lines.append(" ".join(str(-S.shape[-1] if b.diagonal else S.shape[-1])
                          for b, S in zip(model.blocks, stacks)))
    lines.append(" ".join(_fmt(c.rhs) for c in model.constraints) if m else "")
    for matno in range(1 + m):
        for bno, S in enumerate(stacks, start=1):
            A = S[matno]
            lines += (f"{matno} {bno} {i + 1} {j + 1} {_fmt(A[i, j])}"
                      for i, j in zip(*np.nonzero(np.triu(A))))
    return "\n".join(lines) + "\n"


def export_sdpa_file(model: SDPModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_sdpa(model))


def _clean_numbers(line: str) -> list[str]:
    return line.replace(",", " ").replace("{", " ").replace("}", " ").replace("(", " ").replace(")", " ").split()


def _int(tok: str) -> int:
    """An integer field, also when spelled as an integral float (2.0)."""
    x = float(tok)
    if not x.is_integer():
        raise ValueError(tok)
    return int(x)


def import_sdpa(text: str) -> SDPModel:
    """Parse sparse SDPA text back into a model (all constraints equalities).

    Tolerates comment lines starting with * or " and brace or comma
    punctuation inside the header vectors.
    """
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("*") or s.startswith('"'):
            continue
        rows.append((no, s))
    if len(rows) < 3:
        raise SDPAFormatError("file too short", rows[-1][0] if rows else 0)

    def ints(row, expect=None):
        no, s = row
        toks = _clean_numbers(s)
        try:
            vals = [_int(t) for t in toks]
        except ValueError:
            raise SDPAFormatError(f"expected integers, got {s!r}", no) from None
        if expect is not None and len(vals) != expect:
            raise SDPAFormatError(f"expected {expect} integers, got {len(vals)}", no)
        return vals

    (m,) = ints(rows[0], 1)
    if m < 0:
        raise SDPAFormatError(f"negative constraint count {m}", rows[0][0])
    (nblocks,) = ints(rows[1], 1)
    if nblocks < 1:
        raise SDPAFormatError(f"block count {nblocks} is below 1", rows[1][0])
    sizes = ints(rows[2], nblocks)
    if 0 in sizes:
        raise SDPAFormatError(f"block {sizes.index(0) + 1} has size 0", rows[2][0])
    blocks = [Block(abs(s), diagonal=s < 0) for s in sizes]
    if m > 0:
        if len(rows) < 4:
            raise SDPAFormatError("missing right-hand side line", rows[-1][0])
        no, s = rows[3]
        toks = _clean_numbers(s)
        if len(toks) != m:
            raise SDPAFormatError(f"expected {m} right-hand sides, got {len(toks)}", no)
        try:
            rhs = [float(t) for t in toks]
        except ValueError:
            raise SDPAFormatError(f"bad right-hand side in {s!r}", no) from None
        for t, r in zip(toks, rhs):
            if not math.isfinite(r):
                raise SDPAFormatError(f"right-hand side {t!r} is not finite", no)
        entry_rows = rows[4:]
    else:
        rhs = []
        entry_rows = rows[3:]

    stacks = [np.zeros((1 + m, b.size, b.size)) for b in blocks]
    for no, s in entry_rows:
        toks = _clean_numbers(s)
        if len(toks) != 5:
            raise SDPAFormatError(f"entry needs 5 fields, got {len(toks)}", no)
        try:
            matno, bno, i, j = (_int(t) for t in toks[:4])
            val = float(toks[4])
        except ValueError:
            raise SDPAFormatError(f"bad entry {s!r}", no) from None
        if not math.isfinite(val):
            raise SDPAFormatError(f"entry value {toks[4]!r} is not finite", no)
        if not (0 <= matno <= m):
            raise SDPAFormatError(f"matrix number {matno} out of range", no)
        if not (1 <= bno <= nblocks):
            raise SDPAFormatError(f"block number {bno} out of range", no)
        n = blocks[bno - 1].size
        if not (1 <= i <= n and 1 <= j <= n):
            raise SDPAFormatError(f"index ({i},{j}) outside block of size {n}", no)
        if blocks[bno - 1].diagonal and i != j:
            raise SDPAFormatError(
                f"off-diagonal entry ({i},{j}) in diagonal block {bno}", no)
        target = stacks[bno - 1][matno]
        target[i - 1, j - 1] = val
        target[j - 1, i - 1] = val
    return SDPModel.from_stacks(stacks, [(SENSE_EQ, r) for r in rhs], blocks)


def import_sdpa_file(path: str) -> SDPModel:
    with open(path, "r", encoding="utf-8") as fh:
        return import_sdpa(fh.read())
