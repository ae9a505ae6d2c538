"""Block SDP containers, Hermitian-to-real conversion and SDPA sparse io.

A model is the trace form

    minimize   sum_b <C_b, X_b>
    subject to sum_b <A_kb, X_b>  (<=|>=|==)  b_k,   X_b psd,

where <A, X> = Re tr(A* X).  A block whose data are real is real
symmetric, and one whose data are complex is Hermitian, with X_b Hermitian
psd of the same size.  A model is built from, and read back as, one stack
per block: the cost, then each row's matrix; every reader of the matrices
goes through `stacks()`, which validates first.  Only the SDPA export, a
real format, doubles a Hermitian block into its real image (realify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "=="
SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)
# Largest asymmetry (or off-diagonal entry of a diagonal block) validate accepts.
VALIDATE_TOL = 1e-10
# Entries of a stack one step of a pass over the whole stack reads, so that
# its temporaries stay small next to the stack.
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


@dataclass
class LinearConstraint:
    matrices: list[np.ndarray]
    sense: str
    rhs: float


@dataclass
class SDPModel:
    blocks: list[Block]
    cost: list[np.ndarray]
    constraints: list[LinearConstraint]

    def validate(self) -> None:
        if len(self.cost) != len(self.blocks):
            raise ModelError("cost matrix count does not match block count")
        with np.errstate(invalid="ignore"):     # inf - inf in _check_sym
            for b, (blk, C) in enumerate(zip(self.blocks, self.cost)):
                _check_sym(C, blk, f"cost block {b}")
            for k, con in enumerate(self.constraints):
                if con.sense not in SENSES:
                    raise ModelError(f"constraint {k}: bad sense {con.sense!r}")
                if not math.isfinite(con.rhs):
                    raise ModelError(f"constraint {k}: right-hand side {con.rhs} is not finite")
                if len(con.matrices) != len(self.blocks):
                    raise ModelError(f"constraint {k}: matrix count mismatch")
                for b, (blk, A) in enumerate(zip(self.blocks, con.matrices)):
                    _check_sym(A, blk, f"constraint {k} block {b}")

    def is_equality_only(self) -> bool:
        return all(c.sense == SENSE_EQ for c in self.constraints)

    @classmethod
    def from_stacks(cls, stacks: list[np.ndarray], rows: list[tuple[str, float]],
                    blocks: list[Block] | None = None) -> "SDPModel":
        """Block b's cost is stacks[b][0] and its part of row k is
        stacks[b][k], with rows[k - 1] = (sense, rhs).  The blocks default
        to dense ones sized by the stacks; pass them to mark a diagonal one."""
        if blocks is None:
            blocks = [Block(A.shape[-1]) for A in stacks]
        return cls(list(blocks), [A[0] for A in stacks],
                   [LinearConstraint([A[k] for A in stacks], sense, rhs)
                    for k, (sense, rhs) in enumerate(rows, start=1)])

    def stacks(self) -> list[np.ndarray]:
        """Per block, the cost followed by every row's matrix, as one new
        array, for a model that passes validate: counts, shapes, senses and
        right-hand sides are checked before any array is built, symmetry
        and finiteness once per stack after.  A model failing either goes
        to validate, which names its first fault."""
        shapes = [(blk.size, blk.size) for blk in self.blocks]
        if not ([C.shape for C in self.cost] == shapes
                and all(con.sense in SENSES and math.isfinite(con.rhs)
                        and [A.shape for A in con.matrices] == shapes
                        for con in self.constraints)):
            self.validate()
        S = [np.array([C] + [con.matrices[b] for con in self.constraints])
             for b, C in enumerate(self.cost)]
        with np.errstate(invalid="ignore"):
            if any(_fault(P, blk) for Sb, blk in zip(S, self.blocks) for P in chunks(Sb)):
                self.validate()
        return S


def chunks(S: np.ndarray):
    """Consecutive slices of a stack along its first axis, of at most CHUNK
    entries or one entry of that axis."""
    step = max(1, CHUNK // math.prod(S.shape[1:]))
    return (S[k:k + step] for k in range(0, len(S), step))


def _check_sym(M: np.ndarray, blk: Block, where: str) -> None:
    """Shape, symmetry and finiteness of one matrix; call under
    np.errstate(invalid="ignore")."""
    if M.shape != (blk.size, blk.size):
        raise ModelError(f"{where}: shape {M.shape} does not match block size {blk.size}")
    fault = _fault(M, blk)
    if fault:
        raise ModelError(f"{where}: {fault}")


def _fault(M: np.ndarray, blk: Block) -> str:
    """Why a matrix, or some matrix of a stack, is not Hermitian (and
    diagonal in a diagonal block) within VALIDATE_TOL; "" when none is.  A
    NaN or infinite entry makes its entry of M - M* NaN or infinite, so the
    symmetry test catches it at no extra cost."""
    D = np.conj(M.swapaxes(-1, -2))
    if not np.max(np.abs(np.subtract(M, D, out=D)), initial=0.0) <= VALIDATE_TOL:
        if not np.isfinite(M).all():
            return "matrix has a non-finite entry"
        return f"matrix is not {'Hermitian' if np.iscomplexobj(M) else 'symmetric'}"
    if blk.diagonal and np.max(np.abs(M[..., ~np.eye(blk.size, dtype=bool)]),
                               initial=0.0) > VALIDATE_TOL:
        return "off-diagonal entries in a diagonal block"
    return ""


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
    """The halved real images of per-block stacks of Hermitian matrices.

    Blocks double in size and the images are halved, so that every trace
    value, hence the optimum of a model built from them, is preserved.
    """
    with np.errstate(invalid="ignore"):
        for b, A in enumerate(stacks):
            for k, M in enumerate(A):
                _check_sym(M, Block(A.shape[-1]), f"constraint {k - 1} block {b}" if k
                           else f"cost block {b}")
    return [realify_matrix(A) * 0.5 for A in stacks]


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
    stacks = model.stacks()
    if not model.is_equality_only():
        raise ModelError("export requires an equality-only model; apply to_equality_form first")
    # stacks() has validated every matrix: take the image without realify's check
    stacks = [realify_matrix(S) * 0.5 if np.iscomplexobj(S) else S for S in stacks]
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
