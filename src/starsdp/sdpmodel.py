"""Block SDP containers, Hermitian-to-real conversion and SDPA sparse io.

A model is the trace form

    minimize   sum_b <C_b, X_b>
    subject to sum_b <A_kb, X_b>  (<=|>=|==)  b_k,   X_b psd,

with real symmetric coefficient matrices throughout.  Hermitian data enters
through HermitianModel and is doubled into real blocks by realify.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "=="
# Largest asymmetry (or off-diagonal entry of a diagonal block) validate accepts.
VALIDATE_TOL = 1e-10


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
        for b, (blk, C) in enumerate(zip(self.blocks, self.cost)):
            _check_sym(C, blk, f"cost block {b}")
        for k, con in enumerate(self.constraints):
            if con.sense not in (SENSE_LE, SENSE_GE, SENSE_EQ):
                raise ModelError(f"constraint {k}: bad sense {con.sense!r}")
            if len(con.matrices) != len(self.blocks):
                raise ModelError(f"constraint {k}: matrix count mismatch")
            for b, (blk, A) in enumerate(zip(self.blocks, con.matrices)):
                _check_sym(A, blk, f"constraint {k} block {b}")

    def is_equality_only(self) -> bool:
        return all(c.sense == SENSE_EQ for c in self.constraints)

    def copy(self) -> "SDPModel":
        return SDPModel(
            list(self.blocks),
            [C.copy() for C in self.cost],
            [LinearConstraint([A.copy() for A in c.matrices], c.sense, c.rhs)
             for c in self.constraints],
        )


def _check_sym(M: np.ndarray, blk: Block, where: str) -> None:
    if M.shape != (blk.size, blk.size):
        raise ModelError(f"{where}: shape {M.shape} does not match block size {blk.size}")
    if np.iscomplexobj(M):
        raise ModelError(f"{where}: complex entries in a real model")
    if np.max(np.abs(M - M.T), initial=0.0) > VALIDATE_TOL:
        raise ModelError(f"{where}: matrix is not symmetric")
    if blk.diagonal and np.max(np.abs(M - np.diag(np.diag(M))), initial=0.0) > VALIDATE_TOL:
        raise ModelError(f"{where}: off-diagonal entries in a diagonal block")


def to_equality_form(model: SDPModel) -> SDPModel:
    """Convert inequalities to equalities with one shared diagonal slack block."""
    idx = [k for k, c in enumerate(model.constraints) if c.sense != SENSE_EQ]
    if not idx:
        return model.copy()
    ns = len(idx)
    blocks = list(model.blocks) + [Block(ns, diagonal=True)]
    cost = [C.copy() for C in model.cost] + [np.zeros((ns, ns))]
    constraints = []
    for k, con in enumerate(model.constraints):
        mats = [A.copy() for A in con.matrices]
        S = np.zeros((ns, ns))
        if con.sense != SENSE_EQ:
            j = idx.index(k)
            S[j, j] = 1.0 if con.sense == SENSE_LE else -1.0
        constraints.append(LinearConstraint(mats + [S], SENSE_EQ, con.rhs))
    return SDPModel(blocks, cost, constraints)


@dataclass
class HermitianModel:
    """Same trace form with complex Hermitian blocks; realify before solving."""

    sizes: list[int]
    cost: list[np.ndarray]
    constraints: list[LinearConstraint]

    def validate(self) -> None:
        for b, (n, C) in enumerate(zip(self.sizes, self.cost)):
            _check_herm(C, n, f"cost block {b}")
        for k, con in enumerate(self.constraints):
            for b, (n, A) in enumerate(zip(self.sizes, con.matrices)):
                _check_herm(A, n, f"constraint {k} block {b}")


def _check_herm(M: np.ndarray, n: int, where: str) -> None:
    if M.shape != (n, n):
        raise ModelError(f"{where}: shape {M.shape} does not match block size {n}")
    if np.max(np.abs(M - M.conj().T), initial=0.0) > VALIDATE_TOL:
        raise ModelError(f"{where}: matrix is not Hermitian")


def realify_matrix(A: np.ndarray) -> np.ndarray:
    """[[Re, -Im], [Im, Re]]; for Hermitian input the result is symmetric with
    each eigenvalue doubled in multiplicity."""
    R, I = np.real(A), np.imag(A)
    return np.block([[R, -I], [I, R]])


def unrealify_matrix(Y: np.ndarray) -> np.ndarray:
    """Hermitian matrix whose realify_matrix image is nearest to Y."""
    n = Y.shape[0] // 2
    return (Y[:n, :n] + Y[n:, n:]) / 2 + 1j * (Y[n:, :n] - Y[:n, n:]) / 2


def realify(hm: HermitianModel) -> SDPModel:
    """Double every Hermitian block into its real symmetric image.

    Variable blocks double in size; coefficient matrices are doubled and
    halved so that every trace value, hence the optimum, is preserved.
    """
    hm.validate()
    blocks = [Block(2 * n) for n in hm.sizes]
    cost = [realify_matrix(C) * 0.5 for C in hm.cost]
    constraints = [
        LinearConstraint([realify_matrix(A) * 0.5 for A in con.matrices], con.sense, con.rhs)
        for con in hm.constraints
    ]
    return SDPModel(blocks, cost, constraints)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export_sdpa(model: SDPModel) -> str:
    """Serialize to sparse SDPA (.dat-s) text.

    Requires an equality-only model.  Line order: constraint count, block
    count, block sizes (negative marks a diagonal block), right-hand sides,
    then `matno blkno i j value` entries with matno 0 for the cost and only
    the upper triangle stored, 1-based indices.
    """
    model.validate()
    if not model.is_equality_only():
        raise ModelError("export requires an equality-only model; apply to_equality_form first")
    m = len(model.constraints)
    lines = [str(m), str(len(model.blocks))]
    lines.append(" ".join(str(-b.size if b.diagonal else b.size) for b in model.blocks))
    lines.append(" ".join(_fmt(c.rhs) for c in model.constraints) if m else "")
    def emit(matno, mats):
        for bno, A in enumerate(mats, start=1):
            n = A.shape[0]
            for i in range(n):
                for j in range(i, n):
                    v = A[i, j]
                    if v != 0.0:
                        lines.append(f"{matno} {bno} {i + 1} {j + 1} {_fmt(v)}")
    emit(0, model.cost)
    for k, con in enumerate(model.constraints, start=1):
        emit(k, con.matrices)
    return "\n".join(lines) + "\n"


def export_sdpa_file(model: SDPModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_sdpa(model))


def _clean_numbers(line: str) -> list[str]:
    return line.replace(",", " ").replace("{", " ").replace("}", " ").replace("(", " ").replace(")", " ").split()


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
            vals = [int(float(t)) for t in toks]
        except ValueError:
            raise SDPAFormatError(f"expected integers, got {s!r}", no) from None
        if expect is not None and len(vals) != expect:
            raise SDPAFormatError(f"expected {expect} integers, got {len(vals)}", no)
        return vals

    (m,) = ints(rows[0], 1)
    (nblocks,) = ints(rows[1], 1)
    sizes = ints(rows[2], nblocks)
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
        entry_rows = rows[4:]
    else:
        rhs = []
        entry_rows = rows[3:]

    cost = [np.zeros((b.size, b.size)) for b in blocks]
    cons = [
        LinearConstraint([np.zeros((b.size, b.size)) for b in blocks], SENSE_EQ, rhs[k])
        for k in range(m)
    ]
    for no, s in entry_rows:
        toks = _clean_numbers(s)
        if len(toks) != 5:
            raise SDPAFormatError(f"entry needs 5 fields, got {len(toks)}", no)
        try:
            matno, bno, i, j = (int(float(t)) for t in toks[:4])
            val = float(toks[4])
        except ValueError:
            raise SDPAFormatError(f"bad entry {s!r}", no) from None
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
        target = cost[bno - 1] if matno == 0 else cons[matno - 1].matrices[bno - 1]
        target[i - 1, j - 1] = val
        target[j - 1, i - 1] = val
    return SDPModel(blocks, cost, cons)


def import_sdpa_file(path: str) -> SDPModel:
    with open(path, "r", encoding="utf-8") as fh:
        return import_sdpa(fh.read())
