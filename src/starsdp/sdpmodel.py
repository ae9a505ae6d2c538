"""Block SDP containers, Hermitian-to-real conversion and SDPA sparse io.

A model is the trace form

    minimize   sum_b <C_b, X_b>
    subject to sum_b <A_kb, X_b>  (<=|>=|==)  b_k,   X_b psd,

where <A, X> = Re tr(A* X).  A block whose data are real is real
symmetric, and one whose data are complex is Hermitian, with X_b Hermitian
psd of the same size; a slack, or an entry of an SDPA diagonal block, is
a 1x1 block of its own.  A model is its data, one read-only stack per
block: the cost, then each row's matrix, checked once, when the model is
made, and made exactly Hermitian in the pass that checks them.  The solver
and every other reader use the model's own stacks without a copy.  Only the
SDPA export, a real format, doubles a Hermitian block into its real image.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "=="
SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)
# Largest asymmetry a model accepts.
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


@dataclass(frozen=True)
class LinearConstraint:
    matrices: list[np.ndarray]
    sense: str
    rhs: float


class SDPModel:
    """A checked block SDP: per block one read-only, exactly Hermitian
    (1 + m, n, n) stack, the cost and then each row's matrix, of which
    `cost` is a view; the rows' senses as a tuple and their right-hand
    sides as one read-only float array, `rhs`."""

    def __init__(self, blocks: list[Block], cost: list[np.ndarray],
                 constraints: list[LinearConstraint]):
        """Checks the counts and shapes, row by row, then stacks the
        matrices into new arrays: the caller's are never written."""
        if len(cost) != len(blocks):
            raise ModelError("cost matrix count does not match block count")
        _check_shapes(cost, blocks, "cost")
        for k, con in enumerate(constraints):
            if len(con.matrices) != len(blocks):
                raise ModelError(f"constraint {k}: matrix count mismatch")
            _check_shapes(con.matrices, blocks, f"constraint {k}")
        self._take([np.array([C] + [con.matrices[b] for con in constraints])
                    for b, C in enumerate(cost)],
                   [(con.sense, con.rhs) for con in constraints])

    @classmethod
    def from_stacks(cls, stacks: list[np.ndarray], rows: list[tuple[str, float]]) -> "SDPModel":
        """Block b's cost is stacks[b][0] and its part of row k is
        stacks[b][k], with rows[k - 1] = (sense, rhs); each block's size is
        its stack's.  The model takes the arrays over, converted only to
        contiguous float or complex, and makes them read-only."""
        model = cls.__new__(cls)
        model._take(stacks, rows)
        return model

    def _take(self, stacks: list[np.ndarray], rows: list[tuple[str, float]]) -> None:
        """Both constructors' check: the stacks' shapes, the first row with a
        bad sense or a right-hand side that is not finite, then _hermitize."""
        self._stacks = [np.ascontiguousarray(A, dtype=complex if np.iscomplexobj(A) else float)
                        for A in stacks]
        for b, A in enumerate(self._stacks):
            if A.shape != (1 + len(rows),) + A.shape[-1:] * 2:
                raise ModelError(f"block {b}: stack shape {A.shape} is not "
                                 f"({1 + len(rows)}, n, n)")
        self.blocks = [Block(A.shape[-1]) for A in self._stacks]
        self.senses = tuple(sense for sense, _ in rows)
        self.rhs = np.array([rhs for _, rhs in rows], dtype=float)
        if not (set(self.senses) <= set(SENSES) and np.isfinite(self.rhs).all()):
            for k, (sense, rhs) in enumerate(zip(self.senses, self.rhs)):
                if sense not in SENSES:
                    raise ModelError(f"constraint {k}: bad sense {sense!r}")
                if not math.isfinite(rhs):
                    raise ModelError(f"constraint {k}: right-hand side {rhs} is not finite")
        _hermitize(self._stacks)
        for A in self._stacks + [self.rhs]:
            A.flags.writeable = False
        self.cost = [A[0] for A in self._stacks]

    @functools.cached_property
    def constraints(self) -> list[LinearConstraint]:
        """The rows as constraints, made on first access: their matrices are
        read-only views of the stacks."""
        return [LinearConstraint([A[k] for A in self._stacks], sense, rhs)
                for k, (sense, rhs) in enumerate(zip(self.senses, self.rhs.tolist()), start=1)]

    def is_equality_only(self) -> bool:
        return all(sense == SENSE_EQ for sense in self.senses)

    def stacks(self) -> list[np.ndarray]:
        """Per block, the cost followed by every row's matrix: the model's
        own arrays, in a new list."""
        return list(self._stacks)


def _check_shapes(matrices: list[np.ndarray], blocks: list[Block], where: str) -> None:
    for b, (M, blk) in enumerate(zip(matrices, blocks)):
        if M.shape != (blk.size, blk.size):
            raise ModelError(f"{where} block {b}: shape {M.shape} does not match "
                             f"block size {blk.size}")


def _hermitize(stacks: list[np.ndarray]) -> None:
    """Make every matrix exactly Hermitian, (M + M*) / 2, or 0.5 M + 0.5 M*
    where M + M* overflows, in place, in one pass per stack by chunks, each
    checked first; ModelError names the first matrix in model order (the
    costs, then row by row) that is not Hermitian within VALIDATE_TOL or
    not finite.  A NaN or infinite entry makes its entry of M - M* NaN or
    infinite, so the symmetry test catches it at no extra cost.  A chunk
    that is already exactly Hermitian and finite, as a relaxation writes
    its stacks and as a model's read-only stacks are, passes after those
    two tests, unwritten."""
    faults = []
    for b, S in enumerate(stacks):
        n = S.shape[-1]
        step = max(1, CHUNK // max(n * n, 1))
        for k in range(0, len(S), step):
            P = S[k:k + step]
            D = np.conj(P.swapaxes(-1, -2))
            if (P == D).all() and np.isfinite(P).all():
                continue
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, max + max
                asym = np.abs(P - D).max(axis=(-2, -1), initial=0.0)
                H = (P + D) * 0.5
            bad = ~(asym <= VALIDATE_TOL)
            if bad.any():
                j, kind = int(bad.argmax()), "Hermitian" if np.iscomplexobj(S) else "symmetric"
                faults.append((k + j, b, "matrix has a non-finite entry"
                               if not np.isfinite(P[j]).all() else f"matrix is not {kind}"))
                break
            if not np.isfinite(H).all():            # M + M* overflowed: halve first
                H = 0.5 * P + 0.5 * D
            if S.flags.writeable or not np.array_equal(P, H):
                P[...] = H
    if faults:
        k, b, fault = min(faults)
        raise ModelError(f"{'cost' if k == 0 else f'constraint {k - 1}'} block {b}: {fault}")


def to_equality_form(model: SDPModel) -> SDPModel:
    """Convert inequalities to equalities with one 1x1 slack block per
    inequality row, in row order, after the model's blocks."""
    ineq = [k for k, sense in enumerate(model.senses) if sense != SENSE_EQ]
    S = np.zeros((len(ineq), 1 + len(model.rhs), 1, 1))
    S[range(len(ineq)), [1 + k for k in ineq], 0, 0] = [
        1.0 if model.senses[k] == SENSE_LE else -1.0 for k in ineq]
    return SDPModel.from_stacks(model.stacks() + list(S),
                                [(SENSE_EQ, r) for r in model.rhs.tolist()])


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

    Requires an equality-only model with a block, as SDPA does.  SDPA is a
    real format, so a Hermitian block is written as its realify image, twice
    its size.  Line order: constraint count, block count, block sizes,
    right-hand sides, then `matno blkno i j value` entries with matno 0 for
    the cost and only the upper triangle stored, 1-based indices.
    """
    if not model.is_equality_only():
        raise ModelError("export requires an equality-only model; apply to_equality_form first")
    if not model.blocks:
        raise ModelError("export requires at least one block, which SDPA needs")
    # the model has checked every matrix: take the image without realify's copy
    stacks = [realify_matrix(S) * 0.5 if np.iscomplexobj(S) else S for S in model.stacks()]
    m = len(model.rhs)
    lines = [str(m), str(len(stacks))]
    lines.append(" ".join(str(S.shape[-1]) for S in stacks))
    lines.append(" ".join(map(_fmt, model.rhs.tolist())) if m else "")
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

    A diagonal block, of negative size -s, is read as s consecutive 1x1
    blocks.  Tolerates comment lines starting with * or " and brace or
    comma punctuation inside the header vectors.
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

    # per SDPA block, its (1 + m, s, s) stack, or for size -s its s 1x1 stacks
    data = [np.zeros((1 + m, s, s)) if s > 0 else np.zeros((-s, 1 + m, 1, 1)) for s in sizes]
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
        n = abs(sizes[bno - 1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise SDPAFormatError(f"index ({i},{j}) outside block of size {n}", no)
        if sizes[bno - 1] > 0:
            target = data[bno - 1][matno]
            target[i - 1, j - 1] = val
            target[j - 1, i - 1] = val
        elif i == j:
            data[bno - 1][i - 1, matno] = val
        else:
            raise SDPAFormatError(
                f"off-diagonal entry ({i},{j}) in diagonal block {bno}", no)
    stacks = [S for A, s in zip(data, sizes) for S in (A if s < 0 else [A])]
    return SDPModel.from_stacks(stacks, [(SENSE_EQ, r) for r in rhs])


def import_sdpa_file(path: str) -> SDPModel:
    with open(path, "r", encoding="utf-8") as fh:
        return import_sdpa(fh.read())
