"""Trace-form model container, realification, SDPA text round-trips."""

import warnings

import numpy as np
import pytest

from starsdp.ipm import feasibility_check, solve
from starsdp.sdpmodel import (
    Block, LinearConstraint, SDPModel,
    ModelError, SDPAFormatError,
    SENSE_LE, SENSE_GE, SENSE_EQ,
    realify, realify_matrix, to_equality_form,
    export_sdpa, import_sdpa,
)


def one_by_one(cost, rows):
    """Single 1x1 block model from scalars."""
    return SDPModel(
        blocks=[Block(1)],
        cost=[np.array([[float(cost)]])],
        constraints=[
            LinearConstraint([np.array([[float(a)]])], sense, float(rhs))
            for a, sense, rhs in rows
        ],
    )


class TestValidation:
    """A model checks its data when it is made."""

    def test_valid_model_passes(self):
        m = one_by_one(1.0, [(1.0, SENSE_EQ, 1.0)])
        assert [S.shape for S in m.stacks()] == [(2, 1, 1)]

    @pytest.mark.parametrize("blocks, cost", [
        ([Block(2)], [np.array([[0.0, 1.0], [0.0, 0.0]])]),
        ([Block(1), Block(2)], [np.eye(1)]),
        ([Block(2, diagonal=True)], [np.array([[1.0, 0.5], [0.5, 1.0]])]),
        ([Block(1)], [np.array([[1.0 + 1j]])]),
    ], ids=["asymmetric-cost", "block-count", "off-diagonal-in-diagonal-block",
            "complex-cost"])
    def test_rejected(self, blocks, cost):
        with pytest.raises(ModelError):
            SDPModel(blocks, cost, [])

    def test_hermitian_data_pass(self):
        H = np.array([[1.0, 2j], [-2j, 3.0]])
        m = SDPModel([Block(1), Block(2)], [np.eye(1), H],
                     [LinearConstraint([np.eye(1), H @ H], SENSE_EQ, 1.0)])
        assert np.array_equal(m.constraints[0].matrices[1], H @ H)

    def test_non_hermitian_row_named(self):
        # complex symmetric, not Hermitian, in block 1 of row 2
        H, S = np.array([[1.0, 2j], [-2j, 3.0]]), np.array([[1.0, 2j], [2j, 3.0]])
        with pytest.raises(ModelError, match="constraint 1 block 1: matrix is not Hermitian"):
            SDPModel([Block(1), Block(2)], [np.eye(1), H],
                     [LinearConstraint([np.eye(1), H], SENSE_EQ, 1.0),
                      LinearConstraint([np.eye(1), S], SENSE_EQ, 1.0)])


class TestEqualityForm:
    def test_inequalities_get_one_shared_slack_block(self):
        m = one_by_one(1.0, [
            (1.0, SENSE_LE, 2.0),
            (1.0, SENSE_GE, 0.5),
            (1.0, SENSE_EQ, 1.0),
        ])
        eq = to_equality_form(m)
        assert eq.is_equality_only()
        assert len(eq.blocks) == 2
        slack = eq.blocks[-1]
        assert slack.diagonal and slack.size == 2
        # <= row gets +1 slack, >= row gets -1, == row gets none
        s0 = eq.constraints[0].matrices[-1]
        s1 = eq.constraints[1].matrices[-1]
        s2 = eq.constraints[2].matrices[-1]
        assert s0[0, 0] == 1.0 and s1[1, 1] == -1.0
        assert np.all(s2 == 0.0)
        assert np.all(eq.cost[-1] == 0.0)

    def test_equality_model_unchanged(self):
        m = one_by_one(1.0, [(1.0, SENSE_EQ, 1.0)])
        eq = to_equality_form(m)
        assert len(eq.blocks) == 1


class TestRealify:
    def test_real_matrix_doubles(self):
        A = np.array([[3.0]])
        R = realify_matrix(A)
        assert R.shape == (2, 2)
        assert np.allclose(R, 3.0 * np.eye(2))

    def test_hermitian_eigenvalues_double_multiplicity(self):
        A = np.array([[2.0, 1j], [-1j, 2.0]])
        R = realify_matrix(A)
        assert np.allclose(R, R.T)
        herm_eigs = np.linalg.eigvalsh(A)
        real_eigs = np.linalg.eigvalsh(R)
        assert np.allclose(real_eigs, np.sort(np.repeat(herm_eigs, 2)))

    def test_trace_pairing_preserved(self):
        # tr(R(A)/2 R(X)) must equal Re tr(A X*) when both are hermitian
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            A = (A + A.conj().T) / 2
            X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            X = (X + X.conj().T) / 2
            lhs = np.sum((realify_matrix(A) / 2) * realify_matrix(X))
            rhs = np.real(np.trace(A @ X))
            assert abs(lhs - rhs) < 1e-10

    def test_non_hermitian_rejected(self):
        stack = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(ModelError, match="cost block 0: matrix is not Hermitian"):
            realify([stack])

    def test_non_finite_rejected(self):
        stack = np.array([np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]], dtype=complex)
        with pytest.raises(ModelError, match="constraint 0 block 0: matrix has a non-finite"):
            realify([stack])

    def test_realified_model_structure(self):
        stack = np.array([[[1.0, 1j], [-1j, 1.0]], np.eye(2)])
        m = SDPModel.from_stacks(realify([stack]), [(SENSE_EQ, 1.0)])
        assert m.blocks[0].size == 4
        assert np.allclose(m.cost[0], realify_matrix(stack[0]) / 2)


class TestHermitianExport:
    def test_export_is_the_realify_image(self):
        # a Hermitian block is written as its halved real image, so the text
        # is that of the realify model, byte for byte; real blocks as they are
        rng = np.random.default_rng(3)

        def herm(n):
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return (H + H.conj().T) / 2

        def sym(n):
            B = rng.normal(size=(n, n))
            return B + B.T

        hermitian = np.array([herm(3) for _ in range(5)])
        real = np.array([sym(2) for _ in range(5)])
        rows = [(SENSE_EQ, float(r)) for r in rng.normal(size=4)]
        model = SDPModel.from_stacks([hermitian, real], rows)
        image = SDPModel.from_stacks(realify([hermitian]) + [real], rows)
        assert export_sdpa(model) == export_sdpa(image)
        assert export_sdpa(model).splitlines()[2] == "6 2"
        back = import_sdpa(export_sdpa(model))
        assert all(np.array_equal(A, B) for A, B in zip(back.stacks(), image.stacks()))


class TestSDPAText:
    def test_scalar_example_structure(self):
        # min x subject to x = 1 over 1x1 psd
        m = one_by_one(1.0, [(1.0, SENSE_EQ, 1.0)])
        lines = export_sdpa(m).strip().splitlines()
        assert lines[0].split() == ["1"]
        assert lines[1].split() == ["1"]
        assert lines[2].split() == ["1"]
        assert lines[3].split() == ["1"]
        entries = sorted(lines[4:])
        assert entries == ["0 1 1 1 1", "1 1 1 1 1"]

    def test_golden_text(self):
        # a real, a Hermitian (written as its halved 4x4 image) and a
        # diagonal block; upper triangles row by row, zeros skipped
        real = np.array([[[1.0, 0.5], [0.5, 0.0]], [[0.0, -2.0], [-2.0, 3.0]]])
        herm = np.array([[[2.0, 1j], [-1j, 0.0]],
                         [[1.0, 0.25 - 0.5j], [0.25 + 0.5j, -1.0]]])
        diag = np.array([np.diag([0.0, 0.1]), np.diag([-1.0, 0.0])])
        m = SDPModel.from_stacks([real, herm, diag], [(SENSE_EQ, 1.5)],
                                 [Block(2), Block(2), Block(2, diagonal=True)])
        assert export_sdpa(m) == (
            "1\n3\n2 4 -2\n1.5\n"
            "0 1 1 1 1\n0 1 1 2 0.5\n"
            "0 2 1 1 1\n0 2 1 4 -0.5\n0 2 2 3 0.5\n0 2 3 3 1\n"
            "0 3 2 2 0.10000000000000001\n"
            "1 1 1 2 -2\n1 1 2 2 3\n"
            "1 2 1 1 0.5\n1 2 1 2 0.125\n1 2 1 4 0.25\n1 2 2 2 -0.5\n"
            "1 2 2 3 -0.25\n1 2 3 3 0.5\n1 2 3 4 0.125\n1 2 4 4 -0.5\n"
            "1 3 1 1 -1\n")

    def test_inequality_export_rejected(self):
        m = one_by_one(1.0, [(1.0, SENSE_LE, 1.0)])
        with pytest.raises(ModelError):
            export_sdpa(m)

    def test_round_trip_random_model(self):
        rng = np.random.default_rng(11)
        blocks = [Block(3), Block(2, diagonal=True)]
        def rand_mats():
            A = rng.normal(size=(3, 3))
            D = np.diag(rng.normal(size=2))
            return [(A + A.T) / 2, D]
        m = SDPModel(
            blocks=blocks,
            cost=rand_mats(),
            constraints=[
                LinearConstraint(rand_mats(), SENSE_EQ, float(rng.normal()))
                for _ in range(4)
            ],
        )
        m2 = import_sdpa(export_sdpa(m))
        assert [ (b.size, b.diagonal) for b in m2.blocks ] == [(3, False), (2, True)]
        for Cb, Cb2 in zip(m.cost, m2.cost):
            assert np.allclose(Cb, Cb2, atol=1e-14)
        assert len(m2.constraints) == 4
        for c1, c2 in zip(m.constraints, m2.constraints):
            assert c2.sense == SENSE_EQ
            assert abs(c1.rhs - c2.rhs) < 1e-14
            for A1, A2 in zip(c1.matrices, c2.matrices):
                assert np.allclose(A1, A2, atol=1e-14)

    def test_import_tolerates_comments_and_punctuation(self):
        text = """\
* a comment
" another comment
1
2
{3, -2}
(1.0)
0 1 1 1 1.5
1 1 1 2 -0.5
1 2 1 1 2.0
"""
        m = import_sdpa(text)
        assert [(b.size, b.diagonal) for b in m.blocks] == [(3, False), (2, True)]
        assert m.cost[0][0, 0] == 1.5
        assert m.constraints[0].matrices[0][0, 1] == -0.5
        assert m.constraints[0].matrices[0][1, 0] == -0.5
        assert m.constraints[0].matrices[1][0, 0] == 2.0

    def test_import_rejects_bad_block_index(self):
        text = "1\n1\n2\n1.0\n0 3 1 1 1.0\n"
        with pytest.raises(SDPAFormatError) as err:
            import_sdpa(text)
        assert "block" in str(err.value)

    def test_import_rejects_out_of_range_entry(self):
        text = "1\n1\n2\n1.0\n0 1 1 5 1.0\n"
        with pytest.raises(SDPAFormatError):
            import_sdpa(text)

    def test_import_rejects_entry_outside_diagonal(self):
        text = "0\n1\n-2\n0 1 1 2 1.0\n"
        with pytest.raises(SDPAFormatError):
            import_sdpa(text)

    @pytest.mark.parametrize("text, line, message", [
        ("1\n1\n", 2, "file too short"),
        ("", 0, "file too short"),
        ("* header\n1\none\n2\n", 3, "expected integers"),
        ("1 2\n1\n2\n", 1, "expected 1 integers, got 2"),
        ("-1\n1\n2\n", 1, "negative constraint count -1"),
        ("1\n2\n3\n", 3, "expected 2 integers, got 1"),
        ("1\n1\n2\n", 3, "missing right-hand side line"),
        ("2\n1\n2\n* rhs\n1.0\n", 5, "expected 2 right-hand sides, got 1"),
        ("1\n1\n2\nhalf\n", 4, "bad right-hand side"),
        ("1\n1\n2\n1.0\n0 1 1 1 1.0\n0 1 1 1\n", 6, "entry needs 5 fields, got 4"),
        ("1\n1\n2\n1.0\n0 1 1 j 1.0\n", 5, "bad entry"),
        ("1\n1\n2\n1.0\n0 1 1 1 x\n", 5, "bad entry"),
        ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", 5, "matrix number 2 out of range"),
        ("1\n1\n2\n1.0\n-1 1 1 1 1.0\n", 5, "matrix number -1 out of range"),
        ("1\n1\n2.7\n1.0\n", 3, "expected integers, got '2.7'"),
        ("1.5\n1\n2\n1.0\n", 1, "expected integers"),
        ("1\n1\n2\n1.0\n1.9 1 1 1 1.0\n", 5, "bad entry"),
        ("1\n1\n2\n1.0\n0 1 1 1.5 1.0\n", 5, "bad entry"),
        ("1\n1\n2\n1.0\n0 1 inf 1 1.0\n", 5, "bad entry"),
        ("1\n1\n0\n1.0\n", 3, "block 1 has size 0"),
        ("1\n2\n2 0\n1.0\n", 3, "block 2 has size 0"),
        ("1\n-1\n2\n1.0\n", 2, "block count -1 is below 1"),
        ("1\n0\n2\n1.0\n", 2, "block count 0 is below 1"),
        ("1\n1\n2\n1.0\n0 1 1 2 nan\n", 5, "entry value 'nan' is not finite"),
        ("1\n1\n2\n1.0\n1 1 2 2 -inf\n", 5, "entry value '-inf' is not finite"),
        ("2\n1\n2\n1.0 NaN\n", 4, "right-hand side 'NaN' is not finite"),
        ("1\n1\n2\n{inf}\n", 4, "right-hand side 'inf' is not finite"),
    ], ids=["too-short", "empty", "non-integer-header", "header-count", "negative-count",
            "block-size-count", "missing-rhs", "rhs-count", "bad-rhs", "entry-fields",
            "bad-entry-index", "bad-entry-value", "matno-high", "matno-negative",
            "fractional-block-size", "fractional-count", "fractional-matno",
            "fractional-index", "infinite-index", "zero-block-size",
            "second-block-size-zero", "negative-block-count", "zero-block-count",
            "nan-entry", "infinite-entry", "nan-rhs", "infinite-rhs"])
    def test_import_rejects_malformed_input(self, text, line, message):
        with pytest.raises(SDPAFormatError) as err:
            import_sdpa(text)
        assert err.value.line == line
        assert message in str(err.value)

    def test_integral_float_fields_accepted(self):
        m = import_sdpa("1.0\n1e0\n-2.0\n1.0\n0 1.0 2 2.0 1.5\n")
        assert [(b.size, b.diagonal) for b in m.blocks] == [(2, True)]
        assert m.cost[0][1, 1] == 1.5 and m.constraints[0].rhs == 1.0

    def test_seventeen_digit_fidelity(self):
        v = 1.0 / 3.0
        m = one_by_one(v, [(v, SENSE_EQ, v)])
        m2 = import_sdpa(export_sdpa(m))
        assert m2.cost[0][0, 0] == v
        assert m2.constraints[0].rhs == v


def bad_sense():
    return [Block(1)], [np.eye(1)], [LinearConstraint([np.eye(1)], "<>", 1.0)]


def matrix_count_mismatch():
    return ([Block(1), Block(1)], [np.eye(1), np.eye(1)],
            [LinearConstraint([np.eye(1)], SENSE_EQ, 1.0)])


def shape_mismatch():
    return [Block(2)], [np.eye(2)], [LinearConstraint([np.eye(3)], SENSE_EQ, 1.0)]


NAN = np.array([[1.0, np.nan], [np.nan, 1.0]])


def nan_cost():
    # max|C - C*| is NaN here, and NaN > tol is false
    return [Block(2)], [NAN], [LinearConstraint([np.eye(2)], SENSE_EQ, 1.0)]


def infinite_rhs():
    return [Block(1)], [np.eye(1)], [LinearConstraint([np.eye(1)], SENSE_EQ, 1.0),
                                     LinearConstraint([np.eye(1)], SENSE_EQ, np.inf)]


def nan_cost_and_bad_sense():
    # two faults: the cost's entries, and the metadata of a later row
    return [Block(2)], [NAN], [LinearConstraint([np.eye(2)], "<>", 1.0)]


def infinite_hermitian_row():
    # inf - inf in C - C*, which must not warn
    H = np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]])
    return ([Block(1), Block(2)], [np.eye(1), np.eye(2, dtype=complex)],
            [LinearConstraint([np.eye(1), np.eye(2, dtype=complex)], SENSE_EQ, 1.0),
             LinearConstraint([np.eye(1), H], SENSE_EQ, 1.0)])


def infinite_diagonal():
    # exactly symmetric: inf == inf, so only the finiteness test sees it
    return [Block(2)], [np.eye(2)], [LinearConstraint([np.diag([1.0, np.inf])], SENSE_EQ, 1.0)]


def nan_diagonal():
    return [Block(2)], [np.eye(2)], [LinearConstraint([np.diag([np.nan, 1.0])], SENSE_EQ, 1.0)]


def symmetric_off_diagonal_in_diagonal_block():
    # exactly symmetric, which a diagonal block still rejects
    return ([Block(1), Block(2, diagonal=True)], [np.eye(1), np.eye(2)],
            [LinearConstraint([np.eye(1), np.ones((2, 2))], SENSE_EQ, 1.0)])


def from_lists(blocks, cost, constraints):
    return SDPModel(blocks, cost, constraints)


def from_stacks(blocks, cost, constraints):
    stacks = [np.array([C] + [con.matrices[b] for con in constraints])
              for b, C in enumerate(cost)]
    return SDPModel.from_stacks(stacks, [(con.sense, con.rhs) for con in constraints], blocks)


FAULTS = [
    (bad_sense, "constraint 0: bad sense '<>'"),
    (matrix_count_mismatch, "constraint 0: matrix count mismatch"),
    (shape_mismatch, "constraint 0 block 0: shape (3, 3) does not match block size 2"),
    (nan_cost, "cost block 0: matrix has a non-finite entry"),
    (infinite_rhs, "constraint 1: right-hand side inf is not finite"),
    (infinite_hermitian_row, "constraint 1 block 1: matrix has a non-finite entry"),
    (nan_cost_and_bad_sense, "constraint 0: bad sense '<>'"),
    (infinite_diagonal, "constraint 0 block 0: matrix has a non-finite entry"),
    (nan_diagonal, "constraint 0 block 0: matrix has a non-finite entry"),
    (symmetric_off_diagonal_in_diagonal_block,
     "constraint 0 block 1: off-diagonal entries in a diagonal block"),
]
FAULT_IDS = ["bad-sense", "matrix-count", "shape", "nan-cost", "infinite-rhs",
             "infinite-hermitian-row", "nan-cost-and-bad-sense", "infinite-diagonal",
             "nan-diagonal", "symmetric-off-diagonal"]


class TestConstructionChecks:
    """Both constructors check a model when it is made, with one message
    per fault: counts, senses, right-hand sides and shapes before any
    matrix's entries.  A row's matrix count and shapes cannot be wrong in a
    stack, which is one array per block."""

    @pytest.mark.parametrize("construct, make, message", [
        (construct, make, message) for construct in (from_lists, from_stacks)
        for make, message in FAULTS
        if construct is from_lists or make not in (matrix_count_mismatch, shape_mismatch)
    ], ids=[f"SDPModel-{i}" for i in FAULT_IDS] + [
        f"from_stacks-{i}" for i in FAULT_IDS if i not in ("matrix-count", "shape")])
    def test_rejected(self, construct, make, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError) as err:
                construct(*make())
        assert str(err.value) == message

    def test_first_matrix_in_model_order_named(self):
        # a row of block 0 and the cost of block 1 are both asymmetric: the
        # costs come before the rows, whatever the block
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ModelError, match="^cost block 1: matrix is not symmetric$"):
            SDPModel([Block(2), Block(2)], [np.eye(2), bad],
                     [LinearConstraint([bad, np.eye(2)], SENSE_EQ, 1.0)])

    def test_largest_finite_entries_kept(self):
        # M + M* overflows to inf here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SDPModel([Block(1)], [np.array([[1e308]])],
                         [LinearConstraint([np.array([[-1e308]])], SENSE_EQ, 1.0)])
            [S] = m.stacks()
            assert S.tolist() == [[[1e308]], [[-1e308]]]
            H = np.array([[1.7e308, 1e308 - 1e308j], [1e308 + 1e308j, -1.7e308]])
            [S] = SDPModel.from_stacks([np.array([H])], []).stacks()
            assert np.array_equal(S[0], H)

    def test_largest_finite_sdpa_entries_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = import_sdpa("1\n1\n2\n1.0\n0 1 1 2 1e308\n1 1 1 1 1.0\n")
            [S] = m.stacks()
            assert S[0].tolist() == [[0.0, 1e308], [1e308, 0.0]]


class TestFromStacks:
    @pytest.mark.parametrize("shapes, rows, message", [
        ([(4, 2, 2)], 2, "block 0: stack shape (4, 2, 2) is not (3, n, n)"),
        ([(4, 2, 2)], 4, "block 0: stack shape (4, 2, 2) is not (5, n, n)"),
        ([(3, 2, 2), (4, 1, 1)], 2, "block 1: stack shape (4, 1, 1) is not (3, n, n)"),
    ], ids=["longer", "shorter", "lengths-differ"])
    def test_stack_length_must_match_rows(self, shapes, rows, message):
        stacks = [np.array([np.eye(n)] * k) for k, n, _ in shapes]
        with pytest.raises(ModelError) as err:
            SDPModel.from_stacks(stacks, [(SENSE_EQ, 1.0)] * rows)
        assert str(err.value) == message

    def test_takes_the_arrays_over(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [1.0 + 1e-12, 0.0]]])
        m = SDPModel.from_stacks([stack], [(SENSE_EQ, 1.0)])
        [S] = m.stacks()
        assert S is stack and not stack.flags.writeable
        assert stack[1, 0, 1] == stack[1, 1, 0]

    @pytest.mark.parametrize("dtype, strided, kept, made", [
        (np.float64, False, True, np.float64),
        (np.complex128, False, True, np.complex128),
        (np.int64, False, False, np.float64),
        (np.float32, False, False, np.float64),
        (np.complex64, False, False, np.complex128),
        (np.float64, True, False, np.float64),
    ], ids=["float64", "complex128", "int64", "float32", "complex64", "strided-float64"])
    def test_converts_only_when_needed(self, dtype, strided, kept, made):
        # a contiguous float or complex stack is taken over; anything else is
        # converted to one, and the caller's array is left as it was
        stack = np.array([np.eye(2), [[0, 1], [1, 0]]], dtype=dtype)
        if strided:
            stack = np.array([np.eye(4)] * 2)[:, ::2, ::2]
        before = stack.copy()
        [S] = SDPModel.from_stacks([stack], [(SENSE_EQ, 1.0)]).stacks()
        assert (S is stack) == kept and S.dtype == made and S.flags.c_contiguous
        assert np.array_equal(S, before) and not S.flags.writeable
        assert stack.flags.writeable != kept and np.array_equal(stack, before)


def nearly_hermitian_data():
    """Equality rows on a real, a Hermitian and a diagonal block, every
    matrix within 1e-12 of Hermitian but not exactly, and X = I interior
    feasible with a positive definite cost."""
    rng = np.random.default_rng(17)

    def sym(n, dtype):
        B = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0)
        B = (B + B.conj().T) / 2
        B[0, -1] += 1e-12                   # off Hermitian by 1e-12
        B[0, 0] += 1e-12j if dtype is complex else 0.0
        return B

    def diag(n):
        D = np.diag(rng.normal(size=n))
        D[0, 1] = 1e-12                     # off diagonal, and off symmetric
        return D

    def draw():
        return [sym(3, float), sym(2, complex), diag(2)]

    cost = [M + 4 * np.eye(len(M)) for M in draw()]
    rows = [draw() for _ in range(4)]
    return ([Block(3), Block(2), Block(2, diagonal=True)], cost,
            [LinearConstraint(A, SENSE_EQ, float(sum(np.trace(M).real for M in A)))
             for A in rows])


class TestTheModelIsItsData:
    """A model stacks the caller's matrices into new arrays, made exactly
    Hermitian; readers share those arrays, which nobody can write."""

    @pytest.mark.parametrize("read", [
        SDPModel.stacks, solve, export_sdpa, to_equality_form,
        lambda model: feasibility_check(model, [np.eye(b.size) for b in model.blocks]),
        lambda model: realify(model.stacks()),
    ], ids=["stacks", "solve", "export_sdpa", "to_equality_form", "feasibility_check",
            "realify"])
    def test_caller_matrices_unchanged(self, read):
        # every reader works on the read-only stacks and leaves them as made
        blocks, cost, constraints = nearly_hermitian_data()
        matrices = cost + [A for con in constraints for A in con.matrices]
        before = [A.copy() for A in matrices]
        m = SDPModel(blocks, cost, constraints)
        made = [S.copy() for S in m.stacks()]
        read(m)
        assert all(A.dtype == B.dtype and np.array_equal(A, B)
                   for A, B in zip(matrices, before))
        assert not np.array_equal(cost[0], cost[0].T)
        assert all(not S.flags.writeable and np.array_equal(S, B)
                   for S, B in zip(m.stacks(), made))

    def test_stacks_are_exactly_hermitian(self):
        m = SDPModel(*nearly_hermitian_data())
        for S in m.stacks():
            assert np.array_equal(S, S.conj().swapaxes(-1, -2))

    def test_stacks_are_the_model(self):
        m = SDPModel(*nearly_hermitian_data())
        S = m.stacks()
        assert all(A is B for A, B in zip(S, m.stacks())) and S is not m.stacks()
        assert all(np.shares_memory(C, Sb) for C, Sb in zip(m.cost, S))
        assert all(np.shares_memory(A, Sb) for con in m.constraints
                   for A, Sb in zip(con.matrices, S))
        eq = to_equality_form(m)
        assert all(A is B for A, B in zip(eq.stacks(), S))

    @pytest.mark.parametrize("write", [
        lambda m: m.cost[0].__setitem__((0, 0), 1.0),
        lambda m: m.constraints[0].matrices[1].__setitem__(Ellipsis, 0.0),
        lambda m: m.stacks()[2].__setitem__(0, 0.0),
    ], ids=["cost", "row-matrix", "stack"])
    def test_writes_rejected(self, write):
        m = SDPModel(*nearly_hermitian_data())
        with pytest.raises(ValueError, match="read-only"):
            write(m)

    def test_solve_equals_solve_of_exact_data(self):
        # the Hermitian parts of the caller's matrices give the same stacks
        blocks, cost, constraints = nearly_hermitian_data()
        exact = [[0.5 * M + 0.5 * M.conj().T for M in A]
                 for A in [cost] + [con.matrices for con in constraints]]
        e = SDPModel(blocks, exact[0], [LinearConstraint(A, con.sense, con.rhs)
                                        for A, con in zip(exact[1:], constraints)])
        m = SDPModel(blocks, cost, constraints)
        assert all(np.array_equal(A, B) for A, B in zip(m.stacks(), e.stacks()))
        a, b = solve(m), solve(e)
        assert a.status == b.status and a.iterations == b.iterations
        assert (a.primal_value, a.dual_value) == (b.primal_value, b.dual_value)
        assert np.array_equal(a.y, b.y)
        assert all(np.array_equal(P, Q) for P, Q in zip(a.X + a.Z, b.X + b.Z))


def mixed_senses_model():
    """A real, a Hermitian and a diagonal block under rows of every sense."""
    blocks, cost, constraints = nearly_hermitian_data()

    def diagonal(A):
        return A[:2] + [np.diag(np.diag(A[2]))]

    senses = [SENSE_LE, SENSE_EQ, SENSE_GE, SENSE_EQ]
    return SDPModel(blocks, diagonal(cost),
                    [LinearConstraint(diagonal(con.matrices), sense, con.rhs)
                     for con, sense in zip(constraints, senses)])


def stacked_model():
    m = mixed_senses_model()
    return SDPModel.from_stacks([S.copy() for S in m.stacks()],
                                list(zip(m.senses, m.rhs.tolist())), m.blocks)


def reduced_model():
    from starsdp.symmetry import reduce_sdp
    from support import dihedral_rep, invariant_instance
    rep = dihedral_rep(4)
    return reduce_sdp(invariant_instance(rep, 3, np.random.default_rng(3)), rep).model


class TestRowsAsArrays:
    """A model holds its rows as the senses and one read-only float array of
    right-hand sides; `constraints` is made from them on first access."""

    @pytest.mark.parametrize("make", [
        mixed_senses_model,
        stacked_model,
        lambda: to_equality_form(mixed_senses_model()),
        lambda: import_sdpa(export_sdpa(to_equality_form(mixed_senses_model()))),
        reduced_model,
    ], ids=["SDPModel", "from_stacks", "to_equality_form", "import_sdpa", "reduce_sdp"])
    def test_constraints_are_the_eager_rows(self, make):
        m = make()
        S = m.stacks()
        assert m.rhs.dtype == float and m.rhs.shape == (len(S[0]) - 1,)
        assert not m.rhs.flags.writeable and isinstance(m.senses, tuple)
        eager = [LinearConstraint([Sb[k] for Sb in S], sense, rhs)
                 for k, (sense, rhs) in enumerate(zip(m.senses, m.rhs.tolist()), start=1)]
        cons = m.constraints
        assert cons is m.constraints and len(cons) == len(eager)
        for c, e in zip(cons, eager):
            assert (c.sense, c.rhs) == (e.sense, e.rhs) and type(c.rhs) is float
            assert all(np.array_equal(A, B) and np.shares_memory(A, Sb)
                       and not A.flags.writeable
                       for A, B, Sb in zip(c.matrices, e.matrices, S))

    def test_rhs_is_read_only(self):
        m = mixed_senses_model()
        assert m.senses == (SENSE_LE, SENSE_EQ, SENSE_GE, SENSE_EQ)
        with pytest.raises(ValueError, match="read-only"):
            m.rhs[0] = 0.0

    def test_readers_use_the_arrays(self, monkeypatch):
        # the solve of a relaxation and of a reduced model, and every reader
        # of a model, run without `constraints`
        from pathlib import Path
        from starsdp.problems import parse_problem_file
        from starsdp.relaxation import build_relaxation

        def unread(model):
            raise AssertionError("SDPModel.constraints was read")

        monkeypatch.setattr(SDPModel, "constraints", property(unread))
        chsh = Path(__file__).resolve().parent.parent / "problems" / "chsh.csdp"
        res = build_relaxation(parse_problem_file(str(chsh)), level=2).solve()
        assert res.status.name == "OPTIMAL" and abs(res.bound - 2 * np.sqrt(2)) <= 1e-6
        assert solve(reduced_model()).status.name == "OPTIMAL"
        m = mixed_senses_model()
        eq = to_equality_form(m)
        assert import_sdpa(export_sdpa(eq)).senses == eq.senses
        assert solve(eq).status.name == "OPTIMAL"
        assert feasibility_check(m, [np.eye(b.size) for b in m.blocks]).max_violation >= 0.0
