import itertools

import numpy as np
import pytest

from starsdp import ipm
from starsdp.sdpmodel import (
    Block, LinearConstraint, SDPModel, ModelError, export_sdpa, to_equality_form,
)
from starsdp.symmetry import (
    GroupRep, GroupError, InvarianceError,
    invariant_basis, reduce_sdp, parse_group_file,
)


from support import (
    c3_rep, cyclic_two_orbits, dihedral_rep, invariant_instance, perm_matrix,
    power_rep, q8_rep, q8_spin_twice,
)

C3 = c3_rep()
TIGHT = ipm.SolverOptions(tol_gap=1e-9, tol_feas=1e-9)


# group -> (representation, sorted reduced block sizes)
BLOCK_CASES = {
    "C3x2": (c3_rep, [2, 4]),
    "C4x2": (lambda: cyclic_two_orbits(4), [2, 2, 4]),
    "C6x2": (lambda: cyclic_two_orbits(6), [2, 2, 4, 4]),
    # the 2-dimensional irreducible twice: its copies must be aligned
    "S3 on two triangles": (lambda: GroupRep(
        [np.kron(np.eye(2), perm_matrix(p))
         for p in itertools.permutations(range(3))]), [2, 2]),
    "D12": (lambda: dihedral_rep(12), [1] * 7),
    "D16": (lambda: dihedral_rep(16), [1] * 9),
    # quaternionic irreducible of multiplicity 2 over C; real data make its
    # Hermitian 2x2 block real
    "Q8": (q8_rep, [1, 1, 1, 1, 2]),
    "diag(1,i,-1,-i)": (lambda: power_rep(np.diag([1, 1j, -1, -1j])), [1] * 4),
    "Q8 spin twice": (q8_spin_twice, [4]),
}


class TestGroupRep:
    def test_rejects_non_unitary(self):
        with pytest.raises(GroupError, match="unitary"):
            GroupRep([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_rejects_missing_identity(self):
        with pytest.raises(GroupError, match="identity"):
            GroupRep([np.array([[0.0, 1.0], [1.0, 0.0]])])

    def test_rejects_open_set(self):
        # {I, R(72deg)} without the remaining powers of the rotation
        t = 2 * np.pi / 5
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        with pytest.raises(GroupError, match="closed"):
            GroupRep([np.eye(2), R])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GroupError):
            GroupRep([np.eye(2), np.eye(3)])

    def test_average_is_projection(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        A1 = C3.average(M)
        A2 = C3.average(A1)
        assert np.linalg.norm(A1 - A2) < 1e-12
        for U in C3.elements:
            assert np.linalg.norm(U @ A1 @ U.conj().T - A1) < 1e-12


class TestInvariantBasis:
    def test_trivial_group_gives_full_space(self):
        rep = GroupRep([np.eye(3)])
        inv = invariant_basis(rep)
        assert inv.dim == 9

    def test_swap_commutant(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        inv = invariant_basis(GroupRep([np.eye(2), swap]))
        assert inv.dim == 2
        # commutant of the swap is span{I, X}
        target = [np.eye(2) / np.sqrt(2), swap / np.sqrt(2)]
        for B in inv.mats:
            proj = sum(np.trace(T.conj().T @ B) * T for T in target)
            assert np.linalg.norm(B - proj) < 1e-10

    def test_full_symmetric_group_commutant_is_two_dimensional(self):
        for d in (3, 4):
            mats = [perm_matrix(p) for p in itertools.permutations(range(d))]
            inv = invariant_basis(GroupRep(mats))
            assert inv.dim == 2

    def test_c3_double_regular(self):
        # two copies of the regular representation of a 3-cycle: every
        # irreducible appears twice, so the commutant has dimension 3 * 4
        inv = invariant_basis(C3)
        assert inv.dim == 12

    def test_orthonormality(self):
        inv = invariant_basis(C3)
        for i, Bi in enumerate(inv.mats):
            for j, Bj in enumerate(inv.mats):
                g = np.trace(Bi.conj().T @ Bj)
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-8

    def test_elements_commute_with_group(self):
        inv = invariant_basis(C3)
        for B in inv.mats:
            for U in C3.elements:
                assert np.linalg.norm(U @ B - B @ U) < 1e-8

    def test_structure_constants_reconstruct_products(self):
        for rep in (C3, GroupRep([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])):
            inv = invariant_basis(rep)
            assert inv.reconstruction_residual() < 1e-8


class TestReduceSDP:
    def test_rejects_non_invariant_objective(self):
        d = 6
        C = np.zeros((d, d))
        C[0, 0] = 1.0
        model = SDPModel([Block(d)], [C],
                         [LinearConstraint([np.eye(d)], "==", 1.0)])
        with pytest.raises(InvarianceError, match="objective") as ei:
            reduce_sdp(model, C3)
        assert ei.value.residual > 1e-8

    def test_rejects_non_invariant_constraint(self):
        d = 6
        A = np.zeros((d, d))
        A[0, 1] = A[1, 0] = 1.0
        model = SDPModel([Block(d)], [np.eye(d)],
                         [LinearConstraint([A], "==", 1.0)])
        with pytest.raises(InvarianceError, match="constraint 1"):
            reduce_sdp(model, C3)

    def test_rejects_dimension_mismatch(self):
        model = SDPModel([Block(3)], [np.eye(3)],
                         [LinearConstraint([np.eye(3)], "==", 1.0)])
        with pytest.raises(ModelError, match="dimension"):
            reduce_sdp(model, C3)

    def test_reduced_matches_full_on_c3_instances(self):
        rng = np.random.default_rng(42)
        tight = ipm.SolverOptions(tol_gap=1e-9, tol_feas=1e-9)
        for trial in range(10):
            model = invariant_instance(C3, 3, rng)
            full = ipm.solve(to_equality_form(model), tight)
            red = reduce_sdp(model, C3)
            small = ipm.solve(to_equality_form(red.model), tight)
            assert full.status == ipm.Status.OPTIMAL
            assert small.status == ipm.Status.OPTIMAL
            assert abs(full.primal_value - small.primal_value) < 1e-6, \
                f"trial {trial}: {full.primal_value} vs {small.primal_value}"

    def test_expanded_solution_is_feasible_and_matching(self):
        rng = np.random.default_rng(7)
        model = invariant_instance(C3, 2, rng)
        red = reduce_sdp(model, C3)
        small = ipm.solve(to_equality_form(red.model))
        X = red.expand(small)
        assert np.min(np.linalg.eigvalsh((X + X.T) / 2)) > -1e-7
        for con in model.constraints:
            assert abs(np.trace(con.matrices[0] @ X) - con.rhs) < 1e-6
        assert abs(np.trace(model.cost[0] @ X) - small.primal_value) < 1e-6

    def test_swap_symmetric_analytic(self):
        # min X00 + X11 subject to X01 + X10 = 1 under the swap:
        # X = [[a, 1/2], [1/2, a]] PSD forces a >= 1/2, optimum 1
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = GroupRep([np.eye(2), swap])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = SDPModel([Block(2)], [np.eye(2)],
                         [LinearConstraint([A], "==", 1.0)])
        red = reduce_sdp(model, rep)
        assert red.reduced_dim == 2
        sol = ipm.solve(to_equality_form(red.model))
        assert abs(sol.primal_value - 1.0) < 1e-7
        X = red.expand(sol)
        assert np.allclose(X, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-6)

    def test_trivial_group_keeps_problem_intact(self):
        rng = np.random.default_rng(3)
        rep = GroupRep([np.eye(4)])
        model = invariant_instance(rep, 2, rng)
        red = reduce_sdp(model, rep)
        # one irreducible with multiplicity 4: the block is the matrix itself
        assert red.reduced_dim == 10
        assert [b.size for b in red.model.blocks] == [4]
        full = ipm.solve(to_equality_form(model))
        small = ipm.solve(to_equality_form(red.model))
        assert abs(full.primal_value - small.primal_value) < 1e-6

    def test_complex_representation(self):
        # diag(1, i, -1, -i) generates a cyclic group of order 4; the
        # commutant is the diagonal algebra, so the reduction is diagonal
        U = np.diag([1.0, 1j, -1.0, -1j])
        mats = [np.linalg.matrix_power(U, k) for k in range(4)]
        rep = GroupRep(mats)
        inv = invariant_basis(rep)
        assert inv.dim == 4
        rng = np.random.default_rng(11)
        model = invariant_instance(rep, 2, rng)
        red = reduce_sdp(model, rep)
        full = ipm.solve(to_equality_form(model))
        small = ipm.solve(to_equality_form(red.model))
        assert abs(full.primal_value - small.primal_value) < 1e-6

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_block_diagonalization(self, name):
        make, sizes = BLOCK_CASES[name]
        rep = make()
        model = invariant_instance(rep, 3, np.random.default_rng(13))
        red = reduce_sdp(model, rep)
        assert sorted(b.size for b in red.model.blocks) == sizes
        assert sum(sizes) <= rep.dim
        assert len(red.model.constraints) == len(model.constraints)
        # deterministic: a second call gives the same model to the last bit
        assert export_sdpa(reduce_sdp(model, rep).model) == export_sdpa(red.model)
        full = ipm.solve(model, TIGHT)
        small = ipm.solve(red.model, TIGHT)
        assert full.status == small.status == ipm.Status.OPTIMAL
        assert abs(full.primal_value - small.primal_value) < 1e-6, name
        X = red.expand(small)
        assert ipm.feasibility_check(model, [X]).max_violation <= 1e-7

    def test_inequality_senses_survive(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = GroupRep([np.eye(2), swap])
        model = SDPModel(
            [Block(2)], [np.eye(2)],
            [LinearConstraint([np.array([[0.0, 1.0], [1.0, 0.0]])], ">=", 1.0)])
        red = reduce_sdp(model, rep)
        sol = ipm.solve(to_equality_form(red.model))
        assert abs(sol.primal_value - 1.0) < 1e-7


class TestGroupFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "swap.grp"
        p.write_text(
            "# order-2 swap action\n"
            "dim 2\n"
            "element\n"
            "1 0\n"
            "0 1\n"
            "element\n"
            "0 1\n"
            "1 0\n")
        rep = parse_group_file(str(p))
        assert len(rep) == 2 and rep.dim == 2

    def test_complex_entries(self, tmp_path):
        p = tmp_path / "c4.grp"
        rows = ["dim 2"]
        for k in range(4):
            rows.append("element")
            w = 1j ** k
            rows.append(f"1 0")
            rows.append(f"0 {w.real:+g}{w.imag:+g}i")
        p.write_text("\n".join(rows) + "\n")
        rep = parse_group_file(str(p))
        assert len(rep) == 4
        inv = invariant_basis(rep)
        assert inv.dim == 2

    def test_bad_entry_location(self, tmp_path):
        p = tmp_path / "bad.grp"
        p.write_text("dim 2\nelement\n1 0\n0 oops\n")
        with pytest.raises(GroupError, match="line 4"):
            parse_group_file(str(p))

    def test_row_width_checked(self, tmp_path):
        p = tmp_path / "bad.grp"
        p.write_text("dim 2\nelement\n1 0 0\n")
        with pytest.raises(GroupError, match="3 entries"):
            parse_group_file(str(p))

    def test_missing_dim(self, tmp_path):
        p = tmp_path / "bad.grp"
        p.write_text("element\n1\n")
        with pytest.raises(GroupError, match="before dim|dim"):
            parse_group_file(str(p))
