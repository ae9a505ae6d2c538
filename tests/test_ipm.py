"""Interior point solver unit tests against hand-checked optima."""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from starsdp.sdpmodel import (
    Block, LinearConstraint, SDPModel, ModelError,
    SENSE_GE, SENSE_LE, SENSE_EQ, to_equality_form, realify,
    export_sdpa, import_sdpa,
)
from starsdp.ipm import (
    solve, SolverOptions, Status, feasibility_check,
    _eigvalsh, _factor, _gather, _group, _groups, _max_step, _merges, _places,
    _psd_solver, _schur, _tril_inv,
)
from starsdp.problems import parse_problem_file
from starsdp.relaxation import build_relaxation

from starsdp.symmetry import reduce_sdp
from support import (
    dihedral_rep, invariant_instance, random_involution_problem, reflection_realization,
)

TIGHT = SolverOptions(tol_gap=1e-9, tol_feas=1e-9)


def pin_entry_model(n, cost, i, j, rhs):
    """min <cost, X> subject to X_ij (symmetrized) = rhs on one n-block."""
    E = np.zeros((n, n))
    E[i, j] += 0.5
    E[j, i] += 0.5
    if i == j:
        E[i, j] = 1.0
    return SDPModel([Block(n)], [np.asarray(cost, dtype=float)],
                    [LinearConstraint([E], SENSE_EQ, float(rhs))])


class TestAnalytic:
    def test_min_trace_with_pinned_corner(self):
        # min <I, X> with X_11 = 1: optimum 1, X -> E_11
        m = pin_entry_model(2, np.eye(2), 0, 0, 1.0)
        sol = solve(m)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.primal_value - 1.0) <= 1e-9
        assert abs(sol.X[0][0, 0] - 1.0) <= 1e-6
        assert abs(sol.X[0][1, 1]) <= 1e-6
        assert abs(sol.X[0][0, 1]) <= 1e-6

    def test_offdiagonal_pin_forces_psd_completion(self):
        # min tr X with X_01 = 1: optimum 2 at X = ones/ [[1,1],[1,1]]
        m = pin_entry_model(2, np.eye(2), 0, 1, 1.0)
        sol = solve(m)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.primal_value - 2.0) <= 1e-7

    def test_two_blocks_and_diagonal_block(self):
        # min x + 2 y with x = 3 (1x1 block), y = 4 (diagonal 1x1)
        m = SDPModel(
            [Block(1), Block(1, diagonal=True)],
            [np.array([[1.0]]), np.array([[2.0]])],
            [
                LinearConstraint([np.array([[1.0]]), np.zeros((1, 1))], SENSE_EQ, 3.0),
                LinearConstraint([np.zeros((1, 1)), np.array([[1.0]])], SENSE_EQ, 4.0),
            ],
        )
        sol = solve(m)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.primal_value - 11.0) <= 1e-7

    def test_unconstrained_model(self):
        m = SDPModel([Block(2)], [np.eye(2)], [])
        sol = solve(m)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.primal_value) <= 1e-7

    def test_unconstrained_hermitian_model(self):
        # m = 0: min <C, X> over Hermitian psd X with C positive definite is 0
        C = hermitian_psd(np.random.default_rng(21), 3)
        sol = solve(SDPModel([Block(3)], [C], []))
        assert sol.status == Status.OPTIMAL
        assert abs(sol.primal_value) <= 1e-7
        assert len(sol.y) == 0

    def test_inequality_model_rejected(self):
        m = SDPModel([Block(1)], [np.eye(1)],
                     [LinearConstraint([np.eye(1)], SENSE_LE, 1.0)])
        with pytest.raises(ModelError):
            solve(m)

    def test_slack_conversion_solves_inequalities(self):
        # min -x with x <= 2, x on a psd 1x1 block: optimum -2
        m = SDPModel([Block(1)], [np.array([[-1.0]])],
                     [LinearConstraint([np.eye(1)], SENSE_LE, 2.0)])
        sol = solve(to_equality_form(m))
        assert sol.status == Status.OPTIMAL
        assert abs(sol.primal_value + 2.0) <= 1e-7


class TestCertificates:
    # A, b and C each scaled alone, which changes no status
    SCALINGS = [(1.0, 1.0, 1.0)] + [t for k in (1e-6, 1e6)
                                    for t in ((k, 1.0, 1.0), (1.0, k, 1.0), (1.0, 1.0, k))]

    def test_infeasible_detected(self):
        # x >= 0 with x = -1 has no primal point
        for a, r, c in self.SCALINGS:
            m = SDPModel([Block(1)], [c * np.eye(1)],
                         [LinearConstraint([a * np.eye(1)], SENSE_EQ, -r)])
            assert solve(m).status == Status.INFEASIBLE, (a, r, c)

    def test_unbounded_detected(self):
        # min -X_00 with X_01 = 0: X_00 free to grow
        for a, _, c in self.SCALINGS:
            m = SDPModel([Block(2)], [c * np.diag([-1.0, 0.0])],
                         [LinearConstraint([a * np.fliplr(np.eye(2)) / 2], SENSE_EQ, 0.0)])
            assert solve(m).status == Status.UNBOUNDED, (a, c)

    def test_large_data_is_no_ray(self):
        # at the start |A(X)| is 2e-9 |<C, X>| and later |sum_k y_k A_k + Z|
        # is 1.5e-9 b.y, yet neither iterate is a ray once A, b and C are
        # put on one scale
        big_cost = SDPModel([Block(2)], [np.diag([-1e9, 0.0])],
                            [LinearConstraint([np.eye(2)], SENSE_EQ, 1.0)])
        big_rhs = pin_entry_model(2, np.eye(2), 0, 0, 1e9)
        for m, optimum in ((big_cost, -1e9), (big_rhs, 1e9)):
            sol = solve(m)
            assert sol.status == Status.OPTIMAL, sol.reason
            assert abs(sol.primal_value - optimum) <= 1e-8 * 1e9

    def test_iteration_limit_has_a_reason(self):
        m = pin_entry_model(2, np.eye(2), 0, 0, 1.0)
        sol = solve(m, SolverOptions(max_iter=2))
        assert sol.status == Status.MAX_ITER and sol.iterations == 2
        assert sol.reason.startswith("iteration limit 2 reached")
        assert solve(m).reason == ""

    def test_failed_factor_is_named(self):
        # X and Z of a size group are factored together; the reason still
        # names X when any X stack fails, else Z
        m = SDPModel([Block(2), Block(3)], [np.eye(2), np.eye(3)],
                     [LinearConstraint([np.eye(2), np.eye(3)], SENSE_EQ, 1.0)])
        good, bad = [np.eye(2), np.eye(3)], [-np.eye(2), np.eye(3)]
        for X0, Z0, name in [(good, bad, "Z"), (bad, good, "X"),
                             ([np.eye(2), -np.eye(3)], bad, "X")]:
            sol = solve(m, start=(X0, np.zeros(1), Z0))
            assert sol.status == Status.NUMERICAL
            assert sol.reason == f"the Cholesky factor of {name} failed at iteration 0"

    @pytest.mark.parametrize("sizes", [[2, 3], [3, 3], [30, 40]],
                             ids=["merged", "one size", "two sizes"])
    def test_failed_factor_keeps_the_error_state(self, sizes):
        # the factor runs under numpy.linalg's own error state, so a failed
        # one raises no warning, ends the solve NUMERICAL and leaves the
        # caller's state, here one that ignores invalid operations
        m = SDPModel([Block(n) for n in sizes], [np.eye(n) for n in sizes],
                     [LinearConstraint([np.eye(n) for n in sizes], SENSE_EQ, 1.0)])
        good = [np.eye(n) for n in sizes]
        bad = [-np.eye(sizes[0])] + good[1:]
        with warnings.catch_warnings(), np.errstate(divide="raise", over="warn",
                                                    under="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            state = np.geterr()
            for X0, Z0, name in [(good, bad, "Z"), (bad, good, "X")]:
                sol = solve(m, start=(X0, np.zeros(1), Z0))
                assert sol.status == Status.NUMERICAL
                assert sol.reason == f"the Cholesky factor of {name} failed at iteration 0"
                assert np.geterr() == state


class TestMultiBlockCertificates:
    """Certificates on models that to_equality_form gives a diagonal slack
    block, so sum_k y_k A_k is checked on two blocks."""

    E00 = np.diag([1.0, 0.0])
    I2 = np.eye(2)
    # row sets on a psd 2x2 block that no X satisfies
    INFEASIBLE_ROWS = {
        "tr X <= -1": [(I2, SENSE_LE, -1.0)],
        "X00 >= 1, tr X <= 0.5": [(E00, SENSE_GE, 1.0), (I2, SENSE_LE, 0.5)],
        "X00 >= 1, X00 <= 0.5": [(E00, SENSE_GE, 1.0), (E00, SENSE_LE, 0.5)],
        "X00 == 1, tr X <= 0.5": [(E00, SENSE_EQ, 1.0), (I2, SENSE_LE, 0.5)],
        "tr X >= 2, tr X <= 1": [(I2, SENSE_GE, 2.0), (I2, SENSE_LE, 1.0)],
    }

    def test_infeasible_detected(self):
        # tr X <= -1 has y = -1, which gives -I on X and -1 on the slack,
        # with b.y = 1; the two-row models are small and strongly
        # infeasible.  Each is solved with cost I and with zero cost, and
        # y must satisfy b.y > 0 and sum_k y_k A_k <= 0 on every block.
        for name, rows in self.INFEASIBLE_ROWS.items():
            for cost in (1.0, 0.0):
                m = to_equality_form(SDPModel(
                    [Block(2)], [cost * np.eye(2)],
                    [LinearConstraint([A], sense, rhs) for A, sense, rhs in rows]))
                slacks = sum(sense != SENSE_EQ for _, sense, _ in rows)
                assert [b.size for b in m.blocks] == [2, slacks] and m.blocks[1].diagonal
                sol = solve(m)
                case = f"{name} with cost {cost}"
                assert sol.status == Status.INFEASIBLE, f"{case}: {sol.reason}"
                assert sol.reason, case
                by = float(sol.y @ [con.rhs for con in m.constraints])
                assert by > 0, case
                for i in range(len(m.blocks)):
                    S = sum(yk * con.matrices[i] for yk, con in zip(sol.y, m.constraints))
                    assert np.linalg.eigvalsh(S)[-1] <= 1e-6 * by, case

    def test_unbounded_detected(self):
        # min -X_00 with X_00 - X_11 >= 0: the ray X = E_00 has slack 1
        m = to_equality_form(SDPModel(
            [Block(2)], [-np.diag([1.0, 0.0])],
            [LinearConstraint([np.diag([1.0, -1.0])], SENSE_GE, 0.0)]))
        assert [b.size for b in m.blocks] == [2, 1] and m.blocks[1].diagonal
        assert solve(m).status == Status.UNBOUNDED


def random_psd(rng, n, diagonal=False):
    if diagonal:
        return np.diag(rng.uniform(0.5, 2.0, size=n))
    W = rng.normal(size=(n, n))
    return W @ W.T + n * np.eye(n)


def random_sym(rng, n):
    B = rng.normal(size=(n, n))
    return (B + B.T) / 2


def random_herm(rng, n):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (B + B.conj().T) / 2


def random_model(rng, sizes, m, hermitian=()):
    """Rows drawn block by block; the blocks listed in hermitian get
    Hermitian data, the others real symmetric data."""
    def draw(b, n):
        return random_herm(rng, n) if b in hermitian else random_sym(rng, n)

    return SDPModel([Block(n) for n in sizes], [np.eye(n) for n in sizes],
                    [LinearConstraint([draw(b, n) for b, n in enumerate(sizes)], SENSE_EQ, 1.0)
                     for _ in range(m)])


def hermitian_psd(rng, n):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return W @ W.conj().T + n * np.eye(n)


class TestStackedAssembly:
    """The stacked Schur assembly against the per-pair definition."""

    @staticmethod
    def per_pair_schur(model, X, Z):
        """M[k, l] = sum_b Re <A_kb, sym(X_b A_lb inv(Z_b))>, pair by pair."""
        Zi = [np.linalg.inv(Zb) for Zb in Z]
        cons = model.constraints
        M = np.empty((len(cons), len(cons)))
        for k, ck in enumerate(cons):
            for l, cl in enumerate(cons):
                M[k, l] = 0.0
                for Ak, Al, Xb, Zib in zip(ck.matrices, cl.matrices, X, Zi):
                    T = Xb @ Al @ Zib
                    M[k, l] += np.sum(np.conj(Ak) * (T + T.conj().T) / 2).real
        return M

    def check(self, model, seed):
        rng = np.random.default_rng(seed)
        sizes = [b.size for b in model.blocks]
        groups = _groups(sizes)
        real, C, A = _group(model.stacks(), groups)
        places = _places(groups, sizes)

        def psd(b, blk):
            return random_psd(rng, blk.size, blk.diagonal) if real[b] else hermitian_psd(rng, blk.size)

        X = [psd(b, blk) for b, blk in enumerate(model.blocks)]
        Z = [psd(b, blk) for b, blk in enumerate(model.blocks)]
        Lx = [np.linalg.cholesky(S) for S in _gather(X, places, C)]
        Lzi = [np.linalg.inv(np.linalg.cholesky(S)) for S in _gather(Z, places, C)]
        # the buffers' contents must not matter
        work = [(np.full_like(Ag, np.nan), np.full_like(Ag, np.nan)) for Ag in A]
        got = _schur(A, Lx, Lzi, work)
        want = self.per_pair_schur(model, X, Z)
        assert got.dtype == float
        assert np.array_equal(got, got.T)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_repeated_interleaved_sizes(self):
        model = random_model(np.random.default_rng(9), [3, 1, 3, 1, 1, 2], 7)
        assert _groups([b.size for b in model.blocks]) == [[0, 2], [1, 3, 4], [5]]
        self.check(model, 10)

    def test_single_constraint(self):
        self.check(random_model(np.random.default_rng(1), [5], 1), 2)

    def test_many_rows(self):
        # 100 rows on a 41x41 block, the size of CHSH level 4
        self.check(random_model(np.random.default_rng(3), [41], 100), 4)

    def test_diagonal_slack_block(self):
        rng = np.random.default_rng(5)
        senses = [SENSE_LE, SENSE_EQ, SENSE_GE, SENSE_LE, SENSE_EQ]
        model = SDPModel(
            [Block(4), Block(3)], [np.eye(4), np.eye(3)],
            [LinearConstraint([random_sym(rng, 4), random_sym(rng, 3)], sense, 1.0)
             for sense in senses])
        model = to_equality_form(model)
        assert [(b.size, b.diagonal) for b in model.blocks] == \
            [(4, False), (3, False), (3, True)]
        self.check(model, 6)

    def test_realified_hermitian_block(self):
        rng = np.random.default_rng(7)

        def herm(n):
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return (H + H.conj().T) / 2

        # the cost, then 6 rows, each drawn block by block
        rows = [[herm(3), herm(2)] for _ in range(7)]
        stacks = [np.array(mats) for mats in zip(*rows)]
        self.check(SDPModel.from_stacks(realify(stacks), [(SENSE_EQ, 1.0)] * 6), 8)

    def test_hermitian_blocks(self):
        self.check(random_model(np.random.default_rng(15), [3, 2, 3], 6,
                                hermitian=(0, 1, 2)), 16)

    def test_group_mixing_real_and_hermitian_blocks(self):
        # the two size-3 blocks share one complex stack
        self.check(random_model(np.random.default_rng(17), [3, 2, 3], 6,
                                hermitian=(2,)), 18)

    def test_permuted_constraints_same_bound(self):
        # CHSH at level 2: 61 equality rows on one 13x13 block
        chsh = Path(__file__).resolve().parent.parent / "problems" / "chsh.csdp"
        model = build_relaxation(parse_problem_file(str(chsh)), level=2).model
        assert len(model.constraints) == 61 and model.is_equality_only()
        perm = np.random.default_rng(11).permutation(len(model.constraints))
        permuted = SDPModel(model.blocks, model.cost,
                            [model.constraints[k] for k in perm])
        s1, s2 = solve(model, TIGHT), solve(permuted, TIGHT)
        assert s1.status == s2.status == Status.OPTIMAL
        assert abs(s1.primal_value - s2.primal_value) <= 1e-9


class TestSolveReadsTheModel:
    """A size group of one block is a view of the model's own stack."""

    @staticmethod
    def check(model):
        groups = _groups([b.size for b in model.blocks])
        assert all(len(g) == 1 for g in groups)
        _, C, A = _group(model.stacks(), groups)
        for (i,), Cg, Ag in zip(groups, C, A):
            assert np.shares_memory(Cg, model.cost[i])
            assert np.shares_memory(Ag, model.constraints[-1].matrices[i])

    @pytest.mark.parametrize("name, level", [
        ("chsh", 1), ("i3322", 1), ("i3322", 2), ("phased_involution", 2),
    ], ids=["chsh-L1", "i3322-L1", "i3322-L2", "phased_involution-L2"])
    def test_relaxation(self, name, level):
        path = Path(__file__).resolve().parent.parent / "problems" / f"{name}.csdp"
        lmi = build_relaxation(parse_problem_file(str(path)), level=level)._lmi
        assert len(lmi.blocks) == 1
        self.check(lmi)

    def test_imported_sdpa(self):
        rng = np.random.default_rng(21)
        self.check(import_sdpa(export_sdpa(random_model(rng, [4, 2], 5))))


def bounded_feasible_model(rng, sizes, m):
    """Positive definite cost and rows satisfied by a positive definite
    point, so the SDP has an optimum."""
    X0 = [random_psd(rng, n) for n in sizes]
    A = [[random_sym(rng, n) for n in sizes] for _ in range(m)]
    return SDPModel([Block(n) for n in sizes], [random_psd(rng, n) for n in sizes],
                    [LinearConstraint(Ak, SENSE_EQ,
                                      float(sum(np.vdot(Akb, Xb) for Akb, Xb in zip(Ak, X0))))
                     for Ak in A])


class TestGroupedBlocks:
    """Blocks of equal size share one (k, n, n) stack inside the solver."""

    def test_block_order_survives_grouping(self):
        sizes = [3, 1, 3, 2, 1, 3]
        model = bounded_feasible_model(np.random.default_rng(13), sizes, 8)
        perm = [5, 1, 3, 0, 4, 2]
        permuted = SDPModel([model.blocks[i] for i in perm], [model.cost[i] for i in perm],
                            [LinearConstraint([con.matrices[i] for i in perm],
                                              con.sense, con.rhs)
                             for con in model.constraints])
        s1, s2 = solve(model, TIGHT), solve(permuted, TIGHT)
        assert s1.status == s2.status == Status.OPTIMAL
        assert abs(s1.primal_value - s2.primal_value) <= 1e-9 * (1 + abs(s1.primal_value))
        for sol, order in ((s1, sizes), (s2, [sizes[i] for i in perm])):
            assert [X.shape for X in sol.X] == [Z.shape for Z in sol.Z] == \
                [(n, n) for n in order]
        for j, i in enumerate(perm):
            assert np.allclose(s2.X[j], s1.X[i], atol=1e-6)
            assert np.allclose(s2.Z[j], s1.Z[i], atol=1e-6)
        assert feasibility_check(model, s1.X).max_violation <= 1e-8

    def test_reduced_solve_is_deterministic(self):
        rep = dihedral_rep(16)
        red = reduce_sdp(invariant_instance(rep, 4, np.random.default_rng(14)), rep)
        sizes = [b.size for b in red.model.blocks]
        assert len(sizes) > len(set(sizes))
        s1, s2 = solve(red.model, TIGHT), solve(red.model, TIGHT)
        assert s1.status == Status.OPTIMAL
        assert s1.history == s2.history

    def test_real_and_hermitian_blocks_share_a_stack(self):
        # min <C1, X1> + <C2, X2> with tr X1 + tr X2 = 1 over a real and a
        # Hermitian block of one size: the smaller of the two smallest
        # eigenvalues; the real block's X comes back real
        rng = np.random.default_rng(19)
        for trial in range(3):
            C1, C2 = random_sym(rng, 3), random_herm(rng, 3)
            m = SDPModel([Block(3), Block(3)], [C1, C2],
                         [LinearConstraint([np.eye(3), np.eye(3)], SENSE_EQ, 1.0)])
            sol = solve(m, TIGHT)
            want = min(np.linalg.eigvalsh(C1)[0], np.linalg.eigvalsh(C2)[0])
            assert sol.status == Status.OPTIMAL
            assert abs(sol.primal_value - want) <= 1e-8
            assert sol.X[0].dtype == float and sol.X[1].dtype == complex
            assert feasibility_check(m, sol.X).max_violation <= 1e-8


def coupled_model(rng, m=4):
    """A real 3 x 3, a Hermitian 2 x 2 and a real 1 x 1 block that every
    row couples, with a positive definite cost and a positive definite
    feasible point, so the SDP has an optimum."""
    sizes, draws = [3, 2, 1], [random_sym, random_herm, random_sym]
    X0 = [random_psd(rng, 3), hermitian_psd(rng, 2), random_psd(rng, 1)]
    rows = []
    for _ in range(m):
        Ak = [draw(rng, n) for draw, n in zip(draws, sizes)]
        rows.append(LinearConstraint(Ak, SENSE_EQ,
                                     float(sum(np.vdot(A, X).real for A, X in zip(Ak, X0)))))
    cost = [random_psd(rng, 3), hermitian_psd(rng, 2), random_psd(rng, 1)]
    return SDPModel([Block(n) for n in sizes], cost, rows)


class TestMergedBlocks:
    """A small model of several block sizes is solved as one block-diagonal
    matrix, and the solution comes back block by block."""

    @staticmethod
    def stacks_of(sol):
        """The solver's own X-Z stacks, which the returned blocks view."""
        return [X.base for X in sol.X]

    def test_rule_sides(self):
        # the benchmark's multi-size LMIs: CHSH level 2 and the Hermitian
        # ladder's level 2 merge; CHSH levels 3-4 and the ladder's level 3
        # keep one stack per size; a model of one size has nothing to merge
        assert _merges([9, 4], 18) and _merges([7, 3], 30) and _merges([4, 3], 3)
        assert not _merges([9, 16], 36) and not _merges([25, 16], 60)
        assert not _merges([7, 15], 126)
        assert not _merges([3, 3, 3], 5) and not _merges([], 0)

    def test_blocks_come_back_in_model_order(self, monkeypatch):
        model = coupled_model(np.random.default_rng(51))
        assert _merges([3, 2, 1], 4)
        sol = solve(model, TIGHT)
        assert sol.status == Status.OPTIMAL, sol.reason
        for got in (sol.X, sol.Z):
            assert [B.shape for B in got] == [(3, 3), (2, 2), (1, 1)]
            assert [B.dtype for B in got] == [float, complex, float]
        assert feasibility_check(model, sol.X).max_violation <= 1e-8
        # X and Z are views of one complex (2, 6, 6) stack, exactly zero
        # off the diagonal blocks
        XZ = self.stacks_of(sol)[0]
        assert all(S is XZ for S in self.stacks_of(sol) + [Z.base for Z in sol.Z])
        assert XZ.shape == (2, 6, 6) and XZ.dtype == complex
        off = np.ones((6, 6), dtype=bool)
        for s in (slice(0, 3), slice(3, 5), slice(5, 6)):
            off[s, s] = False
        assert np.count_nonzero(XZ[:, off]) == 0
        # the blockwise solve, up to rounding
        monkeypatch.setattr("starsdp.ipm._merges", lambda sizes, m: False)
        blockwise = solve(model, TIGHT)
        assert len({id(S) for S in self.stacks_of(blockwise)}) == 3
        assert blockwise.status == sol.status and blockwise.iterations == sol.iterations
        assert (abs(blockwise.primal_value - sol.primal_value)
                <= 1e-12 * (1 + abs(sol.primal_value)))

    def test_warm_start(self):
        model = coupled_model(np.random.default_rng(53))
        cold = solve(model, TIGHT)
        X0 = [np.eye(3), np.eye(2, dtype=complex), np.eye(1)]
        Z0 = [2.0 * B for B in X0]
        warm = solve(model, TIGHT, start=(X0, np.zeros(4), Z0))
        assert cold.status == warm.status == Status.OPTIMAL
        assert abs(warm.primal_value - cold.primal_value) <= 1e-7 * (1 + abs(cold.primal_value))
        assert [B.dtype for B in warm.X] == [float, complex, float]

    def test_other_side_keeps_a_stack_per_size(self):
        # sizes 9 and 16 with 36 rows, the shape of CHSH level 3
        model = bounded_feasible_model(np.random.default_rng(55), [9, 16, 9], 36)
        assert not _merges([9, 16, 9], 36)
        sol = solve(model)
        assert sol.status == Status.OPTIMAL, sol.reason
        stacks = self.stacks_of(sol)
        assert stacks[0] is stacks[2] and stacks[0].shape == (4, 9, 9)
        assert stacks[1].shape == (2, 16, 16)


class TestStart:
    """A warm start is checked before any work, its faults named."""

    MODEL = SDPModel([Block(2), Block(1)], [np.eye(2), np.eye(1)],
                     [LinearConstraint([np.eye(2), np.eye(1)], SENSE_EQ, 1.0)])

    @pytest.mark.parametrize("X, y, Z, message", [
        ([np.eye(2)], [0.0], [np.eye(2), np.eye(1)], "start X has 1 blocks, the model 2"),
        ([np.eye(2), np.eye(1)], [0.0], [np.eye(2), np.eye(1), np.eye(1)],
         "start Z has 3 blocks, the model 2"),
        ([np.eye(2), np.eye(2)], [0.0], [np.eye(2), np.eye(1)],
         "start X block 1: shape (2, 2) does not match block size 1"),
        ([np.eye(2), np.eye(1)], [0.0], [np.ones(2), np.eye(1)],
         "start Z block 0: shape (2,) does not match block size 2"),
        ([np.eye(2), np.eye(1)], [0.0, 0.0], [np.eye(2), np.eye(1)],
         "start y: shape (2,) does not match 1 constraints"),
        ([np.eye(2), np.eye(1)], [np.nan], [np.eye(2), np.eye(1)],
         "start y has a non-finite entry"),
        ([np.diag([1.0, np.nan]), np.eye(1)], [0.0], [np.eye(2), np.eye(1)],
         "start X block 0: matrix has a non-finite entry"),
        ([np.eye(2), np.eye(1)], [0.0], [np.eye(2), np.full((1, 1), np.inf)],
         "start Z block 1: matrix has a non-finite entry"),
    ], ids=["X count", "Z count", "X shape", "Z shape", "y length", "y nan", "X nan", "Z inf"])
    def test_fault_is_named(self, X, y, Z, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError) as err:
                solve(self.MODEL, start=(X, np.array(y), Z))
        assert str(err.value) == message

    def test_good_start(self):
        sol = solve(self.MODEL, start=([np.eye(2), np.eye(1)], np.zeros(1),
                                       [np.eye(2), np.eye(1)]))
        assert sol.status == Status.OPTIMAL

    # a real 2 x 2 block alone, beside a Hermitian 3 x 3 block (merged into
    # one complex matrix) and beside a Hermitian 2 x 2 block (one complex stack)
    REAL_BESIDE = {
        "alone": SDPModel([Block(2)], [np.eye(2)],
                          [LinearConstraint([np.eye(2)], SENSE_EQ, 1.0)]),
        **{f"beside-hermitian-{n}": SDPModel(
            [Block(2), Block(n)],
            [np.eye(2), np.eye(n) + 0.25j * (np.eye(n, k=1) - np.eye(n, k=-1))],
            [LinearConstraint([np.eye(2), np.eye(n)], SENSE_EQ, 1.0)]) for n in (3, 2)},
    }

    @staticmethod
    def eye_start(model):
        return [np.eye(b.size) for b in model.blocks]

    @pytest.mark.parametrize("name", REAL_BESIDE)
    @pytest.mark.parametrize("which", ["X", "Z"])
    def test_imaginary_part_in_real_block_is_named(self, name, which):
        model = self.REAL_BESIDE[name]
        assert _merges([b.size for b in model.blocks], 1) == (name == "beside-hermitian-3")
        X, Z = self.eye_start(model), self.eye_start(model)
        (X if which == "X" else Z)[0] = np.array([[1.0, 1j], [-1j, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError) as err:
                solve(model, start=(X, np.zeros(1), Z))
        assert str(err.value) == (f"start {which} block 0: matrix has a nonzero imaginary "
                                  "part where the model's block is real")

    @pytest.mark.parametrize("name", REAL_BESIDE)
    def test_complex_typed_real_start_is_its_real_part(self, name):
        model = self.REAL_BESIDE[name]
        X = [np.array([[1.0, 0.5], [0.5, 2.0]])] + self.eye_start(model)[1:]
        want = solve(model, TIGHT, start=(X, np.zeros(1), self.eye_start(model)))
        X[0] = X[0].astype(complex)
        Z = [B.astype(complex) for B in self.eye_start(model)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve(model, TIGHT, start=(X, np.zeros(1), Z))
        assert got.status == want.status == Status.OPTIMAL
        assert got.iterations == want.iterations
        assert np.array_equal(got.y, want.y)
        assert all(np.array_equal(a, b) for a, b in zip(got.X + got.Z, want.X + want.Z))
        assert not np.iscomplexobj(got.X[0])


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs, field", [
        ({"max_iter": -1}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": True}, "max_iter"), ({"max_iter": None}, "max_iter"),
        ({"tol_gap": float("nan")}, "tol_gap"), ({"tol_gap": -1e-9}, "tol_gap"),
        ({"tol_feas": float("inf")}, "tol_feas"), ({"tol_feas": -np.inf}, "tol_feas"),
        ({"tol_feas": "1e-8"}, "tol_feas"),
    ])
    def test_bad_value_is_named(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            SolverOptions(**kwargs)

    def test_limits_are_allowed(self):
        # no iteration: the start itself is reported, with its reason
        sol = solve(pin_entry_model(2, np.eye(2), 0, 0, 1.0),
                    SolverOptions(tol_gap=0, tol_feas=0.0, max_iter=np.int64(0)))
        assert sol.status == Status.MAX_ITER and sol.iterations == 0
        assert sol.reason.startswith("iteration limit 0 reached")


def random_dense_models():
    """Five 4 x 4 models with three random rows each."""
    rng = np.random.default_rng(3)
    for trial in range(5):
        Q = rng.normal(size=(4, 4))
        C = (Q + Q.T) / 2 + 4 * np.eye(4)
        rows = []
        for _ in range(3):
            B = rng.normal(size=(4, 4))
            rows.append(LinearConstraint([(B + B.T) / 2], SENSE_EQ,
                                         float(rng.normal())))
        yield SDPModel([Block(4)], [C], rows)


class TestIterateInvariants:
    def test_mu_monotone(self):
        for m in random_dense_models():
            sol = solve(m)
            mus = [h.mu for h in sol.history]
            for a, b in zip(mus, mus[1:]):
                assert b <= a * (1 + 1e-9)

    def test_step_solves_the_newton_system(self):
        # a step of length alpha that solves the Newton system removes the
        # share alpha rho of both residuals, tau b - A(X) and tau C - Z -
        # sum_k y_k A_k: the two shrink by the same factor 1 - alpha rho
        steps = 0
        for m in random_dense_models():
            history = solve(m).history
            for a, b in zip(history, history[1:]):
                if a.dual_res <= 1e-6:
                    break
                primal = (b.primal_res * b.tau) / (a.primal_res * a.tau)
                dual = (b.dual_res * b.tau) / (a.dual_res * a.tau)
                assert abs(primal - dual) <= 1e-8
                steps += 1
        assert steps >= 20

    def test_weak_duality_on_feasible_iterates(self):
        # from a primal-dual feasible start both residuals stay at zero, so
        # dual <= primal must hold at every iterate up to float noise
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = 3
            W = rng.normal(size=(n, n))
            X0 = W @ W.T + np.eye(n)
            rows = []
            for _ in range(2):
                B = rng.normal(size=(n, n))
                Asym = (B + B.T) / 2
                rows.append(LinearConstraint([Asym], SENSE_EQ,
                                             float(np.sum(Asym * X0))))
            V = rng.normal(size=(n, n))
            Z0 = V @ V.T + np.eye(n)
            y0 = rng.normal(size=2)
            C = Z0 + sum(y0[k] * rows[k].matrices[0] for k in range(2))
            m = SDPModel([Block(n)], [C], rows)
            sol = solve(m, start=([X0], y0, [Z0]))
            assert sol.status == Status.OPTIMAL
            for h in sol.history:
                assert h.primal_res <= 1e-9
                assert h.dual_res <= 1e-9
                assert h.dual <= h.primal + 1e-10 * (1 + abs(h.primal))

    def test_phase_timings(self):
        m = pin_entry_model(3, np.eye(3), 0, 1, 1.0)
        t0 = time.perf_counter()
        sol = solve(m)
        wall = time.perf_counter() - t0
        assert set(sol.timings) == {"schur", "newton", "step"}
        assert all(t > 0.0 for t in sol.timings.values())
        assert sum(sol.timings.values()) <= wall

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(9)
        Q = rng.normal(size=(5, 5))
        C = (Q + Q.T) / 2 + 5 * np.eye(5)
        rows = []
        for _ in range(4):
            B = rng.normal(size=(5, 5))
            rows.append(LinearConstraint([(B + B.T) / 2], SENSE_EQ,
                                         float(rng.normal())))
        m = SDPModel([Block(5)], [C], rows)
        s1 = solve(m)
        s2 = solve(m)
        assert s1.primal_value == s2.primal_value
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.X[0], s2.X[0])
        assert np.array_equal(s1.y, s2.y)


def acceptance_draw(round_, commuting, trial):
    """A problem from the seed-404 draw of the acceptance test
    test_hierarchy_monotone_on_random_instances, continued over rounds of
    20 commuting and 10 free problems as the benchmark's hierarchy-pool
    does: round 0 is the acceptance test's own draw."""
    rng = np.random.default_rng(404)
    for r in range(round_ + 1):
        for t in range(20):
            k = int(rng.integers(1, 4))
            problem = random_involution_problem(rng, k, True, 2 if t % 2 == 0 else 4)
            if (r, True, t) == (round_, commuting, trial):
                return problem
        for t in range(10):
            k = int(rng.integers(2, 4))
            problem = random_involution_problem(rng, k, False, 2 if t % 2 == 0 else 4)
            if (r, False, t) == (round_, commuting, trial):
                return problem
            for _ in range(3):
                reflection_realization(problem.presentation, rng)
    raise ValueError("no such draw")


class TestDegenerateEndgame:
    """Relaxations of random involution problems whose optima are
    degenerate, solved to the acceptance test's tolerances.  Each of the
    three draws once ended NUMERICAL near its optimum; each now ends OPTIMAL
    with M factored by Cholesky at every iteration, so they pin the endgame
    of the embedding, not the eigen fallback of _psd_solver."""

    @staticmethod
    def solve_tight(problem, level, sizes, rows):
        relax = build_relaxation(problem, level=level)
        assert [b.size for b in relax.model.blocks] == sizes
        assert len(relax.model.constraints) == rows
        sol = relax.solve(TIGHT).solution
        assert sol.status == Status.OPTIMAL, \
            f"{sol.status.name} after {sol.iterations} iterations, gap " \
            f"{sol.gap:.2e}, primal residual {sol.primal_res:.2e}"
        assert sol.gap <= TIGHT.tol_gap
        assert sol.primal_res <= TIGHT.tol_feas

    def test_schur_rank_loss_keeps_primal_feasible(self):
        # free trial 9 at level 2: X and Z lose rank together and cond(M)
        # reaches 5e10; OPTIMAL after 9 iterations
        self.solve_tight(acceptance_draw(0, False, 9), 2, [5], 9)

    def test_unequal_step_lengths_fall_back_to_common_length(self):
        # third-round free trial 4 at level 1: separate primal and dual
        # step lengths once stalled it (ap = 1, ad = 0.27); OPTIMAL after 8
        # iterations at one common length
        self.solve_tight(acceptance_draw(2, False, 4), 1, [4], 4)

    def test_common_length_fallback_on_commuting_draw(self):
        # round-35 commuting trial 14 at level 1: separate step lengths once
        # ended it NUMERICAL after 5 iterations, gap 2.6e-4; OPTIMAL after 9
        # iterations at one common length
        self.solve_tight(acceptance_draw(35, True, 14), 1, [3], 3)

    def test_singular_schur_matrix_is_not_perturbed(self):
        # rounding leaves a dependent direction of M slightly negative, so
        # Cholesky fails; the solve must be exact on the range of M
        rng = np.random.default_rng(21)
        V = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        M = V @ np.diag([1e4, 1.0, 1e-3, -1e-12]) @ V.T
        x = V[:, :3] @ rng.normal(size=3)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M)
        solver = _psd_solver(M)
        got = solver(M @ x)
        assert np.linalg.norm(got - x) <= 1e-7 * np.linalg.norm(x)
        # two right-hand sides at once, as the predictor solves them
        X2 = np.column_stack([x, V[:, :3] @ rng.normal(size=3)])
        got = solver(M @ X2)
        assert got.shape == (4, 2)
        assert np.linalg.norm(got - X2) <= 1e-7 * np.linalg.norm(X2)

    def test_pivot_at_rounding_level_is_no_factor(self):
        # the last pivot of this M is 2^-50, far under eps * 1e4, so its
        # Cholesky factor, which LAPACK returns, carries nothing: the solve
        # drops the direction e3 - e2, which that factor would blow up to
        # 2^51, and stays exact on the range
        M = np.array([[1e4, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 2.0 ** -50]])
        assert np.diag(np.linalg.cholesky(M))[-1] ** 2 == 2.0 ** -50
        solver = _psd_solver(M)
        assert np.linalg.norm(solver(np.array([0.0, -1.0, 1.0]))) <= 1e-12
        x = np.array([1.0, 2.0, 2.0])
        assert np.linalg.norm(solver(M @ x) - x) <= 1e-12

    def test_cholesky_solve_is_li_t_li_rhs(self):
        # with L the Cholesky factor of M and Li = inv(L), the solve of
        # both columns is Li.T @ (Li @ rhs) exactly
        rng = np.random.default_rng(31)
        W = rng.normal(size=(30, 30))
        M = W @ W.T + 30 * np.eye(30)
        rhs = rng.normal(size=(30, 2))
        Li = _tril_inv(np.linalg.cholesky(M))
        got = _psd_solver(M)(rhs)
        assert np.array_equal(got, Li.T @ (Li @ rhs))
        want = np.linalg.solve(M, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestTrilInv:
    """The triangular inverse by halves against LAPACK's general inverse."""

    @staticmethod
    def check(L):
        eye = np.eye(len(L))
        got = np.linalg.norm(L @ _tril_inv(L) - eye)
        want = np.linalg.norm(L @ np.linalg.inv(L) - eye)
        assert got <= 10 * want

    @pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 150, 210])
    def test_cholesky_factor(self, n):
        W = np.random.default_rng(n).normal(size=(n, n))
        self.check(np.linalg.cholesky(W @ W.T + n * np.eye(n)))

    def test_ill_conditioned_factor(self):
        W = np.random.default_rng(29).normal(size=(150, 150))
        # scaling the columns of a well-conditioned factor
        L = np.linalg.cholesky(W @ W.T + 150 * np.eye(150)) * np.logspace(0, -12, 150)
        assert 1e11 < np.linalg.cond(L) < 1e13
        self.check(L)


class TestRoundTrips:
    def test_sdpa_round_trip_preserves_optimum(self):
        rng = np.random.default_rng(13)
        Q = rng.normal(size=(3, 3))
        C = (Q + Q.T) / 2 + 3 * np.eye(3)
        rows = []
        for _ in range(2):
            B = rng.normal(size=(3, 3))
            rows.append(LinearConstraint([(B + B.T) / 2], SENSE_EQ,
                                         float(rng.normal())))
        m = SDPModel([Block(3)], [C], rows)
        v1 = solve(m).primal_value
        v2 = solve(import_sdpa(export_sdpa(m))).primal_value
        assert abs(v1 - v2) <= 1e-8

    def test_hermitian_optimum(self):
        # min <C, X> over Hermitian psd X with tr X = 1 picks out the
        # smallest eigenvalue of C, on the Hermitian block itself; the
        # realify image of the model, twice the size, has the same optimum
        rng = np.random.default_rng(17)
        for trial in range(4):
            H = random_herm(rng, 3)
            stack = np.array([H, np.eye(3)])
            sol = solve(SDPModel.from_stacks([stack], [(SENSE_EQ, 1.0)]))
            lam = float(np.linalg.eigvalsh(H)[0])
            assert sol.status == Status.OPTIMAL
            assert abs(sol.primal_value - lam) <= 1e-7
            assert sol.X[0].dtype == complex and sol.X[0].shape == (3, 3)
            assert np.allclose(sol.X[0], sol.X[0].conj().T)
            if trial == 0:
                image = solve(SDPModel.from_stacks(realify([stack]), [(SENSE_EQ, 1.0)]))
                assert image.status == Status.OPTIMAL
                assert abs(image.primal_value - sol.primal_value) <= 1e-7

class TestStepLength:
    def test_stacked_step_is_the_least_of_the_separate_ones(self):
        # one eigvalsh on the X and Z stacks together gives the same float as
        # the smaller of the two cones' steps taken one at a time
        def separate(Li, D):
            W = Li @ D @ np.conj(Li).swapaxes(-1, -2)
            lam = float(np.linalg.eigvalsh((W + np.conj(W).swapaxes(-1, -2)) / 2)[:, 0].min())
            return np.inf if lam >= -1e-14 else -1.0 / lam

        rng = np.random.default_rng(23)
        for trial in range(6):
            draw = random_herm if trial % 2 else random_sym
            S = [np.array([random_psd(rng, 4) for _ in range(3)]) for _ in range(2)]
            # the inverse factor of X and Z as one stack, as solve takes it
            Li = np.linalg.inv(np.linalg.cholesky(np.concatenate(S)))
            D = [np.array([draw(rng, 4) * 2.0 ** (trial - 2) for _ in range(3)])
                 for _ in range(2)]
            if trial == 5:
                D[0] = np.array([np.eye(4)] * 3)      # X is not pushed out
            want = min(separate(Li[:3], D[0]), separate(Li[3:], D[1]))
            assert _max_step(Li, np.concatenate(D)) == want

    def test_no_boundary_in_reach(self):
        eye = np.array([np.eye(2)])
        assert _max_step(np.concatenate([eye, eye]), np.concatenate([eye, 2 * eye])) == np.inf


class TestLapackCalls:
    """The solver's direct LAPACK calls against numpy.linalg's."""

    @pytest.mark.parametrize("psd", [random_psd, hermitian_psd], ids=["real", "complex"])
    def test_bit_for_bit_numpy_linalg(self, psd):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 5, 8, 49):
            S = np.array([psd(rng, n) for _ in range(4)])
            L = np.linalg.cholesky(S)
            got, Li = _factor(S)
            assert np.array_equal(got, L)
            assert np.array_equal(Li, np.linalg.inv(L))
            assert np.array_equal(_eigvalsh(S), np.linalg.eigvalsh(S))
            assert np.array_equal(_factor(S[0])[0], L[0])

    def test_failure_raises_without_warning(self):
        rng = np.random.default_rng(47)
        S = np.array([random_psd(rng, 3) for _ in range(3)])
        S[1] = np.diag([1.0, -1.0, 1.0])                 # indefinite
        state = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _factor(S) is None
            # the Schur matrix's factor fails under the same error state,
            # and the solve falls back to the eigendecomposition
            x = _psd_solver(S[1])(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(x, [1.0, 0.0, 0.0])
        # the error state is restored, and the other matrices still factor
        assert np.geterr() == state
        assert np.array_equal(_factor(S[[0, 2]])[0], np.linalg.cholesky(S[[0, 2]]))

    def test_empty_stacks(self):
        # a 0 x 0 Schur matrix, as a model without rows gives, and a group
        # of no blocks
        for shape in [(0, 0), (2, 0, 0), (0, 3, 3)]:
            E = np.zeros(shape)
            L, Li = _factor(E)
            assert L.shape == Li.shape == shape
            assert _eigvalsh(E).shape == shape[:-1]
        assert _psd_solver(np.zeros((0, 0)))(np.zeros(0)).shape == (0,)

    def test_model_without_blocks(self):
        sol = solve(SDPModel([], [], []))
        assert sol.status == Status.OPTIMAL and sol.iterations == 0
        assert sol.X == [] and sol.Z == [] and len(sol.y) == 0

    @pytest.mark.parametrize("rhs", [1.0, -2.0, 0.0])
    def test_row_without_blocks(self, rhs):
        # 0 = rhs: infeasible unless rhs = 0, with the dual ray y = rhs,
        # since no cone constrains the dual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(SDPModel([], [], [LinearConstraint([], SENSE_EQ, rhs)]))
        assert sol.iterations == 0 and sol.X == [] and sol.Z == []
        assert sol.status == (Status.OPTIMAL if rhs == 0 else Status.INFEASIBLE)
        assert sol.y.tolist() == [rhs]


class TestFeasibilityReport:
    def test_hermitian_candidate(self):
        # a Hermitian candidate is read as it is, without a ComplexWarning
        rng = np.random.default_rng(29)
        H, A = random_herm(rng, 3), random_herm(rng, 3)
        X = hermitian_psd(rng, 3)
        m = SDPModel([Block(3)], [H], [LinearConstraint([A], SENSE_EQ, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = feasibility_check(m, [X])
        assert rep.objective == pytest.approx(np.trace(H @ X).real, abs=1e-12)
        assert rep.residuals[0] == pytest.approx(np.trace(A @ X).real - 0.5, abs=1e-12)
        assert rep.min_eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(X)[0], abs=1e-12)

    def test_reports_violations_by_sense(self):
        m = SDPModel(
            [Block(2)], [np.eye(2)],
            [
                LinearConstraint([np.eye(2)], SENSE_LE, 1.0),
                LinearConstraint([np.eye(2)], SENSE_EQ, 3.0),
            ],
        )
        rep = feasibility_check(m, [np.eye(2)])
        assert rep.min_eigenvalues[0] >= 1.0 - 1e-12
        assert rep.violations[0] == pytest.approx(1.0)   # tr = 2 > 1
        assert rep.violations[1] == pytest.approx(1.0)   # |2 - 3|
        assert rep.objective == pytest.approx(2.0)

    def test_matches_its_definition(self):
        # residual_k = sum_b Re vdot(A_kb, X_b) - rhs_k on a real, a Hermitian
        # and a diagonal block, with a complex X that is not Hermitian
        rng = np.random.default_rng(41)
        blocks = [Block(3), Block(2), Block(2, diagonal=True)]

        def draw():
            B = rng.normal(size=(3, 3))
            return [B + B.T, random_herm(rng, 2), np.diag(rng.normal(size=2))]

        rows = [LinearConstraint(draw(), sense, float(rng.normal()))
                for sense in (SENSE_LE, SENSE_GE, SENSE_EQ, SENSE_LE, SENSE_GE)]
        m = SDPModel(blocks, draw(), rows)
        X = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (3, 2, 2)]
        rep = feasibility_check(m, X)

        def pair(mats):
            return sum(np.vdot(A, Xb).real for A, Xb in zip(mats, X))

        for con, r, v in zip(rows, rep.residuals, rep.violations):
            value = pair(con.matrices) - con.rhs
            violation = {SENSE_LE: max(value, 0.0), SENSE_GE: max(-value, 0.0),
                         SENSE_EQ: abs(value)}[con.sense]
            assert abs(r - value) <= 1e-12 and abs(v - violation) <= 1e-12
        assert len(rep.residuals) == len(rep.violations) == len(rows)
        assert abs(rep.objective - pair(m.cost)) <= 1e-12

    def test_block_count_mismatch(self):
        m = SDPModel([Block(2), Block(1)], [np.eye(2), np.eye(1)], [])
        with pytest.raises(ModelError, match="^block count mismatch in feasibility check$"):
            feasibility_check(m, [np.eye(2)])

    def test_block_shape_mismatch(self):
        m = SDPModel([Block(2), Block(1)], [np.eye(2), np.eye(1)], [])
        with pytest.raises(ModelError, match="^block shape mismatch in feasibility check$"):
            feasibility_check(m, [np.eye(2), np.eye(2)])

    def test_negative_eigenvalue_counts(self):
        m = SDPModel([Block(2)], [np.eye(2)], [])
        rep = feasibility_check(m, [np.diag([1.0, -0.5])])
        assert rep.max_violation == pytest.approx(0.5)

    def test_several_blocks_match_a_plain_loop(self):
        # the two size-3 blocks sit apart, so an order by size is not model order
        rng = np.random.default_rng(5)
        sizes = [3, 1, 3, 2]

        def sym(n):
            M = rng.standard_normal((n, n))
            return M + M.T

        rows = [LinearConstraint([sym(n) for n in sizes], sense, float(rng.standard_normal()))
                for sense in (SENSE_LE, SENSE_EQ, SENSE_GE, SENSE_LE, SENSE_GE, SENSE_EQ)]
        m = SDPModel([Block(n) for n in sizes], [sym(n) for n in sizes], rows)
        # block b's smallest eigenvalue lies near 10 b, apart from the others
        X = [sym(n) * 0.1 + 10.0 * b * np.eye(n) for b, n in enumerate(sizes)]
        rep = feasibility_check(m, X)

        assert rep.min_eigenvalues == pytest.approx(
            [np.linalg.eigvalsh(Xb)[0] for Xb in X], abs=1e-12)
        assert np.argsort(rep.min_eigenvalues).tolist() == [0, 1, 2, 3]
        assert len(rep.residuals) == len(rep.violations) == len(rows)
        for con, r, v in zip(rows, rep.residuals, rep.violations):
            value = sum(float(np.sum(A * Xb)) for A, Xb in zip(con.matrices, X)) - con.rhs
            violation = {SENSE_LE: max(value, 0.0), SENSE_GE: max(-value, 0.0),
                         SENSE_EQ: abs(value)}[con.sense]
            assert r == pytest.approx(value, abs=1e-12)
            assert v == pytest.approx(violation, abs=1e-12)
        assert rep.objective == pytest.approx(
            sum(float(np.sum(C * Xb)) for C, Xb in zip(m.cost, X)), abs=1e-12)
