"""Relaxation construction and end-to-end bounds on hand-solved problems."""

import cmath
import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import starsdp.ipm as ipm
import starsdp.relaxation as rx
from starsdp.algebra import (
    Polynomial, UNIT_WORD, Word, apply_signed, normal_form, poly_mul, symmetry_chain,
)
from starsdp.problems import parse_polynomial, parse_problem, parse_problem_file, word_to_str
from starsdp.oracles import (
    ConcreteRealization, chsh_tsirelson_realization, realize_moments, grid_min,
)
from starsdp.ipm import SolverOptions, Status, feasibility_check, solve
from starsdp.sdpmodel import SDPModel, to_equality_form
from support import random_involution_problem, reflection_realization

TIGHT = SolverOptions(tol_gap=1e-9, tol_feas=1e-9)

CHSH_TEXT = """
[generators]
A0 selfadjoint
A1 selfadjoint
B0 selfadjoint
B1 selfadjoint

[relations]
A0^2 = 1
A1^2 = 1
B0^2 = 1
B1^2 = 1

[commute]
{A0, A1} with {B0, B1}

[objective]
maximize A0*B0 + A1*B1 + A0*B1 - A1*B0
"""

QUARTIC_TEXT = """
[generators]
x selfadjoint

[objective]
minimize x^4 - x^2

[options]
level = 2
"""

PINNED_TEXT = """
[generators]
x selfadjoint

[objective]
minimize x^2

[constraints]
x == 1

[options]
level = 1
"""

LASSERRE_TEXT = QUARTIC_TEXT + """
[positive]
1 - x^2
"""

PHASED_TEXT = """
[generators]
u

[relations]
u' = i*u
u^2 = -i*1

[objective]
minimize u + u'
"""

LADDER_TEXT = """
[generators]
x selfadjoint
y selfadjoint
z selfadjoint

[relations]
x^2 = 1
y^2 = 1
z^2 = 1

[objective]
maximize i*x*y - i*y*x + i*y*z - i*z*y + i*z*x - i*x*z
"""

# 1 - x keeps x, so of the ladder's group only the swap y <-> z composed
# with conjugation remains, which makes the localizing block real as well
LADDER_LOCALIZING_TEXT = LADDER_TEXT + "[positive]\n1 - x\n"

INVOLUTION_TEXT = """
[generators]
x selfadjoint

[relations]
x^2 = 1

[objective]
minimize x

[options]
level = 1
"""

THREE_INEQUALITIES_TEXT = """
[generators]
x selfadjoint
y selfadjoint

[relations]
x^2 = 1
y^2 = 1

[commute]
{x} with {y}

[objective]
minimize x + y + x*y

[constraints]
x >= -0.5
y >= -0.75
x*y >= -0.5

[options]
level = 1
"""

# u* = 2u: the moment of u is zero, since conj y_u = 2 y_u
SCALED_ADJOINT_TEXT = """
[generators]
u

[relations]
u' = 2*u

[objective]
minimize u + u'
"""

# b' = a without b = a': the presentation is not closed under the adjoint
ONE_WAY_TEXT = """
[generators]
a
b

[relations]
b' = a

[objective]
minimize a*b + b'*a' + a + a'

[constraints]
a*a' <= 1
"""

PHASED_ONE_WAY_TEXT = """
[generators]
a
b

[relations]
b' = i*a

[objective]
minimize a + a'
"""

# the adjoints of a*b, a'*b and b*a rewrite in a cycle of three words:
# nf((a*b)*) = a'*b, nf((a'*b)*) = b*a and nf((b*a)*) = a*b
ADJOINT_CYCLE_TEXT = """
[generators]
a
b

[relations]
b'*a' = a'*b
b'*a = b*a
a'*b' = a*b

[objective]
minimize a*b + b'*a'

[constraints]
a'*a <= 1
b'*b <= 1
"""

# the same cycle with nf((a'*b)*) = i b*a
PHASED_ADJOINT_CYCLE_TEXT = ADJOINT_CYCLE_TEXT.replace("b'*a = b*a", "b'*a = i*b*a")

# nf(a*) = x - a is not a single term, so the moment of a is a free root
FREE_ROOT_TEXT = """
[generators]
x selfadjoint
a

[relations]
x^2 = 1
a' = x - a

[objective]
minimize x
"""

# the free root's multi-term adjoint, and a localizing block whose weight
# nf(2 - a'*a) = 2 - x*a + a*a has three terms
FREE_ROOT_LOCALIZING_TEXT = FREE_ROOT_TEXT + """
[positive]
2 - a'*a
"""

# y and z enter the blocks only as nf(x*x) = 2 y + z, so their columns of
# P are parallel and P^T P is singular: 2 y + z is determined, z is not
PARALLEL_COLUMNS_TEXT = """
[generators]
x selfadjoint
y selfadjoint
z selfadjoint

[relations]
x^2 = 2*y + z

[objective]
minimize 2*y + z

[options]
basis = 1, x
"""

# x*x rewrites to 1e-5 y: P's y column is 1e5 times shorter than the others
SMALL_COEFFICIENT_TEXT = """
[generators]
x selfadjoint
y selfadjoint

[relations]
x^2 = 0.00001*y

[objective]
minimize y

[options]
basis = 1, x
"""

CHSH_OBJECTIVE = "A0*B0 + A1*B1 + A0*B1 - A1*B0"

# two of CHSH's four correlators: the swap A0 <-> A1, B0 <-> B1 exchanges
# their term-sparsity components
TWO_CORRELATORS_TEXT = CHSH_TEXT.replace(CHSH_OBJECTIVE, "A0*B0 + A1*B1")

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# chained_bell4 at level 3 takes seconds to build and minutes to solve
# without its symmetry; CI solves it under a time bound instead
SLOW_FILE_LEVELS = {("chained_bell4", 3)}

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


@pytest.fixture(scope="module")
def chsh():
    return parse_problem(CHSH_TEXT)


def trivial_group(pres, fixed, weights, accept, antiunitary=False):
    """The identity alone, in place of a build's symmetry search: no
    generators, order 1."""
    return [], 1


@pytest.fixture
def unreduced(monkeypatch):
    """Relaxations built under this fixture find only the identity, so they
    keep every free parameter."""
    monkeypatch.setattr(rx, "symmetry_chain", trivial_group)


def moment_rows(relax):
    """Each moment word's row of W over the parameters, summed from its
    triplets Wk, Wv."""
    rows = {}
    for w, k, v in zip(relax.hier.words, relax.hier.Wk, relax.hier.Wv):
        rows[w] = np.zeros(relax.n_moment_vars, dtype=complex)
        np.add.at(rows[w], k, v)
    return rows


class TestBasis:
    def test_chsh_level_one(self, chsh):
        basis = rx.generate_basis(chsh.presentation, 1)
        names = [w.letters for w in basis]
        assert len(basis) == 5
        assert basis[0] == UNIT_WORD

    def test_chsh_level_two_prunes_reducible_words(self, chsh):
        basis = rx.generate_basis(chsh.presentation, 2)
        # squares collapse and B-before-A words reorder, leaving 8 quadratics
        assert len(basis) == 13

    def test_prefix_property(self, chsh):
        b1 = rx.generate_basis(chsh.presentation, 1)
        b2 = rx.generate_basis(chsh.presentation, 2)
        assert b2[:len(b1)] == b1

    def test_level_zero_is_unit(self, chsh):
        assert rx.generate_basis(chsh.presentation, 0) == [UNIT_WORD]

    def test_cap_enforced(self):
        prob = parse_problem("[generators]\nu\n[objective]\nminimize u + u'\n")
        with pytest.raises(rx.RelaxationError, match="cap"):
            rx.generate_basis(prob.presentation, 11)


class TestCHSHStructure:
    def test_block_and_variable_counts(self, chsh):
        relax = rx.build_relaxation(chsh, level=1)
        assert relax.hier.real_mode
        assert [b.size for b in relax.model.blocks] == [5]
        assert relax.n_moment_vars == 11
        assert len(relax.model.constraints) == 5

    def test_bound_is_tsirelson(self, chsh):
        relax = rx.build_relaxation(chsh, level=1)
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound - TWO_SQRT2) <= 1e-6

    def test_level_two_stays_at_tsirelson(self, chsh):
        res = rx.build_relaxation(chsh, level=2).solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound - TWO_SQRT2) <= 1e-6

    def test_moment_matrix_is_psd_with_unit_diagonal(self, chsh):
        relax = rx.build_relaxation(chsh, level=1)
        res = relax.solve()
        G = res.moment_matrix
        assert G.shape == (5, 5)
        assert np.linalg.eigvalsh(G)[0] >= -1e-7
        assert np.allclose(np.diag(G), 1.0, atol=1e-6)

    def test_realized_moments_feasible_and_sandwiched(self, chsh):
        relax = rx.build_relaxation(chsh, level=1)
        res = relax.solve()
        real = chsh_tsirelson_realization(chsh.presentation)
        moments = realize_moments(real, relax.hier.words)
        blocks = relax.blocks_from_moments(moments)
        rep = feasibility_check(relax.model, blocks)
        assert rep.max_violation <= 1e-7
        achieved = relax.evaluate(chsh.objective, moments).real
        assert achieved <= res.bound + 1e-6


class TestCommutativePolynomials:
    def test_unconstrained_quartic(self):
        prob = parse_problem(QUARTIC_TEXT)
        res = rx.build_relaxation(prob).solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound + 0.25) <= 1e-5

    def test_quartic_agrees_with_grid(self):
        prob = parse_problem(QUARTIC_TEXT)
        res = rx.build_relaxation(prob).solve()
        g = grid_min(prob.presentation, prob.objective, points=4001)
        assert abs(res.bound - g) <= 1e-4

    def test_localizing_block_shapes(self):
        prob = parse_problem(LASSERRE_TEXT)
        relax = rx.build_relaxation(prob)
        assert [b.size for b in relax.model.blocks] == [3, 2]
        res = relax.solve()
        assert abs(res.bound + 0.25) <= 1e-5

    def test_positive_too_heavy_for_level_is_skipped(self):
        text = QUARTIC_TEXT + "[positive]\nx^6\n"
        prob = parse_problem(text)
        with pytest.warns(rx.RelaxationWarning, match="level"):
            relax = rx.build_relaxation(prob)
        assert len(relax.model.blocks) == 1

    def test_explicit_basis_words(self):
        text = """
[generators]
x selfadjoint

[objective]
minimize x^4 - x^2

[options]
basis = 1, x, x^2
"""
        prob = parse_problem(text)
        relax = rx.build_relaxation(prob)
        assert [b.size for b in relax.model.blocks] == [3]
        res = relax.solve()
        assert abs(res.bound + 0.25) <= 1e-5

    def test_uncovered_objective_rejected(self):
        prob = parse_problem(QUARTIC_TEXT)
        with pytest.raises(rx.RelaxationError, match="level"):
            rx.build_relaxation(prob, level=1)

    def test_scalar_constraint_row(self):
        # pinning the first moment shifts the achievable minimum
        prob = parse_problem(PINNED_TEXT)
        res = rx.build_relaxation(prob).solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound - 1.0) <= 1e-6

    def test_row_form_enforces_folded_equality(self):
        # the row form folds x == 1 into its range rows: x = 1 is feasible
        # for it, x = -1 is not
        prob = parse_problem(PINNED_TEXT)
        relax = rx.build_relaxation(prob)
        violations = []
        for x in (1.0, -1.0):
            real = ConcreteRealization(prob.presentation, {"x": np.array([[x]])}, np.ones(1))
            blocks = relax.blocks_from_moments(realize_moments(real, relax.hier.words))
            violations.append(feasibility_check(relax.model, blocks).max_violation)
        assert violations[0] <= 1e-9
        assert violations[1] > 1e-3


class TestComplexMode:
    def test_phase_relation_forces_complex_line(self):
        prob = parse_problem(PHASED_TEXT)
        relax = rx.build_relaxation(prob, level=1)
        assert not relax.hier.real_mode
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound + np.sqrt(2.0)) <= 1e-6

    def test_phase_moments_follow_direction(self):
        prob = parse_problem(PHASED_TEXT)
        relax = rx.build_relaxation(prob, level=1)
        res = relax.solve()
        pres = prob.presentation
        u = pres.word("u")
        got = res.moments[u]
        want = -np.exp(-1j * np.pi / 4.0)
        assert abs(got - want) <= 1e-5

    def test_phase_realization_is_feasible(self):
        from starsdp.oracles import ConcreteRealization
        prob = parse_problem(PHASED_TEXT)
        relax = rx.build_relaxation(prob, level=1)
        sz = np.diag([1.0, -1.0]).astype(complex)
        real = ConcreteRealization(
            prob.presentation,
            {"u": np.exp(-1j * np.pi / 4.0) * sz},
            np.array([0.0, 1.0]))
        moments = realize_moments(real, relax.hier.words)
        blocks = relax.blocks_from_moments(moments)
        rep = feasibility_check(relax.model, blocks)
        assert rep.max_violation <= 1e-8
        achieved = relax.evaluate(prob.objective, moments).real
        res = relax.solve()
        assert res.bound <= achieved + 1e-7


class TestParameterization:
    def test_orbit_without_single_term_entry(self):
        # y appears only inside the entries x^2 = y + 1 and z^2 = y + 2, so
        # no block entry is a multiple of y alone
        text = """
[generators]
x selfadjoint
y selfadjoint
z selfadjoint

[relations]
x^2 = y + 1
z^2 = y + 2

[objective]
minimize y

[options]
basis = 1, x, z
"""
        from starsdp.oracles import ConcreteRealization
        prob = parse_problem(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", rx.RelaxationWarning)
            relax = rx.build_relaxation(prob)
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound + 1.0) <= 1e-6
        real = ConcreteRealization(
            prob.presentation,
            {"x": np.zeros((1, 1)), "y": -np.ones((1, 1)), "z": np.ones((1, 1))},
            np.array([1.0]))
        moments = realize_moments(real, relax.hier.words)
        rep = feasibility_check(relax.model, relax.blocks_from_moments(moments))
        assert rep.max_violation <= 1e-9
        assert relax.evaluate(prob.objective, moments).real == pytest.approx(-1.0)

    # lasserre_x4's quartic objective needs level 2
    @pytest.mark.parametrize("text, level", [
        pytest.param(text, level, id=f"{name}-L{level}")
        for name, text in [(f.stem, f.read_text()) for f in sorted(PROBLEMS.glob("*.csdp"))]
        + [("scaled", SCALED_ADJOINT_TEXT), ("one-way", ONE_WAY_TEXT),
           ("phased-one-way", PHASED_ONE_WAY_TEXT), ("cycle", ADJOINT_CYCLE_TEXT),
           ("phased-cycle", PHASED_ADJOINT_CYCLE_TEXT)]
        for level in (1, 2, 3)
        if (name, level) != ("lasserre_x4", 1) and (name, level) not in SLOW_FILE_LEVELS])
    def test_moments_follow_the_adjoint_pairing(self, text, level):
        relax = rx.build_relaxation(parse_problem(text), level=level)
        pres = relax.problem.presentation
        rows = moment_rows(relax)
        for w, row in rows.items():
            terms = normal_form(Polynomial.from_word(w.adjoint()), pres).terms()
            if len(terms) == 1:
                u, c = terms[0]
                assert np.max(np.abs(np.conj(row) - c * rows[u])) <= 1e-12
            # a moment depends on the parameters of one root only
            assert len({relax.hier.roots[k] for k in np.flatnonzero(row)}) <= 1
        for k, root in enumerate(relax.hier.roots):
            assert rows[root][k] != 0

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_scaled_adjoint_leaves_no_parameter(self, level):
        relax = rx.build_relaxation(parse_problem(SCALED_ADJOINT_TEXT), level=level)
        u = relax.problem.presentation.word("u")
        assert u not in relax.hier.roots
        assert not np.any(relax.hier.Wv[relax.hier.words.index(u)])
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound) <= 1e-9

    def test_presentation_not_closed_under_the_adjoint(self):
        for level, params in [(1, 5), (2, 19)]:
            relax = rx.build_relaxation(parse_problem(ONE_WAY_TEXT), level=level)
            assert relax.n_moment_vars == params
            res = relax.solve(TIGHT)
            assert res.status == Status.OPTIMAL
            assert abs(res.bound + 0.5) <= 1e-8

    def test_adjoint_of_two_terms_is_a_free_root(self):
        prob = parse_problem(FREE_ROOT_TEXT)
        for level, params in [(1, 6), (2, 19)]:
            relax = rx.build_relaxation(prob, level=level)
            assert relax.hier.real_mode
            assert prob.presentation.word("a") in relax.hier.roots
            assert relax.n_moment_vars == params
            res = relax.solve(TIGHT)
            assert res.status == Status.OPTIMAL
            assert abs(res.bound + 1.0) <= 1e-8

    @pytest.mark.parametrize("text, level, m, bound", [
        (FREE_ROOT_TEXT, 1, 4, -0.999999999999),
        (FREE_ROOT_TEXT, 2, 15, -0.999999991772),
        (FREE_ROOT_TEXT, 3, 43, -0.999999990320),
        (FREE_ROOT_LOCALIZING_TEXT, 2, 16, -0.999999999008),
        (FREE_ROOT_LOCALIZING_TEXT, 3, 45, -0.999999999625),
        (PARALLEL_COLUMNS_TEXT, 1, 1, 0.0),
    ], ids=["free-root-L1", "free-root-L2", "free-root-L3", "localizing-L2",
            "localizing-L3", "parallel-columns"])
    def test_unseen_directions_leave_the_lmi(self, monkeypatch, text, level, m, bound):
        # directions of the parameters that no block sees are fixed to 0, so
        # the LMI's m rows are independent and the Newton solves factor M by
        # Cholesky, not on its eigendecomposition; only the last may fall
        # back, where M at the degenerate optimum loses rank to rounding
        # (localizing L3 does).  The bounds are those of the LMI that kept
        # the directions, with dependent rows.
        relax = rx.build_relaxation(parse_problem(text), level=level)
        F = np.concatenate([S[1:].reshape(m, -1) for S in relax._lmi.stacks()], axis=1)
        assert len(F) == m and np.linalg.matrix_rank(F) == m
        psd_solver, eigh, paths = ipm._psd_solver, np.linalg.eigh, []

        def solver(M):
            paths.append("cholesky")
            return psd_solver(M)

        def fallback(M):
            paths[-1] = "eigh"
            return eigh(M)

        monkeypatch.setattr(ipm, "_psd_solver", solver)
        monkeypatch.setattr(np.linalg, "eigh", fallback)
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        assert len(paths) == res.solution.iterations > 0
        assert set(paths[:-1]) == {"cholesky"}
        assert abs(res.bound - bound) <= 1e-8

    def test_phased_one_way_parameter_count(self):
        prob = parse_problem(PHASED_ONE_WAY_TEXT)
        assert [rx.build_relaxation(prob, level=d).n_moment_vars for d in (1, 2)] == [7, 31]

    @pytest.mark.parametrize("text, phi, params, bound", [
        (ADJOINT_CYCLE_TEXT, 1.0, (11, 72), -2.0),
        (PHASED_ADJOINT_CYCLE_TEXT, np.exp(0.25j * np.pi), (16, 123), -np.sqrt(2.0)),
    ], ids=["real", "phased"])
    def test_adjoint_cycle_of_three_words(self, text, phi, params, bound):
        # composing the three ties gives y_ab = C conj(y_ab), with C = 1 or
        # i: a line through phi = sqrt(C) rooted at a*b, which the other two
        # words follow; parameter counts and bounds as the orbit union-find
        # gave them
        for level, n in zip((1, 2), params):
            relax = rx.build_relaxation(parse_problem(text), level=level)
            pres = relax.problem.presentation
            rows = {word_to_str(w, pres): row for w, row in moment_rows(relax).items()}
            k = relax.hier.roots.index(pres.word("a", "b"))
            assert relax.hier.roots.count(pres.word("a", "b")) == 1
            for w, value in [("a*b", phi), ("a'*b", np.conj(phi)), ("b*a", np.conj(phi))]:
                assert np.flatnonzero(rows[w]).tolist() == [k]
                assert abs(rows[w][k] - value) <= 1e-15
            assert relax.n_moment_vars == n
            res = relax.solve(TIGHT)
            assert res.status == Status.OPTIMAL
            assert abs(res.bound - bound) <= 1e-8

    @pytest.mark.parametrize("text, level, rows", [
        (PHASED_TEXT, 1, 3),
        (LADDER_TEXT, 2, 55),
        (LASSERRE_TEXT, 2, 5),
        (INVOLUTION_TEXT + "[constraints]\nx == 0.25\n2*x == 0.5\n", 1, 3),
    ], ids=["phased", "ladder-L2", "lasserre", "dependent-equalities"])
    def test_rows_are_independent(self, text, level, rows):
        relax = rx.build_relaxation(parse_problem(text), level=level)
        A = np.array([np.concatenate([M.ravel() for M in con.matrices])
                      for con in relax.model.constraints])
        assert len(A) == rows
        assert np.linalg.matrix_rank(A) == rows


class TestMomentLMI:
    @pytest.mark.parametrize("text, level, free, m, params, rows", [
        (CHSH_TEXT, 3, 36, 6, 61, 265),
        (LADDER_TEXT, 2, 30, 8, 46, 55),
    ], ids=["chsh-L3", "ladder-L2"])
    def test_solver_works_on_free_parameters(self, text, level, free, m, params, rows):
        relax = rx.build_relaxation(parse_problem(text), level=level)
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        # the term-sparsity split keeps free parameters but the unit, the
        # problem's symmetry group leaves m invariant directions of them, one
        # Schur row each, against the row form's equality rows over every
        # parameter
        assert len(relax._keep) - 1 == relax.symmetry["rows"] == free
        assert len(res.solution.y) == m
        assert relax.n_moment_vars == params
        assert len(relax.model.constraints) == rows
        # the solver's dual slacks are the main block's components at the
        # moments read out, in the basis U of a component solved real, and
        # the moment matrix is that whole main block
        gamma = relax.blocks_from_moments(res.moments)[0]
        assert len(relax._parts) == 2
        for idx, U, Z in zip(relax._parts, relax._lifts, res.solution.Z):
            Z = Z if U is None else U @ Z @ U.conj().T
            assert np.max(np.abs(gamma[np.ix_(idx, idx)] - Z)) <= 1e-8
        assert np.max(np.abs(res.moment_matrix - gamma)) <= 1e-8

    def test_solve_builds_no_row_form(self, chsh):
        relax = rx.build_relaxation(chsh, level=2)
        relax.solve()
        assert "model" not in vars(relax)
        assert len(relax.model.constraints) == 61

    def test_without_normalization_is_unbounded(self):
        prob = parse_problem(INVOLUTION_TEXT + "normalization = false\n")
        assert rx.build_relaxation(prob).solve().status == Status.UNBOUNDED

    def test_inequality_is_a_one_by_one_block(self):
        prob = parse_problem(INVOLUTION_TEXT + "[constraints]\nx >= 0.5\n")
        res = rx.build_relaxation(prob).solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound - 0.5) <= 1e-6
        assert [Z.shape for Z in res.solution.Z] == [(2, 2), (1, 1)]
        assert abs(res.solution.Z[1][0, 0]) <= 1e-6      # the slack x - 0.5

    def test_scalar_inequalities_share_a_stack(self):
        # three 1x1 slack blocks, grouped into one stack by the solver
        relax = rx.build_relaxation(parse_problem(THREE_INEQUALITIES_TEXT))
        res = relax.solve(TIGHT)
        assert res.status == Status.OPTIMAL
        assert [Z.shape for Z in res.solution.Z] == [(3, 3)] + [(1, 1)] * 3
        row = solve(to_equality_form(relax.model), TIGHT)
        assert row.status == Status.OPTIMAL
        assert abs(res.bound - row.primal_value) <= 1e-7
        assert abs(res.bound + 1.5) <= 1e-7

    def test_infeasible_inequality_is_not_a_bound(self):
        # |x| <= 1 for an involution, so x >= 2 leaves no moment matrix
        prob = parse_problem(INVOLUTION_TEXT + "[constraints]\nx >= 2\n")
        res = rx.build_relaxation(prob).solve()
        assert res.status not in (Status.OPTIMAL, Status.UNBOUNDED)

    def test_infeasible_inequality_is_reported_infeasible(self):
        # the LMI's primal ray X = ([[1, -1], [-1, 1]], 2) certifies that no
        # moment matrix satisfies x >= 2 at level 1
        prob = parse_problem(INVOLUTION_TEXT + "[constraints]\nx >= 2\n")
        res = rx.build_relaxation(prob, level=1).solve()
        assert res.status == Status.INFEASIBLE and res.bound == np.inf
        assert res.solution.status == Status.UNBOUNDED
        assert "primal ray" in res.solution.reason

    def test_infeasible_model_drives_tau_to_zero(self):
        # the embedding's tau falls at every iteration while kappa stays
        # away from 0, which is how the solve finds the ray
        prob = parse_problem(INVOLUTION_TEXT + "[constraints]\nx >= 2\n")
        res = rx.build_relaxation(prob, level=1).solve()
        assert res.status == Status.INFEASIBLE
        history = res.solution.history
        assert history[0].tau == 1.0
        assert all(b.tau < a.tau for a, b in zip(history, history[1:]))
        assert history[-1].tau <= 1e-10
        assert min(h.kappa for h in history) >= 1.0

    def test_inconsistent_equalities_rejected(self):
        prob = parse_problem(INVOLUTION_TEXT + "[constraints]\nx == 0.25\nx == 0.5\n")
        with pytest.raises(rx.RelaxationError, match="equality"):
            rx.build_relaxation(prob)

    def test_dependent_equalities_are_eliminated_once(self):
        prob = parse_problem(INVOLUTION_TEXT + "[constraints]\nx == 0.25\n2*x == 0.5\n")
        relax = rx.build_relaxation(prob)
        res = relax.solve()
        assert res.status == Status.OPTIMAL
        assert abs(res.bound - 0.25) <= 1e-9
        assert len(res.solution.y) == relax.n_moment_vars - 2


NEGATIVE_SQUARE_TEXT = """
[generators]
x selfadjoint
y selfadjoint

[relations]
x^2 = -1
y^2 = 1

[objective]
minimize y

[options]
level = 1
"""


def acceptance_draws():
    """The 30 random problems of
    test_acceptance.py::test_hierarchy_monotone_on_random_instances, drawn
    in the same order from the same generator."""
    rng = np.random.default_rng(404)
    for trial in range(20):
        k = int(rng.integers(1, 4))
        yield random_involution_problem(rng, k, commuting=True,
                                        max_deg=2 if trial % 2 == 0 else 4)
    for trial in range(10):
        k = int(rng.integers(2, 4))
        problem = random_involution_problem(rng, k, commuting=False,
                                            max_deg=2 if trial % 2 == 0 else 4)
        for _ in range(3):
            reflection_realization(problem.presentation, rng)
        yield problem


def assert_split_is_exact(relax, res):
    """The zero extension of the split solution is feasible for the dense
    relaxation's row form and worth the bound there, so the split loses
    nothing: a dense point reaches the split optimum."""
    assert res.status == Status.OPTIMAL
    blocks = relax.blocks_from_moments(res.moments)
    assert feasibility_check(relax.model, blocks).max_violation <= 1e-7
    value = relax.evaluate(relax.problem.objective, res.moments)
    assert abs(value - res.bound) <= 1e-7


class TestTermSparsity:
    @pytest.mark.parametrize("text, level, blocks, free, m", [
        (CHSH_TEXT, 1, [4], 6, 1),
        (CHSH_TEXT, 2, [9, 4], 18, 4),
        (CHSH_TEXT, 3, [9, 16], 36, 6),
        (CHSH_TEXT, 4, [25, 16], 60, 11),
        (LADDER_TEXT, 1, [3], 6, 2),
        (LADDER_TEXT, 2, [7, 3], 30, 8),
        (LADDER_TEXT, 3, [7, 15], 126, 28),
    ], ids=["chsh-L1", "chsh-L2", "chsh-L3", "chsh-L4",
            "ladder-L1", "ladder-L2", "ladder-L3"])
    def test_block_sizes(self, text, level, blocks, free, m):
        # term sparsity keeps free parameters but the unit; the LMI's m rows
        # are the directions among them that the symmetry group leaves
        # invariant
        relax = rx.build_relaxation(parse_problem(text), level=level)
        assert [b.size for b in relax._lmi.blocks] == blocks
        assert len(relax._keep) - 1 == relax.symmetry["rows"] == free
        assert len(relax._lmi.constraints) == m

    @pytest.mark.parametrize("name", ["chsh", "lasserre_x4", "phased_involution"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_problem_files_are_exact(self, name, level):
        prob = parse_problem_file(str(PROBLEMS / f"{name}.csdp"))
        if (name, level) == ("lasserre_x4", 1):
            with pytest.raises(rx.NotRepresentableError):
                rx.build_relaxation(prob, level=level)
            return
        relax = rx.build_relaxation(prob, level=level)
        assert_split_is_exact(relax, relax.solve(TIGHT))

    def test_acceptance_draws_are_exact(self):
        splits = 0
        for problem in acceptance_draws():
            for level in (1, 2, 3):
                if problem.objective.degree() > 2 * level:
                    with pytest.raises(rx.NotRepresentableError):
                        rx.build_relaxation(problem, level=level)
                    continue
                relax = rx.build_relaxation(problem, level=level)
                assert_split_is_exact(relax, relax.solve(TIGHT))
                splits += len(relax._keep) < relax.n_moment_vars
        # 18 of the 90 levels split
        assert splits >= 10

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_no_split_is_the_dense_lmi(self, level):
        # u' = i*u ties every word to one phase of the next: nothing splits,
        # and the LMI is the dense construction, bit for bit: the moment
        # block G p at p = p0 and at p = -N e_k, where G's row (i, j) sums
        # c W[w] over the terms c w of entry (i, j), Hermitian with a real
        # diagonal
        relax = rx.build_relaxation(parse_problem_file(str(PROBLEMS / "phased_involution.csdp")),
                                    level=level)
        assert len(relax._keep) == relax.n_moment_vars
        W = moment_rows(relax)
        n = len(relax.basis)
        i, j = np.triu_indices(n)
        G = np.array([sum(c * W[w] for w, c in relax.entries[0][a][b].terms())
                      for a, b in zip(i, j)])
        p0, N = rx._parameters(relax.hier, np.arange(relax.n_moment_vars),
                               relax.problem.normalization, relax._constraints)
        dense = np.zeros((1 + N.shape[1], n, n), dtype=complex)
        dense[:, i, j] = (G @ np.column_stack([p0, -N])).T
        dense[:, j, i] = dense[:, i, j].conj()
        dense[:, range(n), range(n)] = dense[:, range(n), range(n)].real
        got = relax._lmi.stacks()
        assert len(got) == 1
        assert got[0].dtype == dense.dtype and np.array_equal(got[0], dense)
        assert [con.rhs for con in relax._lmi.constraints] == [float(b) for b in -(relax._f @ N)]

    @pytest.mark.parametrize("level", [1, 2])
    def test_entries_are_exact_signs(self, unreduced, level):
        # each entry is a moment's coefficient, +-1, times p0 or -N, which
        # select one parameter, so no rounding enters: a detour through
        # coordinates, sqrt(2) then sqrt(1/2), reads -1.0000000000000002
        chsh = parse_problem(CHSH_TEXT)
        for A in rx.build_relaxation(chsh, level=level)._lmi.stacks():
            assert set(np.unique(A).tolist()) <= {0.0, 1.0, -1.0}

    @pytest.mark.parametrize("level", [1, 2])
    def test_reduced_entries_are_exact_orbit_weights(self, chsh, level):
        # with the symmetry group, N Q holds each signed orbit of parameters
        # scaled to unit length, so row k's entries are +-1 times the one
        # weight 1/sqrt(orbit size) of column k of N Q, again with no rounding
        relax = rx.build_relaxation(chsh, level=level)
        weight = np.abs(relax._N).max(axis=0)
        assert np.array_equal(weight, 1.0 / np.sqrt(np.count_nonzero(relax._N, axis=0)))
        stacks = relax._lmi.stacks()
        for A in stacks:
            assert set(np.unique(A[0]).tolist()) <= {0.0, 1.0, -1.0}
        for k, w in enumerate(weight, start=1):
            seen = set().union(*(np.unique(np.abs(A[k])).tolist() for A in stacks))
            assert seen == {0.0, w}

    def test_entries_are_exact_phases(self):
        # basis 1, u: nf(u') = i*u puts u's moment on the line through
        # phi = sqrt(-i), entry (1, u) is i*u and (u, u) = nf(i*u^2) = 1
        relax = rx.build_relaxation(
            parse_problem_file(str(PROBLEMS / "phased_involution.csdp")), level=1)
        [A] = relax._lmi.stacks()
        e = -(1j * cmath.sqrt(-1j))
        assert np.array_equal(A, [np.eye(2), [[0.0, e], [e.conjugate(), 0.0]]])

    def test_non_psd_constant_component_is_kept(self):
        # (x, x) is the constant -1, which nothing joins to the rest
        relax = rx.build_relaxation(parse_problem(NEGATIVE_SQUARE_TEXT))
        assert [b.size for b in relax._lmi.blocks] == [2, 1]
        assert np.array_equal(relax._lmi.cost[1], [[-1.0]])
        assert relax.solve().status == Status.INFEASIBLE

    def test_psd_constant_components_are_dropped(self):
        # CHSH at level 1 with a constant objective: every entry but the
        # diagonal is off-component, and the unit diagonal is psd
        text = CHSH_TEXT.replace("maximize A0*B0 + A1*B1 + A0*B1 - A1*B0", "maximize 1")
        relax = rx.build_relaxation(parse_problem(text), level=1)
        assert relax._lmi.blocks == [] and len(relax._keep) == 1
        res = relax.solve()
        assert res.status == Status.OPTIMAL and res.bound == 1.0
        assert np.array_equal(res.moment_matrix, np.eye(5))

    @pytest.mark.parametrize("constraint, blocks, bound", [
        ("A0*B0 == 0.5", [9, 4], 2.79813333),
        ("A0*B1 + A1*B0 <= 0.5", [9, 4, 1], TWO_SQRT2),
    ], ids=["equality", "inequality"])
    def test_scalar_constraints_keep_their_bounds(self, constraint, blocks, bound):
        relax = rx.build_relaxation(parse_problem(CHSH_TEXT + f"[constraints]\n{constraint}\n"),
                                    level=2)
        assert [b.size for b in relax._lmi.blocks] == blocks
        res = relax.solve(TIGHT)
        assert_split_is_exact(relax, res)
        dense = solve(to_equality_form(relax.model), TIGHT)
        assert dense.status == Status.OPTIMAL
        assert abs(res.bound + dense.primal_value) <= 1e-7
        assert abs(res.bound - bound) <= 1e-7


class TestSparseBuild:
    """G, P and W stay index triplets from the build to the solve: the LMI,
    the representability check and the readout never make them dense (W
    has no dense form)."""

    @pytest.fixture
    def never_dense(self, monkeypatch):
        def dense(hier):
            raise AssertionError("P made dense")
        monkeypatch.setattr(rx.Hierarchy, "_P", property(dense))

    @pytest.mark.parametrize("text, levels", [
        (CHSH_TEXT, (1, 2, 3, 4)),
        (LADDER_TEXT, (1, 2, 3)),
        ((PROBLEMS / "lasserre_x4.csdp").read_text(), (2,)),
        (CHSH_TEXT + "[constraints]\nA0*B0 == 0.5\nA0*B1 + A1*B0 <= 0.5\n", (2,)),
    ], ids=["chsh", "ladder", "lasserre", "scalar-constraints"])
    def test_solve_path_never_goes_dense(self, never_dense, text, levels):
        for level in levels:
            res = rx.build_relaxation(parse_problem(text), level=level).solve(TIGHT)
            assert res.status == Status.OPTIMAL
            assert res.moments

    def test_warm_build_memory(self, chsh):
        # CHSH L4 once its normal forms are cached, its hierarchy made
        # again; held dense, G (861 x 101, complex) and P alone would take
        # 2.1 MB
        rx.build_relaxation(chsh, level=4)
        chsh.presentation._hierarchies.clear()
        tracemalloc.start()
        try:
            rx.build_relaxation(chsh, level=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


def lmi_bytes(relax):
    """The LMI's stacks and right-hand sides, _keep, _p0 and _N, bit for bit."""
    arrays = [*relax._lmi.stacks(), np.array([c.rhs for c in relax._lmi.constraints]),
              relax._keep, relax._p0, relax._N]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def fresh(text, **changes):
    """A freshly parsed problem, with changes as dataclasses.replace takes them."""
    return replace(parse_problem(text), **changes)


class TestTwoStageBuild:
    """One hierarchy per presentation and key, many objectives: a build on a
    reused hierarchy gives the LMI a fresh parse gives, bit for bit."""

    @pytest.mark.parametrize("text, objective", [
        (CHSH_TEXT, "A0*B0 + A1 - A0*A1 - A1*A0 + 2*B1"),
        (LADDER_TEXT, "2*i*x*z - 2*i*z*x + y"),
        (LASSERRE_TEXT, "x^3 + 2*x^2"),
        (FREE_ROOT_LOCALIZING_TEXT, "x*a + a'*x"),
    ], ids=["chsh", "ladder", "localizing", "free-root"])
    def test_objectives_share_the_hierarchy(self, text, objective):
        prob = parse_problem(text)
        other = replace(prob, objective=parse_polynomial(objective, prob.presentation))
        for level in (1, 2, 3):
            if level == 1 and text is LASSERRE_TEXT:
                continue
            first = rx.build_relaxation(prob, level=level)
            second = rx.build_relaxation(other, level=level)
            assert first.timings["hierarchy"] > 0.0 and second.timings["hierarchy"] == 0.0
            assert second.hier is first.hier
            # every array of the hierarchy, G's and the edges' among them
            shared = [a for v in vars(first.hier).values()
                      for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
            assert len(shared) >= 13
            for a in shared:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            assert lmi_bytes(first) == lmi_bytes(rx.build_relaxation(parse_problem(text), level))
            assert lmi_bytes(second) == lmi_bytes(rx.build_relaxation(
                fresh(text, objective=other.objective), level))
        assert len(prob.presentation._hierarchies) == (2 if text is LASSERRE_TEXT else 3)

    def test_each_key_part_is_its_own_entry(self):
        prob = parse_problem(CHSH_TEXT)
        pres = prob.presentation
        imaginary = parse_polynomial("i*A0*A1 - i*A1*A0 + A0*B0", pres)
        positive = [parse_polynomial("1 - A0*B0", pres)]
        basis = (UNIT_WORD, *map(pres.word, ("A0", "A1", "B0", "B1")), pres.word("A0", "B0"))
        variants = [({}, 1), ({}, 2), (dict(positives=positive), 2),
                    (dict(basis_words=basis), 2), (dict(objective=imaginary), 2)]
        for k, (changes, level) in enumerate(variants, start=1):
            relax = rx.build_relaxation(replace(prob, **changes), level=level)
            assert len(pres._hierarchies) == k
            assert relax.hier.real_mode == ("objective" not in changes)
            assert lmi_bytes(relax) == lmi_bytes(
                rx.build_relaxation(fresh(CHSH_TEXT, **changes), level=level))
        # each again, now from the store
        for changes, level in variants:
            relax = rx.build_relaxation(replace(prob, **changes), level=level)
            assert relax.timings["hierarchy"] == 0.0
        assert len(pres._hierarchies) == len(variants)

    @pytest.mark.parametrize("text, objective, basis, level", [
        # b is in no entry, and nf(b') = a ties its moment to a's
        (ONE_WAY_TEXT, "b + b'", ("a",), 1),
        # level 0 sees the unit alone; u* = 2 u pins u to 0
        (SCALED_ADJOINT_TEXT, "u + u'", None, 0),
        # x^4 is in no entry and the level-1 blocks do not determine it
        (QUARTIC_TEXT, "x^4 - x^2", None, 1),
    ], ids=["tied", "pinned", "not-representable"])
    def test_objective_words_outside_the_blocks(self, text, objective, basis, level):
        # a build whose objective leaves the blocks' word set makes its own
        # hierarchy, numbered as a fresh parse numbers it, and stores none
        prob = parse_problem(text)
        pres = prob.presentation
        if basis:
            prob = replace(prob, basis_words=(UNIT_WORD, *map(pres.word, basis)))
        rx.build_relaxation(replace(prob, objective=Polynomial.unit()), level=level)
        outside = replace(prob, objective=parse_polynomial(objective, pres))
        ref = replace(outside, presentation=parse_problem(text).presentation)
        try:
            want = rx.build_relaxation(ref, level=level)
        except rx.NotRepresentableError as e:
            with pytest.raises(rx.NotRepresentableError) as err:
                rx.build_relaxation(outside, level=level)
            assert str(err.value) == str(e)
        else:
            relax = rx.build_relaxation(outside, level=level)
            assert relax.timings["hierarchy"] > 0.0
            assert lmi_bytes(relax) == lmi_bytes(want)
            res, ref_res = relax.solve(TIGHT), want.solve(TIGHT)
            assert res.status == ref_res.status == Status.OPTIMAL
            assert (res.solution.iterations, res.bound) == \
                (ref_res.solution.iterations, ref_res.bound)
        assert len(pres._hierarchies) == 1

    def test_positive_warnings_fire_on_a_reused_build(self):
        prob = parse_problem(QUARTIC_TEXT + "[positive]\nx^6\nx - x\n")
        for hierarchy in ("made", "reused"):
            with pytest.warns(rx.RelaxationWarning) as record:
                relax = rx.build_relaxation(prob)
            assert [str(w.message) for w in record] == [
                "positive x^6 needs level >= 3; no localizing block added",
                "a declared positive reduces to zero; skipping"]
            assert (relax.timings["hierarchy"] == 0.0) == (hierarchy == "reused")

    def test_timings(self):
        relax = rx.build_relaxation(parse_problem(CHSH_TEXT), level=2)
        again = rx.build_relaxation(relax.problem, level=2)
        for r in (relax, again):
            assert set(r.timings) == {"hierarchy", "relax"}
            assert all(t >= 0.0 for t in r.timings.values())
        assert relax.timings["hierarchy"] > 0.0 and again.timings["hierarchy"] == 0.0


class TestGramRepresentative:
    def test_chsh_entries(self, chsh):
        relax = rx.build_relaxation(chsh, level=1)
        M = rx.gram_representative(relax)
        idx = {w: i for i, w in enumerate(relax.basis)}
        pres = chsh.presentation
        expect_half = [
            (pres.word("A0"), pres.word("B0"), 0.5),
            (pres.word("A1"), pres.word("B1"), 0.5),
            (pres.word("A0"), pres.word("B1"), 0.5),
            (pres.word("A1"), pres.word("B0"), -0.5),
        ]
        for a, b, v in expect_half:
            assert M[idx[a], idx[b]] == pytest.approx(v, abs=1e-9)
            assert M[idx[b], idx[a]] == pytest.approx(v, abs=1e-9)
        assert abs(M[0, 0]) <= 1e-9

    def test_reexpansion_matches(self, chsh):
        relax = rx.build_relaxation(chsh, level=1)
        M = rx.gram_representative(relax)
        back = rx.expand_gram(relax, M)
        target = normal_form(chsh.objective, chsh.presentation)
        assert back.close_to(target, tol=1e-10)

    def test_quartic_reexpansion(self):
        prob = parse_problem(QUARTIC_TEXT)
        relax = rx.build_relaxation(prob)
        M = rx.gram_representative(relax)
        back = rx.expand_gram(relax, M)
        assert back.close_to(normal_form(prob.objective, prob.presentation), 1e-10)

    def test_least_frobenius_norm(self):
        # x^2 sits at (x, x), (1, x^2) and (x^2, 1); spreading it evenly
        # gives the least Frobenius norm, 3 * (1/3)^2
        text = """
[generators]
x selfadjoint

[objective]
minimize x^2

[options]
level = 2
"""
        prob = parse_problem(text)
        relax = rx.build_relaxation(prob)
        M = rx.gram_representative(relax)
        idx = {w: i for i, w in enumerate(relax.basis)}
        x, xx = prob.presentation.word("x"), prob.presentation.word("x", "x")
        for i, j in ((x, x), (UNIT_WORD, xx), (xx, UNIT_WORD)):
            assert M[idx[i], idx[j]] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.sum(M * M) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_singular_gram_matrix(self):
        prob = parse_problem(PARALLEL_COLUMNS_TEXT)
        relax = rx.build_relaxation(prob)
        pres = prob.presentation
        P = relax.hier._P
        ky, kz = relax.hier.roots.index(pres.word("y")), relax.hier.roots.index(pres.word("z"))
        assert np.array_equal(P[:, ky], 2.0 * P[:, kz])
        assert np.linalg.matrix_rank(P.T @ P) == P.shape[1] - 1
        # ker P is the one direction e_y - 2 e_z
        K = relax.hier.unseen
        assert K.shape == (P.shape[1], 1)
        assert np.allclose(np.abs(K[[ky, kz], 0]) * np.sqrt(5.0), [1.0, 2.0], atol=1e-12)
        assert K[ky, 0] * K[kz, 0] < 0
        # 2 y + z = x*x sits at (x, x) alone
        M = rx.gram_representative(relax)
        assert np.max(np.abs(M - np.diag([0.0, 1.0]))) <= 1e-12
        with pytest.raises(rx.NotRepresentableError) as err:
            rx.build_relaxation(replace(prob, objective=Polynomial.from_word(pres.word("z"))))
        assert str(err.value) == ("the objective involves z, which the level-1 moment "
                                  "blocks do not determine; raise the level")

    def test_rejection_names_a_word_of_the_polynomial(self):
        # minimize y leaves its largest residual at z, which it does not
        # involve; the message names y
        prob = parse_problem(PARALLEL_COLUMNS_TEXT)
        y = Polynomial.from_word(prob.presentation.word("y"))
        with pytest.raises(rx.NotRepresentableError) as err:
            rx.build_relaxation(replace(prob, objective=y))
        assert str(err.value) == ("the objective involves y, which the level-1 moment "
                                  "blocks do not determine; raise the level")

    def test_scalar_constraint_on_an_unseen_direction(self):
        # a scalar constraint must vanish on ker P, as the objective must:
        # z alone is not determined by the blocks, 2 y + z = x*x is
        with pytest.raises(rx.NotRepresentableError) as err:
            rx.build_relaxation(parse_problem(PARALLEL_COLUMNS_TEXT + "[constraints]\nz >= 0\n"))
        assert str(err.value) == ("a scalar constraint involves z, which the level-1 moment "
                                  "blocks do not determine; raise the level")
        text = PARALLEL_COLUMNS_TEXT + "[constraints]\n2*y + z >= 1\n"
        res = rx.build_relaxation(parse_problem(text)).solve(TIGHT)
        assert res.status == Status.OPTIMAL
        assert abs(res.bound - 1.0) <= 1e-8

    def test_small_relation_coefficient(self, monkeypatch):
        # y enters P only through nf(x*x) = 1e-5 y, so P^T P = diag(1, 2, 1e-10):
        # the column scaling keeps y out of ker P, so the build accepts
        # minimize y without calling lstsq, and its least-norm coordinate is
        # 1e5 at (x, x)
        prob = parse_problem(SMALL_COEFFICIENT_TEXT)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "lstsq", None)
            relax = rx.build_relaxation(prob)
        P = relax.hier._P
        assert np.allclose(np.sort(np.linalg.eigvalsh(P.T @ P)), [1e-10, 1.0, 2.0], rtol=1e-12)
        M = rx.gram_representative(relax)
        assert np.max(np.abs(M - np.diag([0.0, 1e5]))) <= 1e-12 * 1e5
        res = relax.solve(TIGHT)
        assert res.status == Status.OPTIMAL and abs(res.bound) <= 1e-7

    def test_representative_is_least_norm(self, chsh):
        # the representative reproduces f and is the pseudoinverse's
        # solution, the one of least norm
        relax = rx.build_relaxation(chsh, level=2)
        P, f = relax.hier._P, relax._f
        c = relax.hier._representative(P, f, "the objective", chsh.presentation)
        assert np.max(np.abs(P.T @ c - f)) <= 1e-12
        assert np.max(np.abs(c - np.linalg.pinv(P.T) @ f)) <= 1e-12

    def test_unreachable_polynomial_rejected(self):
        text = """
[generators]
x selfadjoint

[objective]
minimize x^2

[options]
level = 1
"""
        prob = parse_problem(text)
        relax = rx.build_relaxation(prob)
        x = Polynomial.from_word(prob.presentation.word("x"))
        quartic = x * x * x * x
        with pytest.raises(rx.NotRepresentableError):
            rx.gram_representative(relax, quartic)


class TestEntryLookup:
    """Each entry is nf(b_i w b_j*) looked up word by word; it must equal
    the product formed with poly_mul and rewritten as a whole."""

    @staticmethod
    def assert_entries_match(relax):
        pres = relax.problem.presentation
        for basis, weight, mat in zip(relax.hier.bases, relax.hier.weights, relax.hier.entries):
            for i, bi in enumerate(basis):
                left = poly_mul(Polynomial.from_word(bi), weight)
                for j, bj in enumerate(basis):
                    right = Polynomial.from_word(bj.adjoint())
                    assert mat[i][j] == normal_form(poly_mul(left, right), pres)

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.csdp")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("level", [1, 2])
    def test_problem_files(self, path, level):
        prob = parse_problem(path.read_text())
        if (path.stem, level) == ("lasserre_x4", 1):
            with pytest.raises(rx.NotRepresentableError):   # its quartic needs level 2
                rx.build_relaxation(prob, level=level)
            prob = replace(prob, objective=Polynomial.unit())
        self.assert_entries_match(rx.build_relaxation(prob, level=level))

    @pytest.mark.parametrize("level", [1, 2])
    def test_localizing_block_and_multi_term_relation(self, level):
        relax = rx.build_relaxation(parse_problem(FREE_ROOT_LOCALIZING_TEXT), level=level)
        assert len(relax.hier.bases) == 2 and len(relax.hier.weights[1]) == 3
        self.assert_entries_match(relax)

    def test_main_block_shares_the_cached_normal_forms(self, chsh):
        relax = rx.build_relaxation(chsh, level=2)
        pres = chsh.presentation
        for i, bi in enumerate(relax.basis):
            for j, bj in enumerate(relax.basis):
                word = Word(bi.letters + bj.adjoint().letters)
                assert relax.entries[0][i][j] is normal_form(word, pres)


class TestJointNumericalRange:
    def test_chsh_direction_recovers_quantum_bound(self, chsh):
        fam = rx.jnc_family(chsh)
        names = [n for n, _ in fam]
        assert names == ["F0", "1"]
        res = rx.jnc_support(chsh, [(fam[0][1], -1.0)], level=1)
        assert res.status == Status.OPTIMAL
        assert abs(res.bound + TWO_SQRT2) <= 1e-6

    def test_unit_direction_is_normalized(self, chsh):
        fam = dict(rx.jnc_family(chsh))
        res = rx.jnc_support(chsh, [(fam["1"], 1.0)], level=1)
        assert abs(res.bound - 1.0) <= 1e-7


class TestMonotonicity:
    def test_involution_pair_levels(self):
        text = """
[generators]
x selfadjoint
y selfadjoint

[relations]
x^2 = 1
y^2 = 1

[objective]
minimize x*y + y*x + x
"""
        prob = parse_problem(text)
        v1 = rx.build_relaxation(prob, level=1).solve()
        v2 = rx.build_relaxation(prob, level=2).solve()
        assert v1.status == Status.OPTIMAL and v2.status == Status.OPTIMAL
        assert v1.bound <= v2.bound + 1e-7


class TestIterationCeilings:
    """Iterations to OPTIMAL at TIGHT, no more than the solver took when the
    ceilings were set: a change in its rounding must not raise them
    unnoticed."""

    @pytest.mark.parametrize("text, level, ceiling", [
        pytest.param(text, level, ceiling, id=f"{name}-L{level}")
        for name, text, ceilings in [
            ("phased-cycle", PHASED_ADJOINT_CYCLE_TEXT, (8, 10)),
            ("chsh", (PROBLEMS / "chsh.csdp").read_text(), (4, 11, 10, 10)),
            ("ladder", LADDER_TEXT, (4, 11, 11))]
        for level, ceiling in enumerate(ceilings, start=1)])
    def test_iterations(self, text, level, ceiling):
        res = rx.build_relaxation(parse_problem(text), level=level).solve(TIGHT)
        assert res.status == Status.OPTIMAL
        assert res.solution.iterations <= ceiling


def text_cases():
    """Every problem file at levels 1-3 but SLOW_FILE_LEVELS, and every
    *_TEXT presentation of this module at levels 1-2 (the phased adjoint
    cycle's level 3 takes seconds)."""
    cases = [pytest.param(f.read_text(), tuple(d for d in (1, 2, 3)
                                               if (f.stem, d) not in SLOW_FILE_LEVELS), id=f.stem)
             for f in sorted(PROBLEMS.glob("*.csdp"))]
    cases += [pytest.param(text, (1, 2), id=name) for name, text in sorted(globals().items())
              if name.endswith("_TEXT") and isinstance(text, str)]
    return cases


def unreduced_build(monkeypatch, problem, level):
    """The problem's relaxation with the trivial group, on a hierarchy of its
    own, or the error its build raises."""
    with monkeypatch.context() as m:
        m.setattr(rx, "symmetry_chain", trivial_group)
        m.setattr(problem.presentation, "_hierarchies", {})
        return build_or_error(problem, level)


def build_or_error(problem, level):
    try:
        return rx.build_relaxation(problem, level=level)
    except rx.RelaxationError as e:
        return e


# minimize a + a' is unbounded below, and with the one-way rule b' = i*a
# the solver ends NUMERICAL on it instead of UNBOUNDED (ROADMAP items 9 and
# 14): the bound is the last iterate's estimate, certifies nothing and
# differs between two LMIs of the same relaxation, so only the status is
# compared
EXPECTED_NUMERICAL = (PHASED_ONE_WAY_TEXT,)


def assert_same_outcome(reduced, unreduced, numerical=False):
    """Equal statuses, and bounds within 1e-8 relative (assert_same_solve);
    a build whose group is trivial has the unreduced LMI bit for bit, so its
    solve is not repeated."""
    if isinstance(unreduced, Exception):
        assert type(reduced) is type(unreduced) and str(reduced) == str(unreduced)
        return
    assert reduced.symmetry["rows"] == unreduced.symmetry["rows"] == len(unreduced._lmi.rhs)
    assert unreduced.symmetry["order"] == 1
    if reduced.symmetry["order"] == 1:
        assert lmi_bytes(reduced) == lmi_bytes(unreduced)
        return
    assert_same_solve(reduced, unreduced, numerical)


def assert_same_solve(first, second, numerical=False):
    """Both relaxations solved at TIGHT: equal statuses, and bounds within
    1e-8 relative; both NUMERICAL, with the bounds not compared, for an
    input of EXPECTED_NUMERICAL."""
    a, b = first.solve(TIGHT), second.solve(TIGHT)
    if numerical:
        assert a.status == b.status == Status.NUMERICAL
        return
    assert a.status == b.status
    assert a.bound == b.bound or abs(a.bound - b.bound) <= 1e-8 * max(1.0, abs(b.bound))


def signed_permutations(pres, conj=False):
    """Every signed generator permutation, listed, that keeps the selfadjoint
    flags, the commuting pairs and the rules, composed with conjugation when
    conj: the brute force that symmetry_chain's search must agree with on
    small presentations."""
    n, pairs = len(pres.generators), pres.commuting
    found = []
    for pi in itertools.permutations(range(n)):
        if any(pres.generators[g].selfadjoint != pres.generators[pi[g]].selfadjoint
               or ((min(a, g), max(a, g)) in pairs)
               != ((min(pi[a], pi[g]), max(pi[a], pi[g])) in pairs)
               for g in range(n) for a in range(g)):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            sigma = tuple(s * (h + 1) for s, h in zip(signs, pi))
            if all(normal_form(apply_signed(sigma, Polynomial.from_word(r.lhs)), pres).close_to(
                    normal_form(apply_signed(sigma, r.rhs, conj), pres)) for r in pres.rules):
                found.append(sigma)
    return found


def fixing(problem, conj=False):
    """The signed generator permutations, listed, that keep the presentation
    and fix the objective's Hermitian part, composed with conjugation when
    conj."""
    pres = problem.presentation
    objective = normal_form(problem.objective, pres)
    objective = normal_form(objective + objective.adjoint(), pres)
    return [s for s in signed_permutations(pres, conj)
            if normal_form(apply_signed(s, objective, conj), pres).close_to(objective)]


def closure(gens):
    """The group that signed generator permutations generate, listed."""
    n = len(gens[0])
    group, todo = {tuple(range(1, n + 1))}, [tuple(range(1, n + 1))]
    while todo:
        a = todo.pop()
        for b in gens:
            c = tuple(b[t - 1] if t > 0 else -b[-t - 1] for t in a)
            if c not in group:
                group.add(c)
                todo.append(c)
    return group


def assert_invariant(problem, moments, conj=False):
    """omega(sigma(w)) = omega(w) for every moment word w and every
    candidate sigma that fixes the objective, or conj omega(w) for every
    one that fixes it composed with conjugation when conj."""
    pres = problem.presentation
    for sigma in fixing(problem, conj):
        for w, value in moments.items():
            (u, c), = normal_form(apply_signed(sigma, Polynomial.from_word(w)), pres).items()
            assert abs(c * moments[u] - (np.conj(value) if conj else value)) <= 1e-8, (sigma, w)


class TestSymmetryAdapted:
    """Each relaxation is solved over the parameters that its symmetry group,
    the signed generator permutations fixing the problem, leaves invariant."""

    @pytest.mark.parametrize("text, level, order", [
        (CHSH_TEXT, 1, 16),
        (LADDER_TEXT, 1, 12),
        ((PROBLEMS / "lasserre_x4.csdp").read_text(), 2, 2),
        ((PROBLEMS / "i3322.csdp").read_text(), 1, 1),
        (CHSH_TEXT.replace(CHSH_OBJECTIVE, "A0 + 2*A1 + 3*B0 + 5*B1"), 1, 1),
        # a positive or a scalar constraint that breaks a symmetry shrinks
        # the group: 1 - A0 keeps A0, A0*B0 <= 0.5 keeps its product
        (CHSH_TEXT + "[positive]\n1 - A0\n", 1, 2),
        (CHSH_TEXT + "[constraints]\nA0*B0 <= 0.5\n", 1, 4),
    ], ids=["chsh", "ladder", "lasserre_x4", "i3322", "asymmetric", "positive",
            "constraint"])
    def test_group_order(self, text, level, order):
        relax = rx.build_relaxation(parse_problem(text), level=level)
        assert relax.symmetry["order"] == order

    @pytest.mark.parametrize("text, objective", [
        (CHSH_TEXT, None), (CHSH_TEXT, CHSH_OBJECTIVE), (LADDER_TEXT, None),
        ((PROBLEMS / "lasserre_x4.csdp").read_text(), None),
    ], ids=["chsh", "chsh-objective", "ladder", "lasserre_x4"])
    def test_chain_generates_the_listed_group(self, text, objective):
        # the search's generators generate exactly the brute force's list,
        # of the order it reports: CHSH keeps 128 signed permutations, 8
        # permutations with 16 signs each, and 16 of them fix its objective
        problem = parse_problem(text)
        pres = problem.presentation
        listed = fixing(problem) if objective else signed_permutations(pres)
        fixed = []
        if objective:
            f = normal_form(problem.objective, pres)
            fixed = [normal_form(f + f.adjoint(), pres)]
        gens, order = symmetry_chain(pres, fixed, [], lambda sigma: True)
        assert order == len(listed)
        assert closure(gens) == set(listed) if gens else len(listed) == 1
        if text == CHSH_TEXT:
            assert order == (16 if objective else 128)

    def test_i3322_search(self):
        # I3322's projectors admit no sign, and K3,3 has 72 automorphisms,
        # which the search finds without listing them: 46,080 signed
        # permutations keep the flags
        pres = parse_problem_file(str(PROBLEMS / "i3322.csdp")).presentation
        start = time.perf_counter()
        gens, order = symmetry_chain(pres, [], [], lambda sigma: True)
        assert time.perf_counter() - start < 1.0
        assert order == 72 and len(closure(gens)) == 72
        assert all(t > 0 for sigma in gens for t in sigma)

    def test_search_is_cut_at_its_node_budget(self):
        # a fixed polynomial of one long word is checked only when all its
        # generators have images, so the failing searches below the first
        # base point would try about 645,000 completions each; the budget
        # stops them, and the generators found still fix the polynomial, of
        # a group whose order is a lower bound on the true 256 (the
        # reversal and the 128 sign flips of even parity)
        word, back = ("*".join(f"x{i}" for i in seq) for seq in (range(8), range(7, -1, -1)))
        text = ("[generators]\n" + "".join(f"x{i} selfadjoint\n" for i in range(8))
                + "[relations]\n" + "".join(f"x{i}^2 = 1\n" for i in range(8))
                + f"[objective]\nmaximize {word} + {back}\n")
        problem = parse_problem(text)
        pres = problem.presentation
        f = normal_form(problem.objective, pres)
        start = time.perf_counter()
        gens, order = symmetry_chain(pres, [f], [], lambda sigma: True)
        assert time.perf_counter() - start < 5.0
        assert 1 < order <= 256 and 256 % order == 0
        assert len(closure(gens)) == order
        assert all(normal_form(apply_signed(s, f), pres).close_to(f) for s in gens)

    def test_actions_are_checked_on_the_blocks(self, monkeypatch):
        # swapping an involution with a projector fixes x + y but is no
        # automorphism: (x, x) is the unit and (y, y) the moment of y.  With
        # the rules hidden from the search, the swap reaches the action,
        # whose check on G's triplets drops it
        text = ("[generators]\nx selfadjoint\ny selfadjoint\n[relations]\n"
                "x^2 = 1\ny^2 = y\n[objective]\nminimize x + y\n")
        for level in (1, 2):
            problem = parse_problem(text)
            offered = []
            monkeypatch.setattr(problem.presentation, "rules", ())
            monkeypatch.setattr(rx, "_action", lambda hier, sigma, pres, act=rx._action:
                                offered.append(sigma) or act(hier, sigma, pres))
            relax = rx.build_relaxation(problem, level=level)
            assert offered == [(2, 1)] and relax.symmetry["order"] == 1
            assert relax.solve(TIGHT).status == Status.OPTIMAL
            monkeypatch.undo()

    def test_refused_generator_is_replaced(self, monkeypatch):
        # a generator whose action is refused sends the search on to the next
        # completion with the same image, so CHSH keeps its order 16.  The
        # refused one is the generator found last, for the first base point,
        # whose coset holds the two elements of the stabilizer below it
        problem = parse_problem(CHSH_TEXT)
        found = []

        def chain(*args, search=rx.symmetry_chain):
            found.append(search(*args)[0])
            return search(*args)

        with monkeypatch.context() as m:
            m.setattr(rx, "symmetry_chain", chain)
            first = rx.build_relaxation(problem, level=1)
        sigma, offered = found[0][-1], []

        def action(hier, s, pres, act=rx._action):
            offered.append(s)
            return None if s == sigma else act(hier, s, pres)

        monkeypatch.setattr(rx, "_action", action)
        monkeypatch.setattr(problem.presentation, "_hierarchies", {})
        relax = rx.build_relaxation(problem, level=1)
        assert sigma in offered and offered[-1] != sigma
        assert relax.symmetry == first.symmetry == {"order": 16, "rows": 6}
        assert len(relax._lmi.rhs) == len(first._lmi.rhs) == 1

    @pytest.mark.parametrize("objective, order, rows", [
        (" + ".join(f"x{i}*x{(i + 1) % 8} + x{(i + 1) % 8}*x{i}" for i in range(8)), 32,
         [(28, 4), (1400, 104)]),
        (" + ".join(f"x{i}*x{j} + x{j}*x{i}" for i in range(8) for j in range(i + 1, 8)),
         80640, [(28, 1), (1400, 5)]),
        ("x0*x7 + x7*x0", 2 * 2 * 720 * 64, [(1, 1), (2, 2)]),
    ], ids=["cycle", "all-pairs", "one-pair"])
    def test_eight_free_involutions(self, objective, order, rows):
        # 8! 2^8 = 10,321,920 signed permutations keep the presentation; the
        # search finds the group that fixes the objective from a few
        # generators: the cycle's dihedral group times the global sign, all
        # of S8 times it, and for x0 x7 the swap, their two signs and every
        # signed permutation of the other six, whose parameters term
        # sparsity drops.  Levels 1-2 build in about 0.3 s
        text = ("[generators]\n" + "".join(f"x{i} selfadjoint\n" for i in range(8))
                + "[relations]\n" + "".join(f"x{i}^2 = 1\n" for i in range(8))
                + f"[objective]\nmaximize {objective}\n")
        problem = parse_problem(text)
        start = time.perf_counter()
        for level, (free, m) in zip((1, 2), rows):
            relax = rx.build_relaxation(problem, level=level)
            assert relax.symmetry == {"order": order, "rows": free}
            assert len(relax._lmi.rhs) == m
        assert time.perf_counter() - start < 10.0

    def test_equality_keeps_n_orthonormal(self, monkeypatch):
        # a scalar equality restricts N off the coordinates, so Q is read off
        # the SVD: N Q keeps orthonormal columns, and the bound is the
        # unreduced one
        problem = parse_problem(CHSH_TEXT + "[constraints]\nA0*B0 + A1*B1 == 1.4\n")
        relax = rx.build_relaxation(problem, level=2)
        assert relax.symmetry["order"] > 1 and len(relax._lmi.rhs) < relax.symmetry["rows"]
        assert np.allclose(relax._N.T @ relax._N, np.eye(relax._N.shape[1]), atol=1e-12)
        assert_same_outcome(relax, unreduced_build(monkeypatch, problem, 2))

    @pytest.mark.parametrize("text, levels", text_cases())
    def test_reduced_solve_matches_unreduced(self, monkeypatch, text, levels):
        for level in levels:
            problem = parse_problem(text)
            assert_same_outcome(build_or_error(problem, level),
                                unreduced_build(monkeypatch, problem, level),
                                text in EXPECTED_NUMERICAL)

    def test_symmetric_pool_problems(self, monkeypatch):
        # the benchmark's 200 random involution problems at seed 404: 77 have
        # a group, sign flips and swaps of the generators the objective
        # leaves out
        monkeypatch.syspath_prepend(str(PROBLEMS.parent / "bench"))
        pool = __import__("workloads").HierarchyPool(404).pool
        symmetric = 0
        for problem, _ in pool:
            builds = [build_or_error(problem, level) for level in (1, 2)]
            if all(isinstance(r, Exception) or r.symmetry["order"] == 1 for r in builds):
                continue
            symmetric += 1
            for level, reduced in zip((1, 2), builds):
                assert_same_outcome(reduced, unreduced_build(monkeypatch, problem, level))
        assert symmetric == 77

    @pytest.mark.parametrize("text, level", [
        (CHSH_TEXT, 2), (LADDER_TEXT, 2), (TWO_CORRELATORS_TEXT, 2),
    ], ids=["chsh-L2", "ladder-L2", "two-correlators-L2"])
    def test_moments_are_invariant(self, text, level):
        problem = parse_problem(text)
        res = rx.build_relaxation(problem, level=level).solve(TIGHT)
        assert res.status == Status.OPTIMAL
        assert len(fixing(problem)) > 1
        assert_invariant(problem, res.moments)

    def test_group_permutes_components(self, monkeypatch):
        # maximize A0*B0 + A1*B1 at level 1: term sparsity keeps the
        # components {A0, B0} and {A1, B1}, and the unit's is a constant;
        # the swap A0 <-> A1, B0 <-> B1 exchanges the two, which leaves one
        # row of two
        problem = parse_problem(TWO_CORRELATORS_TEXT)
        relax = rx.build_relaxation(problem, level=1)
        assert [b.size for b in relax._lmi.blocks] == [2, 2]
        assert relax.symmetry["rows"] == 2 and len(relax._lmi.rhs) == 1
        res = relax.solve(TIGHT)
        assert res.status == Status.OPTIMAL and abs(res.bound - 2.0) <= 1e-8
        Z0, Z1 = res.solution.Z
        assert np.allclose(np.linalg.eigvalsh(Z0), np.linalg.eigvalsh(Z1), atol=1e-9)
        assert_invariant(problem, res.moments)
        assert_same_outcome(relax, unreduced_build(monkeypatch, problem, 1))


def unitary_build(monkeypatch, problem, level):
    """The problem's relaxation with the conjugation bit off, the search
    offering signed generator permutations alone, on a hierarchy of its
    own, or the error its build raises."""
    with monkeypatch.context() as m:
        m.setattr(rx, "symmetry_chain", lambda *args: symmetry_chain(*args[:4]))
        m.setattr(problem.presentation, "_hierarchies", {})
        return build_or_error(problem, level)


def hermitian_build(monkeypatch, problem, level):
    """The problem's relaxation on the same group and invariant directions,
    with every block kept Hermitian, on a hierarchy of its own."""
    with monkeypatch.context() as m:
        m.setattr(rx, "_real_basis", lambda beta, eps, nodes: None)
        m.setattr(problem.presentation, "_hierarchies", {})
        return rx.build_relaxation(problem, level=level)


def complex_cases():
    """Every complex-mode *_TEXT presentation of this module at levels 1-2,
    and phased_involution.csdp at levels 1-3."""
    cases = [pytest.param(text, (1, 2), id=name) for name, text in sorted(globals().items())
             if name.endswith("_TEXT") and isinstance(text, str)
             and not rx._detect_real_mode(parse_problem(text))]
    return cases + [pytest.param((PROBLEMS / "phased_involution.csdp").read_text(), (1, 2, 3),
                                 id="phased_involution")]


class TestAntiunitary:
    """In complex mode the group may also conjugate coefficients; a block
    that such an element maps onto itself as an involution is solved real
    in a basis of its fixed vectors."""

    def test_chain_generates_the_listed_group(self):
        # the ladder's shift and global sign (order 6) and the three swaps
        # composed with conjugation, each with the global sign: the
        # conjugating elements carry -4 past the three generators
        problem = parse_problem(LADDER_TEXT)
        pres = problem.presentation
        f = normal_form(problem.objective, pres)
        gens, order = symmetry_chain(pres, [normal_form(f + f.adjoint(), pres)], [],
                                     lambda sigma: True, True)
        listed = {s + (4,) for s in fixing(problem)} | {s + (-4,) for s in fixing(problem, True)}
        assert order == len(listed) == 12
        assert closure(gens) == listed

    def test_moments_are_conjugate_invariant(self):
        problem = parse_problem(LADDER_TEXT)
        res = rx.build_relaxation(problem, level=2).solve(TIGHT)
        assert res.status == Status.OPTIMAL
        assert len(fixing(problem, conj=True)) == 6
        assert_invariant(problem, res.moments, conj=True)
        assert_invariant(problem, res.moments)

    @pytest.mark.parametrize("text, levels", complex_cases())
    def test_bit_keeps_the_outcome(self, monkeypatch, text, levels):
        # an element that conjugates doubles the order and can only shrink
        # the LMI's rows; without one the LMI is the unitary search's, bit
        # for bit
        for level in levels:
            problem = parse_problem(text)
            on, off = build_or_error(problem, level), unitary_build(monkeypatch, problem, level)
            if isinstance(off, Exception):
                assert type(on) is type(off) and str(on) == str(off)
                continue
            assert on.symmetry["rows"] == off.symmetry["rows"]
            if on.symmetry["order"] == off.symmetry["order"]:
                assert lmi_bytes(on) == lmi_bytes(off)
                continue
            assert on.symmetry["order"] == 2 * off.symmetry["order"]
            assert len(on._lmi.rhs) <= len(off._lmi.rhs)
            assert_same_solve(on, off, text in EXPECTED_NUMERICAL)

    @pytest.mark.parametrize("level, rows", [(1, 2), (2, 8), (3, 28)])
    def test_ladder_blocks_are_real(self, monkeypatch, level, rows):
        # x fixed, y <-> z and conjugation maps each component onto itself
        # as an involution, so every block is real in the basis U of its
        # fixed vectors: U* A U of the Hermitian stack, with an imaginary
        # part at rounding level, and Z lifts back as U Z U*
        problem = parse_problem(LADDER_TEXT)
        relax = rx.build_relaxation(problem, level=level)
        herm = hermitian_build(monkeypatch, problem, level)
        real, hermitian = relax._lmi.stacks(), herm._lmi.stacks()
        assert len(relax._lifts) == len(real) == len(hermitian) and len(relax._lmi.rhs) == rows
        for R, A, U in zip(real, hermitian, relax._lifts):
            assert R.dtype == float and A.dtype == complex
            assert np.allclose(U.conj().T @ U, np.eye(len(U)), atol=1e-15)
            B = U.conj().T @ A @ U
            assert np.abs(B.imag).max() <= 1e-15 * np.abs(A).max()
            assert np.abs(B.real - R).max() <= 1e-15 * np.abs(A).max()
        assert herm._lifts == [None] * len(hermitian)
        a, b = relax.solve(TIGHT), herm.solve(TIGHT)
        assert a.status == b.status == Status.OPTIMAL
        assert a.solution.iterations == b.solution.iterations
        assert abs(a.bound - b.bound) <= 1e-9
        assert np.linalg.eigvalsh(a.moment_matrix)[0] >= -1e-12
        assert np.abs(a.moment_matrix - b.moment_matrix).max() <= 1e-7

    def test_real_mode_never_conjugates(self, monkeypatch):
        # a real-mode build never asks the search for the conjugation bit
        # and solves no block in a new basis, so its group, order and LMI
        # are the unitary search's, bit for bit: CHSH L1-L4, I3322 L1-L2
        # and 20 of the benchmark's pool problems at L1-L2
        monkeypatch.syspath_prepend(str(PROBLEMS.parent / "bench"))
        pool = [problem for problem, _ in __import__("workloads").HierarchyPool(404).pool[:20]]
        cases = [(parse_problem_file(str(PROBLEMS / "chsh.csdp")), (1, 2, 3, 4)),
                 (parse_problem_file(str(PROBLEMS / "i3322.csdp")), (1, 2))]
        cases += [(problem, (1, 2)) for problem in pool]
        asked = []

        def chain(*args):
            asked.append(args[4])
            return symmetry_chain(*args)

        for problem, levels in cases:
            for level in levels:
                with monkeypatch.context() as m:
                    m.setattr(rx, "symmetry_chain", chain)
                    m.setattr(problem.presentation, "_hierarchies", {})
                    relax = build_or_error(problem, level)
                off = unitary_build(monkeypatch, problem, level)
                if isinstance(off, Exception):
                    assert type(relax) is type(off)
                    continue
                assert relax.hier.real_mode and relax._lifts == [None] * len(relax._parts)
                assert relax.symmetry == off.symmetry and lmi_bytes(relax) == lmi_bytes(off)
        assert asked and not any(asked)


def test_build_leaves_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of peak RSS; a plain np.unique imports it
    code = ("import sys\n"
            "from starsdp import build_relaxation, parse_problem_file\n"
            "from starsdp.problems import parse_problem\n"
            "build_relaxation(parse_problem_file('problems/chsh.csdp'), 2).solve()\n"
            f"build_relaxation(parse_problem({LADDER_TEXT!r}), 2).solve()\n"
            "print('numpy.ma' in sys.modules)\n")
    root = PROBLEMS.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def chained_bell_value(n):
    """The quantum maximum 2n cos(pi/(2n)) of the chained Bell inequality
    with n settings per party, which every level reaches."""
    return 2 * n * np.cos(np.pi / (2 * n))


def wehner_realization(pres, n):
    """Wehner's optimal strategy for the chained Bell inequality: the
    maximally entangled pair of qubits Phi+ with A_i = R(2 i theta) (x) I and
    B_j = I (x) R((2 j + 1) theta), R(t) = cos t Z + sin t X and
    theta = pi/(2n): each term of the chain, the closing -A0 B_(n-1)
    included, is worth cos(theta)."""
    theta = np.pi / (2 * n)
    Z, X, I2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)

    def R(t):
        return np.cos(t) * Z + np.sin(t) * X

    mats = {f"A{i}": np.kron(R(2 * i * theta), I2) for i in range(n)}
    mats.update({f"B{j}": np.kron(I2, R((2 * j + 1) * theta)) for j in range(n)})
    psi = np.zeros(4)
    psi[0] = psi[3] = np.sqrt(0.5)
    return ConcreteRealization(pres, mats, psi)


class TestChainedBell:
    """problems/chained_bell3.csdp and chained_bell4.csdp: 2n involutions,
    a group of order 8n fixing the objective, and the value 2n cos(pi/(2n))
    at every level."""

    @pytest.mark.parametrize("n, order, rows, m", [
        (3, 24, (15, 111), (2, 13)),
        (4, 32, (28, 400), (3, 34)),
    ], ids=["n3", "n4"])
    def test_levels_reach_the_quantum_value(self, n, order, rows, m):
        problem = parse_problem_file(str(PROBLEMS / f"chained_bell{n}.csdp"))
        value = chained_bell_value(n)
        real = wehner_realization(problem.presentation, n)
        bounds = []
        for level, free, schur_dim in zip((1, 2), rows, m):
            relax = rx.build_relaxation(problem, level=level)
            assert relax.symmetry == {"order": order, "rows": free}
            res = relax.solve()
            assert res.status == Status.OPTIMAL
            assert len(res.solution.y) == schur_dim
            assert abs(res.bound - value) <= 1e-7 * value
            bounds.append(res.bound)
            # Wehner's strategy is feasible and worth the value, which the
            # default tolerance's bound may miss by a few 1e-8
            moments = realize_moments(real, relax.hier.words)
            rep = feasibility_check(relax.model, relax.blocks_from_moments(moments))
            assert rep.max_violation <= 1e-12
            achieved = relax.evaluate(problem.objective, moments)
            assert abs(achieved - value) <= 1e-12 * value
            assert achieved.real <= res.bound + 1e-7 * value
        assert bounds[1] <= bounds[0]


def rewritten(text, rng, order=None):
    """The problem file text written another way, the same problem in exact
    arithmetic: its relations, its commute lines and the two sides of each
    (and the names within a side), and its objective's terms shuffled, and
    its generator declarations reordered, each party (a side of a commute
    line, or a generator on no side) kept contiguous, or put in order, a
    list of generator names.  Comment lines are dropped; other sections are
    kept as they are."""
    sections, name = {}, None
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            name = line
            sections[name] = []
        elif line:
            sections[name].append(line)

    def shuffled(items):
        return [items[k] for k in rng.permutation(len(items))]

    commute = []
    for line in sections.get("[commute]", []):
        sides = [shuffled([g.strip() for g in side.strip(" {}").split(",")])
                 for side in line.split("with")]
        commute.append(" with ".join("{" + ", ".join(side) + "}" for side in shuffled(sides)))
    if "[commute]" in sections:
        sections["[commute]"] = shuffled(commute)
    if "[relations]" in sections:
        sections["[relations]"] = shuffled(sections["[relations]"])

    declared = {line.split()[0]: line for line in sections["[generators]"]}
    if order is None:
        parties = []
        for line in sections.get("[commute]", []):
            for side in line.split("with"):
                party = [g.strip() for g in side.strip(" {}").split(",")]
                if not any(g in p for p in parties for g in party):
                    parties.append(party)
        parties += [[g] for g in declared if not any(g in p for p in parties)]
        order = [g for party in shuffled(parties) for g in shuffled(party)]
    sections["[generators]"] = [declared[g] for g in order]

    [objective] = sections["[objective]"]
    sense, poly = objective.split(None, 1)
    terms = [t.replace(" ", "") for t in re.findall(r"[+-]?[^+-]+", poly)]
    terms = [t if t[0] in "+-" else "+" + t for t in shuffled(terms)]
    body = " ".join(f"{t[0]} {t[1:]}" for t in terms)
    sections["[objective]"] = [f"{sense} {body[2:] if body[0] == '+' else '-' + body[2:]}"]
    return "".join(f"{name}\n" + "".join(f"{line}\n" for line in lines) + "\n"
                   for name, lines in sections.items())


class TestRewrittenProblemFiles:
    """Metamorphic: a problem file written another way, with its relations,
    commute lines and objective's terms shuffled and its parties declared in
    another order, solves to the same status, the same bound within 1e-8
    relative and the same symmetry."""

    @staticmethod
    def assert_same_problem(text, other, level):
        first = build_or_error(parse_problem(text), level)
        second = build_or_error(parse_problem(other), level)
        if isinstance(first, Exception):
            assert type(second) is type(first)
            return
        assert second.symmetry == first.symmetry
        assert_same_solve(first, second)

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.csdp")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("level", [1, 2])
    def test_problem_files(self, path, level):
        text = path.read_text()
        for seed in (0, 1):
            self.assert_same_problem(text, rewritten(text, np.random.default_rng(seed)), level)

    @pytest.mark.parametrize("name, order", [
        pytest.param("chsh", ["A1", "B0", "B1", "A0"], id="chsh"),
        pytest.param("chained_bell3", ["A1", "B0", "A2", "B1", "A0", "B2"],
                     id="chained_bell3"),
    ])
    def test_interleaved_parties(self, name, order):
        # the parser declares the generators party by party, so the
        # commutation rules of interleaved declarations stay confluent
        text = (PROBLEMS / f"{name}.csdp").read_text()
        self.assert_same_problem(text, rewritten(text, np.random.default_rng(0), order), 3)


def pool_problem(i):
    """The i-th problem of the benchmark's hierarchy pool (seed 404): the
    first 20 are commuting involution problems, drawn as the acceptance
    test's random instances are."""
    rng = np.random.default_rng(404)
    for trial in range(i + 1):
        problem = random_involution_problem(rng, int(rng.integers(1, 4)), True,
                                            2 if trial % 2 == 0 else 4)
    return problem


def haar_unitary(rng, n, complex_):
    """A Haar random orthogonal matrix, or unitary when complex_ (QR of a
    Gaussian matrix, with R's diagonal made positive)."""
    G = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def rewritten_lmis(lmi, rng):
    """The LMI written five other ways, each the same SDP in exact
    arithmetic: its rows permuted, its blocks permuted, each block under a
    Haar orthogonal (unitary, for a Hermitian block) congruence, one row
    duplicated, and a 1x1 block appended with cost 1 and no row entries."""
    S, rows = lmi.stacks(), list(zip(lmi.senses, lmi.rhs.tolist()))
    p = rng.permutation(len(rows))
    yield "rows", SDPModel.from_stacks([np.concatenate([A[:1], A[1:][p]]) for A in S],
                                       [rows[k] for k in p])
    yield "blocks", SDPModel.from_stacks([S[b] for b in rng.permutation(len(S))], rows)
    Q = [haar_unitary(rng, A.shape[-1], np.iscomplexobj(A)) for A in S]
    yield "congruence", SDPModel.from_stacks([U.conj().T @ A @ U for U, A in zip(Q, S)], rows)
    k = int(rng.integers(len(rows)))
    yield "duplicate", SDPModel.from_stacks([np.concatenate([A, A[1 + k:2 + k]]) for A in S],
                                            rows + [rows[k]])
    E = np.zeros((1 + len(rows), 1, 1))
    E[0] = 1.0
    yield "1x1 block", SDPModel.from_stacks(S + [E], rows)


class TestRewrittenLMIs:
    """Metamorphic, on the SDP side: a relaxation's LMI written another way
    solves at TIGHT to the same status and a bound within 1e-8 relative."""

    CASES = ([("chsh", d) for d in (1, 2, 3)] + [("lasserre_x4", d) for d in (2, 3)]
             + [("i3322", 1)] + [("chained_bell3", d) for d in (1, 2)]
             + [("ladder", d) for d in (1, 2, 3)]
             + [(f"pool {i}", d) for i in range(10) for d in (1, 2)])

    @staticmethod
    def problem(name):
        if name == "ladder":
            return parse_problem(LADDER_TEXT)
        if name.startswith("pool"):
            return pool_problem(int(name.split()[1]))
        return parse_problem_file(str(PROBLEMS / f"{name}.csdp"))

    @pytest.mark.parametrize("name, level", CASES, ids=[f"{n} L{d}" for n, d in CASES])
    def test_same_solve(self, name, level):
        relax = rx.build_relaxation(self.problem(name), level)
        base = relax.solve(TIGHT)
        # the bound is an affine function of the LMI's dual value
        scale = 1e-8 * max(1.0, abs(base.bound))
        for kind, lmi in rewritten_lmis(relax._lmi, np.random.default_rng(level)):
            sol = solve(lmi, TIGHT)
            assert sol.status == base.solution.status, kind
            assert abs(sol.dual_value - base.solution.dual_value) <= scale, kind

    @pytest.mark.xfail(strict=True, reason="the solver does not scale the rows: I3322 L2 "
                       "with row k and b_k scaled by 10^u ends NUMERICAL (CHANGES.md FOUND; "
                       "ROADMAP item 4)")
    def test_scaled_rows(self):
        lmi = rx.build_relaxation(parse_problem_file(str(PROBLEMS / "i3322.csdp")), 2)._lmi
        statuses = []
        for seed in range(4):
            u = 10.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(lmi.rhs))
            scaled = SDPModel.from_stacks(
                [np.concatenate([A[:1], A[1:] * u[:, None, None]]) for A in lmi.stacks()],
                list(zip(lmi.senses, (lmi.rhs * u).tolist())))
            statuses.append(solve(scaled, TIGHT).status)
        assert statuses == [Status.OPTIMAL] * 4
