"""Word and polynomial arithmetic plus rewriting, checked against hand
derivations and seeded fuzzing."""

import itertools
import random
from pathlib import Path

import pytest

from starsdp import algebra
from starsdp.algebra import (
    AlgebraError,
    Generator,
    Polynomial,
    Presentation,
    RewriteLimitError,
    RewriteRule,
    UNIT_WORD,
    Word,
    is_selfadjoint_poly,
    normal_form,
    normal_form_word,
    poly_mul,
    single,
)
from starsdp.problems import parse_problem
from support import reference_normal_form
import test_relaxation

ROOT = Path(__file__).resolve().parent.parent


def chsh_presentation():
    gens = tuple(Generator(n, selfadjoint=True) for n in ("A0", "A1", "B0", "B1"))
    rules = tuple(
        RewriteRule(Word(((i, False), (i, False))), Polynomial.unit()) for i in range(4)
    )
    commuting = frozenset((a, b) for a in (0, 1) for b in (2, 3))
    return Presentation(gens, rules, commuting)


def word(*letters):
    return Word(tuple(letters))


class TestWord:
    def test_adjoint_reverses_and_toggles(self):
        w = word((0, False), (1, True), (2, False))
        assert w.adjoint() == word((2, True), (1, False), (0, True))

    def test_adjoint_involution(self):
        w = word((3, True), (0, False))
        assert w.adjoint().adjoint() == w

    def test_unit_adjoint(self):
        assert UNIT_WORD.adjoint() == UNIT_WORD

    def test_order_degree_then_lex_star_breaks_ties(self):
        # degree dominates; within a degree, generator index, then star
        assert UNIT_WORD < single(0)
        assert single(0) < single(0, True)
        assert single(0, True) < single(1)
        assert single(3) < word((0, False), (0, False))
        # every comparison, not only <, ranks degree first, where a plain
        # tuple compares letter-wise
        long, short = word((0, False), (0, False)), single(3)
        assert long > short and long >= short and not long <= short
        assert short <= short and short >= short and not short < short
        assert sorted([long, short, UNIT_WORD]) == [UNIT_WORD, short, long]

    def test_word_is_the_tuple_of_its_letters(self):
        # a Word hashes and tests equality natively, as its letters' tuple:
        # it equals that tuple and finds its dict entries, which is sound
        # because a tuple of letters and a Word of them name one word
        letters = ((0, False), (1, True))
        w = Word(letters)
        assert w == letters and hash(w) == hash(letters)
        assert {letters: 1}[w] == 1 and {w: 1}[letters] == 1
        assert type(w.letters) is tuple and w.letters == letters
        assert w.degree() == 2 and UNIT_WORD.is_unit() and not w.is_unit()
        assert w.concat(single(2)) == Word(letters + ((2, False),))
        assert type(w.concat(w)) is Word and type(w.adjoint()) is Word
        assert repr(w) == "Word(letters=((0, False), (1, True)))"
        assert Word.__hash__ is tuple.__hash__ and Word.__eq__ is tuple.__eq__


class TestPolynomial:
    def test_zero_prune(self):
        p = Polynomial({single(0): 1e-13})
        assert p.is_zero()

    def test_structural_equality(self):
        p = Polynomial({single(0): 1.0, single(1): 2.0})
        q = Polynomial({single(1): 2.0, single(0): 1.0})
        assert p == q

    def test_add_cancel(self):
        p = Polynomial.from_word(single(0))
        assert (p - p).is_zero()

    def test_mul_distributes(self):
        a, b = single(0), single(2)
        p = Polynomial.from_word(a) + Polynomial.from_word(single(1))
        q = Polynomial.from_word(b)
        r = poly_mul(p, q)
        assert r.coeff(a.concat(b)) == 1
        assert r.coeff(single(1).concat(b)) == 1
        assert len(r) == 2

    def test_scalar_and_neg(self):
        p = 2.0 * Polynomial.from_word(single(0))
        assert (-p).coeff(single(0)) == -2.0

    def test_adjoint_conjugates_coefficients(self):
        p = Polynomial.from_word(word((0, False), (1, False)), 1j)
        q = p.adjoint()
        assert q.coeff(word((1, True), (0, True))) == -1j

    @pytest.mark.parametrize("c", [float("inf"), complex(1, float("-inf")), float("nan"),
                                   complex(float("inf"), float("nan")), complex(1.5e308, 1.5e308)])
    def test_non_finite_coefficient_rejected(self, c):
        # complex arithmetic on inf gives NaN, which would otherwise be
        # pruned as if it were small
        with pytest.raises(AlgebraError, match="not finite"):
            Polynomial({single(0): c})
        big = Polynomial.from_word(single(0), 1e200)
        with pytest.raises(AlgebraError, match="not finite"):
            poly_mul(big, big)

    def test_as_word(self):
        w = word((0, False), (1, True))
        assert Polynomial.from_word(w).as_word() == w
        assert Polynomial.from_word(w, 1 + 1e-13).as_word() == w
        assert Polynomial.unit().as_word() == UNIT_WORD
        for p in [Polynomial.zero(), Polynomial.from_word(w, 2.0),
                  Polynomial.from_word(w) + Polynomial.unit()]:
            assert p.as_word() is None


class TestRewriteRule:
    def test_rejects_unit_lhs(self):
        with pytest.raises(AlgebraError):
            RewriteRule(UNIT_WORD, Polynomial.unit())

    def test_rejects_order_increase(self):
        # x -> x x is not decreasing
        with pytest.raises(AlgebraError):
            RewriteRule(single(0), Polynomial.from_word(word((0, False), (0, False))))

    def test_rejects_equal(self):
        with pytest.raises(AlgebraError):
            RewriteRule(single(0), Polynomial.from_word(single(0)))


class TestNormalFormChsh:
    def setup_method(self):
        self.pres = chsh_presentation()

    def test_square_collapses(self):
        # A0 A0 -> 1
        p = normal_form_word(word((0, False), (0, False)), self.pres)
        assert p == Polynomial.unit()

    def test_commutation_orders_cross_pairs(self):
        # B0 A0 -> A0 B0
        p = normal_form_word(word((2, False), (0, False)), self.pres)
        assert p == Polynomial.from_word(word((0, False), (2, False)))

    def test_same_side_does_not_commute(self):
        w = word((1, False), (0, False))  # A1 A0 stays put
        assert normal_form_word(w, self.pres) == Polynomial.from_word(w)

    def test_starred_chain_reduces(self):
        # A1* B0* A1 -> A1 B0 A1 -> A1 A1 B0 -> B0
        w = word((1, True), (2, True), (1, False))
        assert normal_form_word(w, self.pres) == Polynomial.from_word(single(2))

    def test_star_removal_on_selfadjoint(self):
        assert normal_form_word(single(0, True), self.pres) == Polynomial.from_word(single(0))

    def test_starred_pair_commutes(self):
        # B0* A0* -> A0* B0* -> A0 B0 after star removal
        w = word((2, True), (0, True))
        assert normal_form_word(w, self.pres) == Polynomial.from_word(
            word((0, False), (2, False))
        )


class TestNormalFormGeneral:
    def test_sum_rule_expands(self):
        # x^2 -> 1 - x, so x^3 -> x - x^2 -> -1 + 2x
        x = Generator("x", selfadjoint=True)
        sq = RewriteRule(
            Word(((0, False), (0, False))),
            Polynomial.unit() - Polynomial.from_word(single(0)),
        )
        pres = Presentation((x,), (sq,))
        p = normal_form_word(word((0, False), (0, False), (0, False)), pres)
        assert p == Polynomial.unit(-1.0) + 2.0 * Polynomial.from_word(single(0))

    def test_complex_rule(self):
        # u* -> i u and u u -> -i 1 describe a phase-rotated involution
        u = Generator("u", selfadjoint=False)
        r1 = RewriteRule(single(0, True), Polynomial.from_word(single(0), 1j))
        r2 = RewriteRule(word((0, False), (0, False)), Polynomial.unit(-1j))
        pres = Presentation((u,), (r1, r2))
        # u u* -> i u u -> i(-i) = 1
        p = normal_form_word(word((0, False), (0, True)), pres)
        assert p == Polynomial.unit()
        # u* u -> (i u) u -> i(-i) = 1
        p = normal_form_word(word((0, True), (0, False)), pres)
        assert p == Polynomial.unit()

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(algebra, "REWRITE_STEP_CAP", 2)
        pres = chsh_presentation()
        w = Word(tuple((0, False) for _ in range(12)))
        with pytest.raises(RewriteLimitError):
            normal_form_word(w, pres)

    def test_selfadjointness_check(self):
        pres = chsh_presentation()
        chsh = (
            Polynomial.from_word(pres.word("A0", "B0"))
            + Polynomial.from_word(pres.word("A1", "B1"))
            + Polynomial.from_word(pres.word("A0", "B1"))
            - Polynomial.from_word(pres.word("A1", "B0"))
        )
        assert is_selfadjoint_poly(chsh, pres)
        assert not is_selfadjoint_poly(Polynomial.from_word(pres.word("A0", "A1")), pres)


class TestRedefinedLeftSide:
    """A left side gets one right side: a later rule for it must agree
    after rewriting, whether the first one is implicit or explicit."""

    X = Generator("x", selfadjoint=True)
    XX = word((0, False), (0, False))

    def test_two_squares_disagree(self):
        rules = (RewriteRule(self.XX, Polynomial.unit()),
                 RewriteRule(self.XX, Polynomial.from_word(single(0))))
        with pytest.raises(AlgebraError, match=r"x\*x"):
            Presentation((self.X,), rules)

    def test_star_of_selfadjoint_redefined(self):
        rule = RewriteRule(single(0, True), Polynomial.from_word(single(0), 2.0))
        with pytest.raises(AlgebraError, match="x'"):
            Presentation((self.X,), (rule,))

    def test_commuting_swap_redefined(self):
        gens = (Generator("a", selfadjoint=True), Generator("b", selfadjoint=True))
        rule = RewriteRule(word((1, False), (0, False)),
                           Polynomial.from_word(word((0, False), (1, False)), -1.0))
        with pytest.raises(AlgebraError, match=r"b\*a"):
            Presentation(gens, (rule,), frozenset({(0, 1)}))

    def test_agreeing_rules_are_accepted(self):
        star = RewriteRule(single(0, True), Polynomial.from_word(single(0)))
        sq = RewriteRule(self.XX, Polynomial.unit())
        pres = Presentation((self.X,), (star, sq, sq))
        assert normal_form_word(word((0, True), (0, False)), pres) == Polynomial.unit()


# Overlapping left sides, so that normal forms depend on the scan order:
# x*y*z is z (x*y first), y (longest first) or x*x (rightmost first), and
# z*x*y is x*z*y (the swap first) or z (rightmost first).
SCAN_ORDER_TEXT = """
[generators]
x selfadjoint
y
z
[relations]
x*y = 1
y*z = x
x*y*z = y
x'*y = z
[commute]
{x} with {z}
[objective]
minimize x
"""


def presentations_under_test():
    texts = [(f.name, f.read_text()) for f in sorted((ROOT / "problems").glob("*.csdp"))]
    texts.append(("SCAN_ORDER_TEXT", SCAN_ORDER_TEXT))
    texts += [(name, getattr(test_relaxation, name))
              for name in dir(test_relaxation) if name.endswith("_TEXT")]
    return [pytest.param(parse_problem(text).presentation, id=name) for name, text in texts]


@pytest.mark.parametrize("pres", presentations_under_test())
def test_normal_forms_match_reference_scan(pres):
    """Every word up to degree 4 rewrites as the plain scan rewrites it."""
    letters = [(g, s) for g in range(len(pres.generators)) for s in (False, True)]
    for d in range(5):
        for w in itertools.product(letters, repeat=d):
            assert normal_form_word(Word(w), pres) == reference_normal_form(Word(w), pres), w


def test_scan_order_decides_overlaps():
    pres = parse_problem(SCAN_ORDER_TEXT).presentation
    assert normal_form_word(pres.word("x", "y", "z"), pres) == Polynomial.from_word(pres.word("z"))
    assert normal_form_word(pres.word("z", "x", "y"), pres) == Polynomial.from_word(
        pres.word("x", "z", "y"))
    assert normal_form_word(word((0, True), (1, False)), pres) == Polynomial.unit()


def random_word(rng, n_gens, max_len, allow_star=True):
    k = rng.randrange(max_len + 1)
    return Word(
        tuple((rng.randrange(n_gens), allow_star and rng.random() < 0.5) for _ in range(k))
    )


class TestRewritingLaws:
    """Idempotence, involution compatibility and the anti-homomorphism law
    on seeded fuzzed words."""

    def fuzz(self, pres, n_words=300, seed=7):
        rng = random.Random(seed)
        n = len(pres.generators)
        for _ in range(n_words):
            w = random_word(rng, n, 6)
            v = random_word(rng, n, 4)
            nf = normal_form_word(w, pres)
            # idempotence
            assert normal_form(nf, pres) == nf
            # involution: NF(w*) equals NF(NF(w)*)
            assert normal_form_word(w.adjoint(), pres).close_to(
                normal_form(nf.adjoint(), pres), 1e-9
            )
            # anti-homomorphism of adjoint over concatenation
            lhs = normal_form_word(w.concat(v).adjoint(), pres)
            rhs = normal_form(
                poly_mul(
                    normal_form_word(v.adjoint(), pres), normal_form_word(w.adjoint(), pres)
                ),
                pres,
            )
            assert lhs.close_to(rhs, 1e-9)

    def test_chsh(self):
        self.fuzz(chsh_presentation())

    def test_single_variable(self):
        pres = Presentation((Generator("x", selfadjoint=True),))
        self.fuzz(pres, n_words=150, seed=11)

    def test_phase_unitary(self):
        u = Generator("u")
        r1 = RewriteRule(single(0, True), Polynomial.from_word(single(0), 1j))
        r2 = RewriteRule(word((0, False), (0, False)), Polynomial.unit(-1j))
        self.fuzz(Presentation((u,), (r1, r2)), n_words=200, seed=13)
