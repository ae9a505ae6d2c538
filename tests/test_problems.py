"""Problem file parsing: grammar, diagnostics and print/parse round trips."""

import random

import pytest

from starsdp.algebra import Polynomial, Word, normal_form
from starsdp.problems import (
    ProblemSyntaxError,
    parse_polynomial,
    parse_problem,
    poly_to_str,
    word_to_str,
)

CHSH_TEXT = """
# two dichotomic observables per site
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
{A0,A1} with {B0,B1}

[objective]
maximize A0*B0 + A1*B1 + A0*B1 - A1*B0

[options]
normalization = true
level = 1
"""


class TestChshFile:
    def setup_method(self):
        self.pf = parse_problem(CHSH_TEXT)

    def test_counts(self):
        pres = self.pf.presentation
        assert len(pres.generators) == 4
        assert len(pres.rules) == 4
        assert len(pres.commuting) == 4

    def test_sense_and_options(self):
        assert self.pf.sense == "maximize"
        assert self.pf.normalization is True
        assert self.pf.level == 1

    def test_objective_terms(self):
        pres = self.pf.presentation
        obj = self.pf.objective
        assert obj.coeff(pres.word("A0", "B0")) == 1
        assert obj.coeff(pres.word("A1", "B0")) == -1
        assert len(obj) == 4


class TestPolynomialGrammar:
    def setup_method(self):
        self.pres = parse_problem(CHSH_TEXT).presentation

    def test_scalar_times_word(self):
        p = parse_polynomial("2*A0*B1 - 1", self.pres)
        assert p.coeff(self.pres.word("A0", "B1")) == 2
        assert p.coeff(Word()) == -1

    def test_power(self):
        p = parse_polynomial("A0^3", self.pres)
        (w, c), = p.terms()
        assert w.degree() == 3 and c == 1

    def test_adjoint_postfix(self):
        p = parse_polynomial("A0'", self.pres)
        (w, _), = p.terms()
        assert w.letters == ((0, True),)

    def test_adjoint_of_power(self):
        # A0^2' adjoints the squared factor
        p = parse_polynomial("A0^2'", self.pres)
        (w, _), = p.terms()
        assert w.letters == ((0, True), (0, True))

    def test_imaginary_scalar(self):
        p = parse_polynomial("i*A0 - i*A1", self.pres)
        assert p.coeff(self.pres.word("A0")) == 1j
        assert p.coeff(self.pres.word("A1")) == -1j

    def test_zero_power_is_unit(self):
        p = parse_polynomial("A0^0", self.pres)
        assert p == Polynomial.unit()

    def test_unknown_generator_located(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_polynomial("A0*C7", self.pres, line_no=3)
        assert err.value.line == 3
        assert err.value.col == 4
        assert "C7" in str(err.value)

    def test_trailing_garbage(self):
        with pytest.raises(ProblemSyntaxError):
            parse_polynomial("A0 A1", self.pres)

    def test_bad_character(self):
        with pytest.raises(ProblemSyntaxError):
            parse_polynomial("A0 @ A1", self.pres)


class TestFileDiagnostics:
    def test_unknown_section(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem("[generatorz]\nx\n")
        assert err.value.line == 1

    def test_declaration_outside_section(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("x selfadjoint\n")

    def test_duplicate_generator(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("[generators]\nx\nx\n[objective]\nminimize x\n")

    def test_reserved_name(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("[generators]\ni\n[objective]\nminimize i\n")

    def test_missing_objective(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem("[generators]\nx selfadjoint\n")
        assert "objective" in str(err.value)

    def test_unknown_generator_in_objective(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem("[generators]\nA0 selfadjoint\n[objective]\nmaximize A0*A9\n")
        assert "A9" in str(err.value)

    def test_non_selfadjoint_objective(self):
        text = "[generators]\nx\ny\n[objective]\nminimize x*y\n"
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(text)
        assert "self-adjoint" in str(err.value)

    def test_bad_level(self):
        text = "[generators]\nx selfadjoint\n[objective]\nminimize x\n[options]\nlevel = 0\n"
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(text)
        assert "level" in str(err.value)

    def test_relation_lhs_must_be_word(self):
        text = "[generators]\nx selfadjoint\n[relations]\n2*x = 1\n[objective]\nminimize x\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    def test_relation_must_decrease(self):
        text = "[generators]\nx selfadjoint\n[relations]\nx = x^2\n[objective]\nminimize x\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    def test_constraint_needs_relation_symbol(self):
        text = "[generators]\nx selfadjoint\n[objective]\nminimize x\n[constraints]\nx 1\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    @pytest.mark.parametrize("text, line", [
        ("[generators]\nx selfadjoint\n[relations]\nx^2 = 1\nx^2 = x\n"
         "[objective]\nminimize x\n", 5),
        ("[generators]\nx selfadjoint\n[relations]\nx' = 2*x\n"
         "[objective]\nminimize x\n", 4),
    ], ids=["two-squares", "star-of-selfadjoint"])
    def test_disagreeing_left_side_located(self, text, line):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(text)
        assert (err.value.line, err.value.col) == (line, 1)
        assert "is rewritten two ways that disagree" in str(err.value)

    def test_malformed_commute(self):
        text = "[generators]\nx selfadjoint\ny selfadjoint\n[commute]\nx with y\n[objective]\nminimize x\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)



GEN = "[generators]\nx selfadjoint\ny\n"
OBJ = "[objective]\nminimize x\n"


class TestMessages:
    """One malformed line for every message the parser gives, with the
    column of the token at fault."""

    @pytest.mark.parametrize("text, line, col, message", [
        (GEN + "[objective]\nminimize x @ 1\n", 5, 12, "unexpected character '@'"),
        (GEN + "[relations]\nx^2 1\n" + OBJ, 5, 5, "expected '='"),
        (GEN + "[objective]\nminimize x + *\n", 5, 14, "expected a scalar or generator name"),
        (GEN + "[objective]\nmaximize x*z\n", 5, 12, "unknown generator 'z'"),
        (GEN + "[objective]\nminimize x^y\n", 5, 12, "exponent must be a nonnegative integer"),
        (GEN + "[objective]\nminimize x +\n", 5, 13, "expected a term"),
        (GEN + OBJ + "[constraints]\n<= 1\n", 7, 1, "empty polynomial"),
        (GEN + "[objective]\nminimize x y\n", 5, 12, "trailing input after polynomial"),
        (GEN + "[objective\nminimize x\n", 4, 1, "malformed section header"),
        (GEN + "[objectives]\nminimize x\n", 4, 1, "unknown section [objectives]"),
        ("x selfadjoint\n" + OBJ, 1, 1, "declaration outside any section"),
        ("[generators]\nx selfadjoint y\n" + OBJ, 2, 15, "expected: NAME [selfadjoint]"),
        ("[generators]\n2x\n" + OBJ, 2, 1, "invalid generator name '2'"),
        ("[generators]\nx selfadjoint\ni\n" + OBJ, 3, 1, "generator name 'i' is reserved"),
        ("[generators]\nx hermitian\n" + OBJ, 2, 3, "unexpected token 'hermitian'"),
        (GEN + "[commute]\n{x} and {y}\n" + OBJ, 5, 5, "expected: {NAMES} with {NAMES}"),
        (GEN + "[commute]\n{x} with {}\n" + OBJ, 5, 10, "empty commuting group"),
        (GEN + "[commute]\n{x} with {z}\n" + OBJ, 5, 11, "unknown generator 'z'"),
        (GEN + "[relations]\nx^2 =\n" + OBJ, 5, 6, "missing right side of relation"),
        (GEN + "[relations]\nx^2 = 1 1\n" + OBJ, 5, 9, "trailing input after relation"),
        (GEN + "[relations]\n2*x = 1\n" + OBJ, 5, 1,
         "relation left side must be a single word with coefficient 1"),
        (GEN + "[relations]\ny = y^2\n" + OBJ, 5, 1,
         "rewrite rule is not order-decreasing: right side word of degree 2 "
         "does not precede the left side"),
        (GEN + OBJ + "[constraints]\nx <= one\n", 7, 6,
         "constraint bound must be a real number, got 'one'"),
        (GEN + OBJ + "[constraints]\nx 1\n", 7, 4, "constraint needs one of <=, >=, =="),
        (GEN + OBJ + "[options]\nlevel 2\n", 7, 7, "expected: key = value"),
        (GEN + OBJ + "[options]\nnormalization = yes\n", 7, 17,
         "normalization must be true or false"),
        (GEN + OBJ + "[options]\nlevel = 1.5\n", 7, 9, "level must be an integer"),
        (GEN + OBJ + "[options]\nlevel = 0\n", 7, 9, "level must be a positive integer"),
        (GEN + OBJ + "[options]\nbasis = 1, , x\n", 7, 12, "empty word in basis list"),
        (GEN + OBJ + "[options]\nbasis = 1, x, 2*x\n", 7, 15,
         "basis entries must be plain words with coefficient 1"),
        (GEN + OBJ + "[options]\ndepth = 2\n", 7, 1, "unknown option 'depth'"),
        ("[generators]\nx selfadjoint\nx\n" + OBJ, 3, 1, "duplicate generator 'x'"),
        ("[generators]\n" + "[objective]\nminimize 1\n", 1, 1, "no generators declared"),
        (GEN + "[relations]\nx^2 = 1\nx^2 = x\n" + OBJ, 6, 1,
         "left side x*x is rewritten two ways that disagree"),
        (GEN + OBJ + "minimize x\n", 6, 1, "more than one objective"),
        (GEN + "[objective]\nmaximise x\n", 5, 1, "expected: minimize POLY or maximize POLY"),
        (GEN + "[objective]\nminimize y\n", 5, 10, "objective is not self-adjoint after rewriting"),
        (GEN + OBJ + "[constraints]\ny <= 1\n", 7, 1,
         "constraint polynomial is not self-adjoint after rewriting"),
        (GEN + OBJ + "[positive]\ny\n", 7, 1,
         "declared-positive polynomial is not self-adjoint after rewriting"),
        (GEN, 1, 1, "missing [objective] section"),
        # columns count from the start of the line, not of a polynomial
        ("[generators]\nA0 selfadjoint\n[objective]\nmaximize A0*A9\n", 4, 13,
         "unknown generator 'A9'"),
        (GEN + "[objective]\n  minimize x   x\n", 5, 16, "trailing input after polynomial"),
        (GEN + OBJ + "[options]\nbasis = 1, x y\n", 7, 14, "trailing input after polynomial"),
    ])
    def test_message_and_location(self, text, line, col, message):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(text)
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text, col, message", [
        ("[objective]\nminimize 1e400*x\n", 10, "coefficient (inf+nanj) is not finite"),
        ("[objective]\nminimize 1e200*1e200*x\n", 10, "coefficient (inf+0j) is not finite"),
        ("[objective]\nminimize x - 1e308*x^2 - 1e308*x^2\n", 26,
         "coefficient (-inf+0j) is not finite"),
        ("[objective]\nminimize 1.5e308*x^2 + i*1.5e308*x^2\n", 24,
         "coefficient (1.5e+308+1.5e+308j) is not finite"),
        (OBJ + "[constraints]\nx <= inf\n", 6, "constraint bound must be a real number, got 'inf'"),
        (OBJ + "[constraints]\nx <= 1e400\n", 6,
         "constraint bound must be a real number, got '1e400'"),
        (OBJ + "[constraints]\nx >= -nan\n", 7, "constraint bound must be a real number, got '-nan'"),
    ], ids=["coefficient", "product", "sum", "modulus", "inf-bound", "overflowing-bound",
            "nan-bound"])
    def test_non_finite_number(self, text, col, message):
        # before, 1e400*x parsed to 0 and a solve reported OPTIMAL 0.0
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(GEN + text)
        assert str(err.value) == f"line {err.value.line}, col {col}: {message}"
        assert err.value.line == len((GEN + text).splitlines())

    def test_comments_and_spacing(self):
        text = ("[generators]  # names\nx selfadjoint#\n  y\n"
                "[commute]\n{x}with{ y }\n"
                "[objective]\nminimize x # the first\n"
                "[constraints]\nx <= -2.5e0 # bound\n")
        pf = parse_problem(text)
        assert pf.presentation.commuting == {(0, 1)}
        assert pf.constraints[0][1:] == ("<=", -2.5)


class TestSectionsAndOptions:
    def test_constraints_and_positive(self):
        text = (
            "[generators]\nx selfadjoint\n"
            "[objective]\nminimize x^4 - x^2\n"
            "[constraints]\nx^2 <= 4\nx >= -2\nx^2 == 1\n"
            "[positive]\n1 - x^2\n"
        )
        pf = parse_problem(text)
        assert [c[1] for c in pf.constraints] == ["<=", ">=", "=="]
        assert pf.constraints[0][2] == 4.0
        assert len(pf.positives) == 1

    def test_basis_option(self):
        text = (
            CHSH_TEXT
            + "\n[options]\nbasis = 1, A0, A1, B0, B1, A0*B1, A0*A1, B0*B1\n"
        )
        pf = parse_problem(text)
        assert pf.basis_words is not None
        assert len(pf.basis_words) == 8
        assert pf.basis_words[0] == Word()

    def test_normalization_off(self):
        text = "[generators]\nx selfadjoint\n[objective]\nminimize x\n[options]\nnormalization = false\n"
        assert parse_problem(text).normalization is False


def random_poly(rng, pres, max_terms=5, max_deg=3, complex_ok=True):
    terms = {}
    n = len(pres.generators)
    for _ in range(rng.randrange(1, max_terms + 1)):
        k = rng.randrange(max_deg + 1)
        w = Word(tuple((rng.randrange(n), rng.random() < 0.3) for _ in range(k)))
        c = round(rng.uniform(-3, 3), 3)
        if complex_ok and rng.random() < 0.4:
            c = complex(c, round(rng.uniform(-3, 3), 3))
        terms[w] = terms.get(w, 0) + c
    return Polynomial(terms)


class TestRoundTrip:
    def test_print_parse_identity(self):
        pres = parse_problem(CHSH_TEXT).presentation
        rng = random.Random(23)
        for _ in range(200):
            p = random_poly(rng, pres)
            text = poly_to_str(p, pres)
            q = parse_polynomial(text, pres)
            assert q.close_to(p, 1e-12), text

    def test_word_rendering(self):
        pres = parse_problem(CHSH_TEXT).presentation
        assert word_to_str(Word(), pres) == "1"
        assert word_to_str(pres.word("A0", "A0", "B1"), pres) == "A0^2*B1"
        assert word_to_str(Word(((0, True),)), pres) == "A0'"
