"""Free *-algebra arithmetic over a finite set of generators.

Words are finite sequences of possibly-starred generator letters, polynomials
are finite complex combinations of words, and a presentation bundles the
generators with a terminating rewrite system: one table from left sides to
right sides, holding star removal g* -> g for each selfadjoint generator, the
swaps b a -> a b and b* a* -> a* b* for each commuting pair a < b, and the
explicit rules.  A left side has one right side; a later rule for it must
agree with it after rewriting.  Normal forms are computed by leftmost-innermost
rewriting to a fixpoint: the leftmost redex, the shortest left side there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

COEFF_EPS = 1e-12
_FLOAT_MAX = sys.float_info.max
REWRITE_STEP_CAP = 10_000
# Two normal forms count as equal when their coefficients agree within this.
EQUAL_TOL = 1e-9

# A letter is (generator index, starred flag).  In the term order used
# throughout, words compare by degree, then letter-wise by generator index
# with a starred letter ranking above the unstarred one.
Letter = tuple[int, bool]


class RewriteLimitError(RuntimeError):
    """Raised when rewriting a single word exceeds the step budget."""


class AlgebraError(ValueError):
    """An invalid presentation or rule; `rule` is the index in
    Presentation.rules of the explicit rule at fault, when one is."""

    def __init__(self, message: str, rule: int | None = None):
        super().__init__(message)
        self.rule = rule


@dataclass(frozen=True)
class Generator:
    name: str
    selfadjoint: bool = False


class Word(tuple):
    """An immutable product of generator letters; the empty word is the unit.

    A Word is the tuple of its letters, so it hashes and tests equality as
    that tuple does, natively, and equals the plain tuple of the same
    letters.  Words order by degree, then letter-wise."""

    __slots__ = ()

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(self)

    def degree(self) -> int:
        return len(self)

    def adjoint(self) -> "Word":
        """Reverse the letter sequence and toggle every star flag."""
        return Word([(g, not s) for g, s in reversed(self)])

    def concat(self, other: "Word") -> "Word":
        return Word(self + other)

    def is_unit(self) -> bool:
        return not self

    def key(self):
        return (len(self), tuple(self))

    def __lt__(self, other: "Word") -> bool:
        return len(self) < len(other) or len(self) == len(other) and tuple.__lt__(self, other)

    def __le__(self, other: "Word") -> bool:
        return len(self) < len(other) or len(self) == len(other) and tuple.__le__(self, other)

    def __gt__(self, other: "Word") -> bool:
        return len(self) > len(other) or len(self) == len(other) and tuple.__gt__(self, other)

    def __ge__(self, other: "Word") -> bool:
        return len(self) > len(other) or len(self) == len(other) and tuple.__ge__(self, other)

    def __repr__(self) -> str:
        return f"Word(letters={tuple(self)!r})"


UNIT_WORD = Word()


def single(gen_index: int, starred: bool = False) -> Word:
    return Word(((gen_index, starred),))


class Polynomial:
    """Finite complex combination of words, stored sparsely.

    Coefficients with magnitude below COEFF_EPS are pruned on construction,
    so equality of polynomials is plain structural equality of the term maps,
    and a coefficient that is not finite raises AlgebraError.

    Polynomials are shared, never copied: a presentation's normal-form
    cache hands out the same object for every lookup of a word, and the
    relaxation keeps those objects as its moment-block entries.  No code
    may mutate one after construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, complex] | None = None):
        clean: dict[Word, complex] = {}
        if terms:
            for w, c in terms.items():
                c = complex(c)
                try:
                    a = abs(c)
                except OverflowError:       # finite parts, a modulus above the float range
                    a = math.inf
                if a < COEFF_EPS:
                    continue
                if not a <= _FLOAT_MAX:     # inf, or NaN, which fails both tests
                    raise AlgebraError(f"coefficient {c} is not finite")
                clean[w] = c
        self._terms = clean

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def unit(coeff: complex = 1.0) -> "Polynomial":
        return Polynomial({UNIT_WORD: coeff})

    @staticmethod
    def from_word(w: Word, coeff: complex = 1.0) -> "Polynomial":
        return Polynomial({w: coeff})

    def terms(self) -> list[tuple[Word, complex]]:
        """Terms in canonical order: degree first, then letter-wise."""
        return sorted(self._terms.items(), key=lambda t: t[0].key())

    def items(self):
        """Terms in storage order, unsorted: a read-only view, cheaper than
        terms() where the order does not matter or must be the stored one."""
        return self._terms.items()

    def as_word(self) -> Word | None:
        """The word w when self is 1*w up to COEFF_EPS, else None."""
        if len(self._terms) == 1:
            (w, c), = self._terms.items()
            if abs(c - 1) <= COEFF_EPS:
                return w
        return None

    def words(self) -> list[Word]:
        return [w for w, _ in self.terms()]

    def coeff(self, w: Word) -> complex:
        return self._terms.get(w, 0j)

    def degree(self) -> int:
        return max((w.degree() for w in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def adjoint(self) -> "Polynomial":
        return Polynomial({w.adjoint(): c.conjugate() for w, c in self._terms.items()})

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Word, complex]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0j) + c
        return Polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return poly_mul(self, other)
        return self.scale(other)

    def __rmul__(self, scalar) -> "Polynomial":
        return self.scale(scalar)

    def scale(self, scalar: complex) -> "Polynomial":
        return Polynomial({w: c * scalar for w, c in self._terms.items()})

    def close_to(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        words = set(self._terms) | set(other._terms)
        return all(abs(self.coeff(w) - other.coeff(w)) <= tol for w in words)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        bits = ", ".join(f"{w.letters}:{c:g}" for w, c in self.terms())
        return f"Polynomial({bits})"


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Concatenation product extended bilinearly."""
    acc: dict[Word, complex] = {}
    for wp, cp in p._terms.items():
        for wq, cq in q._terms.items():
            w = wp.concat(wq)
            acc[w] = acc.get(w, 0j) + cp * cq
    return Polynomial(acc)


@dataclass(frozen=True)
class RewriteRule:
    """Oriented rule lhs -> rhs with every rhs word strictly smaller."""

    lhs: Word
    rhs: Polynomial

    def __post_init__(self):
        if self.lhs.is_unit():
            raise AlgebraError("rewrite rule left side must be a nonempty word")
        for w in self.rhs.words():
            if not w.key() < self.lhs.key():
                raise AlgebraError(
                    "rewrite rule is not order-decreasing: "
                    f"right side word of degree {w.degree()} does not precede the left side"
                )


@dataclass
class Presentation:
    """Generators, explicit rewrite rules and commuting generator pairs.

    Treated as immutable after construction.  Its only mutable state is two
    private caches: the normal form of each word rewritten so far, and the
    relaxation's hierarchies (relaxation.Hierarchy), one per level, main
    basis, kept positives and real mode, so that every problem sharing the
    presentation shares them.
    """

    generators: tuple[Generator, ...]
    rules: tuple[RewriteRule, ...] = ()
    commuting: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        n = len(self.generators)
        for a, b in self.commuting:
            if not (0 <= a < n and 0 <= b < n):
                raise AlgebraError("commuting pair references unknown generator")
            if a >= b:
                raise AlgebraError("commuting pairs must be stored with a < b")
        for rule in self.rules:
            for w in (rule.lhs, *rule.rhs.words()):
                for g, _ in w.letters:
                    if not (0 <= g < n):
                        raise AlgebraError("rule references unknown generator")
        self._by_name = {g.name: i for i, g in enumerate(self.generators)}
        self._nf_cache = {}
        self._hierarchies = {}
        # One table from left sides to right sides: implicit rules first,
        # then the explicit ones; the first rule for a left side is kept.
        table: dict[tuple[Letter, ...], Polynomial] = {}
        for g, gen in enumerate(self.generators):
            if gen.selfadjoint:
                table[((g, True),)] = Polynomial.from_word(single(g))
        for a, b in self.commuting:
            for s in (False, True):
                table[((b, s), (a, s))] = Polynomial.from_word(Word(((a, s), (b, s))))
        for rule in self.rules:
            table.setdefault(rule.lhs.letters, rule.rhs)
        self._lhs = table
        self._lhs_lengths = sorted({len(lhs) for lhs in table})
        for k, rule in enumerate(self.rules):
            kept = table[rule.lhs.letters]
            if kept is not rule.rhs and not normal_form(kept, self).close_to(
                normal_form(rule.rhs, self), EQUAL_TOL
            ):
                name = "*".join(self.generators[g].name + "'" * s for g, s in rule.lhs.letters)
                raise AlgebraError(f"left side {name} is rewritten two ways that disagree", k)

    def index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def word(self, *names: str) -> Word:
        """Convenience: build an unstarred word from generator names."""
        return Word(tuple((self.index(n), False) for n in names))


def _find_redex(letters: tuple[Letter, ...], pres: Presentation):
    """Leftmost-innermost redex: scan positions left to right and, at each
    position, the left sides from the shortest."""
    table = pres._lhs
    n = len(letters)
    for pos in range(n):
        for length in pres._lhs_lengths:
            if pos + length > n:
                break
            rhs = table.get(letters[pos : pos + length])
            if rhs is not None:
                return pos, length, rhs
    return None


def is_normal_form(w: Word, pres: Presentation) -> bool:
    """True when the word contains no rewritable subword."""
    return _find_redex(w, pres) is None


def normal_form_word(w: Word, pres: Presentation) -> Polynomial:
    """Rewrite a single word to its normal form polynomial."""
    cached = pres._nf_cache.get(w)
    if cached is not None:
        return cached
    acc: dict[Word, complex] = {}
    stack: list[tuple[Word, complex]] = [(w, 1.0 + 0j)]
    steps = 0
    while stack:
        word, coeff = stack.pop()
        hit = pres._nf_cache.get(word)
        if hit is not None:
            for u, c in hit._terms.items():
                acc[u] = acc.get(u, 0j) + coeff * c
            continue
        redex = _find_redex(word, pres)
        if redex is None:
            acc[word] = acc.get(word, 0j) + coeff
            continue
        steps += 1
        if steps > REWRITE_STEP_CAP:
            raise RewriteLimitError(
                f"rewriting exceeded {REWRITE_STEP_CAP} steps on a word of degree {w.degree()}"
            )
        pos, length, repl = redex
        prefix = word[:pos]
        suffix = word[pos + length :]
        for rw, rc in repl._terms.items():
            stack.append((Word(prefix + rw + suffix), coeff * rc))
    result = Polynomial(acc)
    pres._nf_cache[w] = result
    return result


def normal_form(p: Polynomial | Word, pres: Presentation) -> Polynomial:
    """Normal form of a polynomial (or a bare word) under the presentation."""
    if isinstance(p, Word):
        return normal_form_word(p, pres)
    acc: dict[Word, complex] = {}
    for w, c in p._terms.items():
        for u, d in normal_form_word(w, pres)._terms.items():
            acc[u] = acc.get(u, 0j) + c * d
    return Polynomial(acc)


def is_selfadjoint_poly(p: Polynomial, pres: Presentation) -> bool:
    """Whether p equals its adjoint up to rewriting, coefficient-wise."""
    return normal_form(p, pres).close_to(normal_form(p.adjoint(), pres), EQUAL_TOL)
