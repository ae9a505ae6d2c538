"""Free *-algebra arithmetic over a finite set of generators.

Words are finite sequences of possibly-starred generator letters, polynomials
are finite complex combinations of words, and a presentation bundles the
generators with a terminating rewrite system: one table from left sides to
right sides, holding star removal g* -> g for each selfadjoint generator, the
swaps b a -> a b and b* a* -> a* b* for each commuting pair a < b, and the
explicit rules.  A left side has one right side; a later rule for it must
agree with it after rewriting.  Normal forms are computed by leftmost-innermost
rewriting to a fixpoint: the leftmost redex, the shortest left side there.
symmetry_chain searches the signed generator permutations that keep a
presentation's flags, commuting pairs and rules and fix given polynomials,
each possibly composed with the conjugation of every coefficient.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

COEFF_EPS = 1e-12
_FLOAT_MAX = sys.float_info.max
REWRITE_STEP_CAP = 10_000
# Two normal forms count as equal when their coefficients agree within this.
EQUAL_TOL = 1e-9
# the images symmetry_chain tries per call, at most; its search is
# exponential only where a check waits for many generators
SEARCH_NODES = 20_000

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


def signed_word(sigma: tuple[int, ...], w: Word) -> tuple[Word, int]:
    """(u, c) with sigma(w) = c u for a signed generator permutation, the
    tuple of s_g (pi(g) + 1): each letter g or g* becomes g_pi(g) or
    g_pi(g)*, and c is the product of the letters' signs."""
    c, letters = 1, []
    for g, s in w:
        t = sigma[g]
        if t < 0:
            c = -c
        letters.append((abs(t) - 1, s))
    return Word(letters), c


def conjugates(sigma: tuple[int, ...], pres: Presentation) -> bool:
    """Whether sigma, as symmetry_chain gives it, conjugates coefficients:
    an entry past the generators' that is negative."""
    return len(sigma) > len(pres.generators) and sigma[-1] < 0


def apply_signed(sigma: tuple[int, ...], p: Polynomial, conj: bool = False) -> Polynomial:
    """sigma(p) for a signed generator permutation, word by word, each
    coefficient conjugated when conj."""
    out: dict[Word, complex] = {}
    for w, c in p._terms.items():
        u, sign = signed_word(sigma, w)
        out[u] = sign * (c.conjugate() if conj else c)
    return Polynomial(out)


def symmetry_chain(pres: Presentation, fixed: list[Polynomial], weights: list[Polynomial],
                   accept: Callable[[tuple[int, ...]], bool], antiunitary: bool = False
                   ) -> tuple[list[tuple[int, ...]], int]:
    """Generators of the group H of signed generator permutations sigma,
    g -> s_g g_pi(g), each the tuple of s_g (pi(g) + 1), that keep each
    selfadjoint flag, map commuting pairs onto commuting pairs, map every
    explicit rule lhs -> rhs to one with nf(sigma(lhs)) = nf(sigma(rhs)), fix
    each polynomial of fixed, map each of weights onto one of weights (all in
    normal form), and that accept takes; and H's order.

    When antiunitary, an element may also conjugate every coefficient, the
    antilinear sigma(sum c_w w) = sum conj(c_w) sigma(w): its tuple holds one
    more entry, n + 1 or -(n + 1) when it conjugates, the image of a virtual
    point that is the first base point.  Every check reads it, and the
    elements that fix it, searched first, are the unitary subgroup, as
    without it.

    H is searched as a Schreier-Sims chain, never listed.  The generators
    are put in a base order, those of fixed first.  For each base point b,
    from the last, the signed images of b that the generators found so far
    do not reach are searched for, depth first over the later points' images
    with the earlier points fixed.  Each check runs as soon as its
    generators have images, and a polynomial of fixed is also checked term
    by term when no rule has two terms on its right side.  The first
    completion that accept takes is a new generator; one that it refuses
    sends the search on to the next completion.  So each image of a base
    point is searched once at most, and H's order is the product of the
    base points' orbits.

    The order is exact when the conditions define a group, as they do under
    confluent rewriting, and no search is cut.  A call that has tried
    SEARCH_NODES images finds no more generators: a check on a word of
    many generators, such as a fixed polynomial of one long word, can
    leave the search without a verdict until its last level.  The order is
    then a lower bound, since each base point's orbit is taken under
    elements that fix the earlier points, and every generator found is
    still an element of H."""
    n = len(pres.generators)
    first = dict.fromkeys(g for p in fixed for w in p.words() for g, _ in w)
    base = [n] * antiunitary + list(first) + [g for g in range(n) if g not in first]
    place = {g: i for i, g in enumerate(base)}
    # the virtual point's flag, None, admits only itself as its image
    flags = [g.selfadjoint for g in pres.generators] + [None] * antiunitary
    pairs = pres.commuting

    def gens_of(*polys: Polynomial) -> tuple[int, ...]:
        return tuple(sorted({g for p in polys for w in p.words() for g, _ in w})) + \
            (n,) * antiunitary

    def image(sigma, p):
        return normal_form(apply_signed(sigma, p, conjugates(sigma, pres)), pres)

    def keeps_rule(sigma, rule):
        return image(sigma, Polynomial.from_word(rule.lhs)).close_to(
            image(sigma, rule.rhs), EQUAL_TOL)

    def keeps_term(sigma, p, w, c):
        # sigma(c w) = c d nf(u), c conjugated by a conjugating sigma; where
        # that is one term it must be p's
        u, d = signed_word(sigma, w)
        terms = normal_form_word(u, pres)._terms
        if len(terms) != 1:
            return True
        (v, e), = terms.items()
        c = c.conjugate() if conjugates(sigma, pres) else c
        return abs(p.coeff(v) - c * d * e) <= EQUAL_TOL

    def keeps_poly(sigma, p):
        return image(sigma, p).close_to(p, EQUAL_TOL)

    def keeps_weight(sigma, x):
        y = image(sigma, x)
        return any(y.close_to(z, EQUAL_TOL) for z in weights)

    # a term check holds for every element of H when each word goes to one
    # term, as it does when no rule has two terms on its right side; a word
    # sent to several terms could add to another word's image
    monomial = all(len(r.rhs.items()) <= 1 for r in pres.rules)
    # each check with its generators, due at the last of them in base order,
    # the rules last since fixed prunes more; a verdict depends on the
    # generators' images alone and is kept
    due: list[list[tuple[int, tuple[int, ...], Callable]]] = [[] for _ in base]
    checks = []
    for p in fixed:
        if monomial:
            checks += [(gens_of(Polynomial.from_word(w)), keeps_term, p, w, c)
                       for w, c in p.items()]
        checks.append((gens_of(p), keeps_poly, p))
    checks += [(gens_of(x), keeps_weight, x) for x in weights]
    checks += [(gens_of(Polynomial.from_word(r.lhs), r.rhs), keeps_rule, r) for r in pres.rules]
    for key, (gens, *test) in enumerate(checks):
        if gens:
            due[max(place[g] for g in gens)].append((key, gens, test))
    verdicts: dict[tuple, bool] = {}
    sigma, used = [0] * len(base), [False] * len(base)
    budget = [SEARCH_NODES]

    def holds(i: int) -> bool:
        for key, gens, (test, *args) in due[i]:
            k = (key, *(sigma[g] for g in gens))
            if k not in verdicts:
                verdicts[k] = test(sigma, *args)
            if not verdicts[k]:
                return False
        return True

    def images(i: int) -> list[int]:
        # the signed images open to base point i, its own first
        g, done = base[i], base[:i]
        return [t for h in [g] + [h for h in range(len(base)) if h != g]
                if not used[h] and flags[h] == flags[g] and all(
                    ((min(a, g), max(a, g)) in pairs)
                    == ((min(abs(sigma[a]) - 1, h), max(abs(sigma[a]) - 1, h)) in pairs)
                    for a in done)
                for t in (h + 1, -h - 1)]

    def complete(i: int) -> tuple[int, ...] | None:
        if i == len(base):
            found = tuple(sigma)
            return found if accept(found) else None
        g = base[i]
        for t in images(i):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            sigma[g], used[abs(t) - 1] = t, True
            found = complete(i + 1) if holds(i) else None
            used[abs(t) - 1] = False
            if found is not None:
                sigma[g] = 0
                return found
        sigma[g] = 0
        return None

    def orbit(t: int, gens: list[tuple[int, ...]]) -> set[int]:
        seen, todo = {t}, [t]
        while todo:
            t = todo.pop()
            for s in gens:
                u = s[t - 1] if t > 0 else -s[-t - 1]
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    generators: list[tuple[int, ...]] = []
    order = 1
    for i in range(len(base) - 1, -1, -1):
        g = base[i]
        for j, h in enumerate(base):
            sigma[h], used[h] = (h + 1, True) if j < i else (0, False)
        reached = orbit(g + 1, generators)
        for t in images(i):
            if t in reached:
                continue
            sigma[g], used[abs(t) - 1] = t, True
            found = complete(i + 1) if holds(i) else None
            used[abs(t) - 1] = False
            if found is not None:
                generators.append(found)
                reached = orbit(g + 1, generators)
        order *= len(reached)
    return generators, order
