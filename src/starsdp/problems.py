"""Line-oriented problem file parser.

A problem file has bracketed sections, one declaration per line, with `#`
starting a comment anywhere:

    [generators]   NAME, optionally followed by the keyword selfadjoint
    [relations]    WORD = POLY
    [commute]      {NAME, ...} with {NAME, ...}
    [objective]    minimize POLY  or  maximize POLY
    [constraints]  POLY <= REAL   (also >=, ==)
    [positive]     POLY
    [options]      normalization = true|false, level = INT,
                   basis = WORD, WORD, ...

Polynomials are sums of signed terms; a term is a `*` separated product of
scalars and generator factors, `'` is the adjoint, `^k` a repeated factor,
`1` the unit and `i` the imaginary scalar.  Example: 2*A0*B1 - A0'^2 + i*1.
Every number must be finite.  Each line is read as one stream of tokens,
so every error names the line and the column of the token at fault.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .algebra import (
    AlgebraError,
    Generator,
    Polynomial,
    Presentation,
    RewriteRule,
    Word,
    is_selfadjoint_poly,
    poly_mul,
)
from .sdpmodel import SENSES

RESERVED = {"i", "1", "selfadjoint", "with", "minimize", "maximize",
            "true", "false", "normalization", "level", "basis"}

SECTIONS = ("generators", "relations", "commute", "objective",
            "constraints", "positive", "options")

_COMMUTE_FORM = "expected: {NAMES} with {NAMES}"


class ProblemSyntaxError(ValueError):
    """Parse or validation failure with a 1-based source location."""

    def __init__(self, message: str, line: int, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass
class ProblemFile:
    presentation: Presentation
    sense: str                       # "minimize" or "maximize"
    objective: Polynomial
    constraints: list[tuple[Polynomial, str, float]] = field(default_factory=list)
    positives: list[Polynomial] = field(default_factory=list)
    normalization: bool = True
    level: int = 1
    basis_words: tuple[Word, ...] | None = None
    name: str = "<string>"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|==|=|[+\-*^'{},\[\]])|(?P<comment>#)|(?P<bad>\S))"
)


class _TokenStream:
    """The tokens (kind, text, col) of one line up to a `#`, kind in {num,
    ident, op}, then (None, None, col) at the column after them, which
    next() never passes.  Numbers, names and symbols never share a text,
    so a token's text alone identifies it."""

    def __init__(self, text: str, line_no: int):
        self.text, self.line, self.i, self.tokens = text, line_no, 0, []
        for m in _TOKEN_RE.finditer(text):
            kind, col = m.lastgroup, m.start(m.lastgroup) + 1
            if kind == "comment":
                break
            if kind == "bad":
                self.error(f"unexpected character {m[kind]!r}", col)
            self.tokens.append((kind, m[kind], col))
        last = self.tokens[-1] if self.tokens else (None, "", 1)
        self.tokens.append((None, None, last[2] + len(last[1])))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] is not None:
            self.i += 1
        return tok

    def take(self, value) -> bool:
        """Consume the next token if its text is value."""
        if self.tokens[self.i][1] == value:
            self.i += 1
            return True
        return False

    def done(self):
        return self.tokens[self.i][0] is None

    def col(self):
        return self.tokens[self.i][2]

    def error(self, msg, col=None):
        raise ProblemSyntaxError(msg, self.line, col or self.col())

    def expect(self, value, msg):
        if not self.take(value):
            self.error(msg)


def _parse_factor(ts: _TokenStream, pres: Presentation):
    """One factor: a scalar or a (possibly starred, powered) generator word.
    Returns (coeff, Word)."""
    kind, val, col = ts.next()
    if kind == "num":
        return complex(float(val)), Word()
    if kind != "ident":
        ts.error("expected a scalar or generator name", col)
    if val == "i":
        return 1j, Word()
    try:
        idx = pres.index(val)
    except AlgebraError:
        raise ProblemSyntaxError(f"unknown generator {val!r}", ts.line, col) from None
    w = Word(((idx, False),))
    while True:
        if ts.take("'"):
            w = w.adjoint()
        elif ts.take("^"):
            kind, val, col = ts.next()
            if kind != "num" or not val.isdigit():
                ts.error("exponent must be a nonnegative integer", col)
            w = Word(w.letters * int(val))
        else:
            return 1.0 + 0j, w


def _parse_poly_tokens(ts: _TokenStream, pres: Presentation) -> Polynomial:
    """Signed terms up to the first token that cannot continue the sum; a
    coefficient that is not finite is reported at its term."""
    result = Polynomial.zero()
    first = True
    while True:
        sign = -1.0 if ts.take("-") else 1.0
        if sign > 0 and not ts.take("+") and not first:
            break
        if ts.done():
            ts.error("expected a term")
        col = ts.col()
        try:
            coeff, word = _parse_factor(ts, pres)
            term = Polynomial.from_word(word, sign * coeff)
            while ts.take("*"):
                c2, w2 = _parse_factor(ts, pres)
                term = poly_mul(term, Polynomial.from_word(w2, c2))
            result = result + term
        except AlgebraError as exc:
            raise ProblemSyntaxError(str(exc), ts.line, col) from None
        first = False
    return result


def _parse_poly_until(ts: _TokenStream, pres: Presentation, ends=(None,)) -> Polynomial:
    """A polynomial followed by a token whose text is in ends, None for the
    end of the line."""
    p = _parse_poly_tokens(ts, pres)
    if ts.peek()[1] not in ends:
        ts.error("trailing input after polynomial")
    return p


def parse_polynomial(text: str, pres: Presentation, line_no: int = 1) -> Polynomial:
    ts = _TokenStream(text, line_no)
    if ts.done():
        raise ProblemSyntaxError("empty polynomial", line_no, 1)
    return _parse_poly_until(ts, pres)


def _parse_selfadjoint(ts: _TokenStream, pres: Presentation, what: str,
                       ends=(None,)) -> Polynomial:
    """_parse_poly_until, and an error unless the polynomial is self-adjoint
    up to rewriting."""
    col = ts.col()
    p = _parse_poly_until(ts, pres, ends)
    if not is_selfadjoint_poly(p, pres):
        ts.error(f"{what} is not self-adjoint after rewriting", col)
    return p


def _parse_number(ts: _TokenStream, msg: str, integer: bool = False) -> float:
    """[+|-]NUMBER, finite and ending the line; else msg at the token at
    fault.  An integer is written with digits only."""
    sign = -1.0 if ts.take("-") else 1.0
    if sign > 0:
        ts.take("+")
    kind, val, col = ts.next()
    x = sign * float(val) if kind == "num" and (val.isdigit() or not integer) else math.nan
    if not math.isfinite(x):
        ts.error(msg, col)
    if not ts.done():
        ts.error(msg)
    return x


def _split_sections(text: str):
    """Per section, the token streams of its declaration lines."""
    current = None
    out: dict[str, list[_TokenStream]] = {name: [] for name in SECTIONS}
    for no, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("["):
            m = re.fullmatch(r"\s*\[([A-Za-z]+)\]\s*(?:#.*)?", raw)
            if not m:
                raise ProblemSyntaxError("malformed section header", no, 1)
            current = m.group(1)
            if current not in SECTIONS:
                raise ProblemSyntaxError(f"unknown section [{current}]", no, 1)
            continue
        ts = _TokenStream(raw, no)
        if ts.done():
            continue
        if current is None:
            ts.error("declaration outside any section")
        out[current].append(ts)
    return out


def _parse_generator(ts: _TokenStream) -> Generator:
    """NAME [selfadjoint]"""
    kind, name, col = ts.next()
    if kind != "ident":
        ts.error(f"invalid generator name {name!r}", col)
    if name in RESERVED:
        ts.error(f"generator name {name!r} is reserved", col)
    selfadjoint = ts.take("selfadjoint")
    if not ts.done():               # len(ts.tokens) counts the end token
        ts.error("expected: NAME [selfadjoint]" if len(ts.tokens) > 3
                 else f"unexpected token {ts.peek()[1]!r}")
    return Generator(name, selfadjoint=selfadjoint)


def _parse_commute(ts: _TokenStream, by_name) -> set[tuple[int, int]]:
    """{NAME, ...} with {NAME, ...}: every cross pair of distinct generators."""
    sides: list[list[int]] = [[], []]
    for k, side in enumerate(sides):
        if k:
            ts.expect("with", _COMMUTE_FORM)
        col = ts.col()
        ts.expect("{", _COMMUTE_FORM)
        if ts.take("}"):
            ts.error("empty commuting group", col)
        while not side or ts.take(","):
            kind, name, col = ts.next()
            if kind in (None, "op"):
                ts.error(_COMMUTE_FORM, col)
            if name not in by_name:
                ts.error(f"unknown generator {name!r}", col)
            side.append(by_name[name])
        ts.expect("}", _COMMUTE_FORM)
    if not ts.done():
        ts.error(_COMMUTE_FORM)
    return {(min(a, b), max(a, b)) for a in sides[0] for b in sides[1] if a != b}


def _parse_relation(ts: _TokenStream, pres: Presentation) -> RewriteRule:
    """WORD = POLY"""
    col = ts.col()
    lhs = _parse_poly_tokens(ts, pres)
    ts.expect("=", "expected '='")
    if ts.done():
        ts.error("missing right side of relation")
    rhs = _parse_poly_tokens(ts, pres)
    if not ts.done():
        ts.error("trailing input after relation")
    word = lhs.as_word()
    if word is None or word.is_unit():
        ts.error("relation left side must be a single word with coefficient 1", col)
    try:
        return RewriteRule(word, rhs)
    except AlgebraError as exc:
        raise ProblemSyntaxError(str(exc), ts.line, col) from None


def _parse_constraint(ts: _TokenStream, pres: Presentation):
    """POLY (<=|>=|==) NUMBER"""
    if not any(text in SENSES for _, text, _ in ts.tokens):
        ts.error(f"constraint needs one of {', '.join(SENSES)}", ts.tokens[-1][2])
    if ts.peek()[1] in SENSES:
        ts.error("empty polynomial")
    poly = _parse_selfadjoint(ts, pres, "constraint polynomial", SENSES)
    sense = ts.next()[1]
    rest = ts.text[ts.col() - 1:ts.tokens[-1][2] - 1]
    return poly, sense, _parse_number(
        ts, f"constraint bound must be a real number, got {rest!r}")


def _parse_option(ts: _TokenStream, pres: Presentation, pf: ProblemFile) -> None:
    """normalization = true|false, level = INT or basis = POLY, ..."""
    _, key, key_col = ts.next()
    ts.expect("=", "expected: key = value")
    if key == "normalization":
        _, val, col = ts.next()
        if val not in ("true", "false") or not ts.done():
            ts.error("normalization must be true or false", col)
        pf.normalization = val == "true"
    elif key == "level":
        col = ts.col()
        pf.level = int(_parse_number(ts, "level must be an integer", integer=True))
        if pf.level < 1:
            ts.error("level must be a positive integer", col)
    elif key == "basis":
        words = []
        while not words or ts.take(","):
            if ts.peek()[1] in (None, ","):
                ts.error("empty word in basis list")
            col = ts.col()
            word = _parse_poly_until(ts, pres, (None, ",")).as_word()
            if word is None:
                ts.error("basis entries must be plain words with coefficient 1", col)
            words.append(word)
        pf.basis_words = tuple(words)
    else:
        ts.error(f"unknown option {key!r}", key_col)


def parse_problem(text: str, name: str = "<string>") -> ProblemFile:
    """Parse and validate a full problem file."""
    sections = _split_sections(text)

    generators: list[Generator] = []
    for ts in sections["generators"]:
        g = _parse_generator(ts)
        if any(h.name == g.name for h in generators):
            ts.error(f"duplicate generator {g.name!r}", ts.tokens[0][2])
        generators.append(g)
    if not generators:
        raise ProblemSyntaxError("no generators declared", 1, 1)
    by_name = {g.name: i for i, g in enumerate(generators)}
    bare = Presentation(tuple(generators))
    rules = [_parse_relation(ts, bare) for ts in sections["relations"]]
    commuting = set().union(*(_parse_commute(ts, by_name) for ts in sections["commute"]))
    try:
        pres = Presentation(tuple(generators), tuple(rules), frozenset(commuting))
    except AlgebraError as exc:
        if exc.rule is None:
            raise
        ts = sections["relations"][exc.rule]
        raise ProblemSyntaxError(str(exc), ts.line, ts.tokens[0][2]) from None

    if not sections["objective"]:
        raise ProblemSyntaxError("missing [objective] section", 1, 1)
    ts, *more = sections["objective"]
    sense = ts.peek()[1]
    if not (ts.take("minimize") or ts.take("maximize")) or ts.done():
        ts.error("expected: minimize POLY or maximize POLY")
    objective = _parse_selfadjoint(ts, pres, "objective")
    if more:
        more[0].error("more than one objective")
    pf = ProblemFile(
        pres, sense, objective, name=name,
        constraints=[_parse_constraint(ts, pres) for ts in sections["constraints"]],
        positives=[_parse_selfadjoint(ts, pres, "declared-positive polynomial")
                   for ts in sections["positive"]])
    for ts in sections["options"]:
        _parse_option(ts, pres, pf)
    return pf


def parse_problem_file(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), name=path)


def word_to_str(w: Word, pres: Presentation) -> str:
    if w.is_unit():
        return "1"
    runs: list[tuple[tuple, int]] = []
    for letter in w.letters:
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    bits = []
    for (g, s), k in runs:
        atom = pres.generators[g].name + ("'" if s else "")
        bits.append(atom if k == 1 else f"{atom}^{k}")
    return "*".join(bits)


def _num_to_str(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def poly_to_str(p: Polynomial, pres: Presentation) -> str:
    """Grammar-compatible rendering; complex coefficients split into a real
    and an imaginary term so the output stays inside the file syntax."""
    if p.is_zero():
        return "0*1"
    pieces: list[tuple[float, str, bool]] = []  # (magnitude-signed coeff, word str, imaginary)
    for w, c in p.terms():
        ws = word_to_str(w, pres)
        if abs(c.real) > 0:
            pieces.append((c.real, ws, False))
        if abs(c.imag) > 0:
            pieces.append((c.imag, ws, True))
    out = []
    for k, (val, ws, imag) in enumerate(pieces):
        sign = "-" if val < 0 else ("+" if k else "")
        mag = abs(val)
        factors = []
        if mag != 1 or (ws == "1" and not imag):
            factors.append(_num_to_str(mag))
        if imag:
            factors.append("i")
        if ws != "1" or not factors:
            factors.append(ws)
        body = "*".join(factors)
        out.append(f"{sign} {body}" if k else f"{sign}{body}")
    return " ".join(out)
