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
"""

from __future__ import annotations

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
    normal_form,
    poly_mul,
)

RESERVED = {"i", "1", "selfadjoint", "with", "minimize", "maximize",
            "true", "false", "normalization", "level", "basis"}

SECTIONS = ("generators", "relations", "commute", "objective",
            "constraints", "positive", "options")

SENSES = ("<=", ">=", "==")


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
    r"|(?P<op><=|>=|==|=|[+\-*^'{},\[\]]))"
)


def _tokenize(text: str, line_no: int):
    """Tokens as (kind, value, col); kind in {num, ident, op}."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ProblemSyntaxError(f"unexpected character {stripped[0]!r}", line_no, col)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return out


class _TokenStream:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, 0)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def done(self):
        return self.i >= len(self.tokens)

    def col(self):
        return self.peek()[2] if not self.done() else (
            self.tokens[-1][2] + len(str(self.tokens[-1][1])) if self.tokens else 1
        )

    def error(self, msg):
        raise ProblemSyntaxError(msg, self.line, self.col())

    def expect_op(self, op):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ProblemSyntaxError(f"expected {op!r}", self.line, col or 1)


def _parse_factor(ts: _TokenStream, pres: Presentation):
    """One factor: a scalar or a (possibly starred, powered) generator word.
    Returns (coeff, Word)."""
    kind, val, col = ts.next()
    if kind == "num":
        return complex(float(val)), Word()
    if kind != "ident":
        raise ProblemSyntaxError("expected a scalar or generator name", ts.line, col or 1)
    if val == "i":
        return 1j, Word()
    try:
        idx = pres.index(val)
    except AlgebraError:
        raise ProblemSyntaxError(f"unknown generator {val!r}", ts.line, col) from None
    w = Word(((idx, False),))
    while True:
        kind, val, col = ts.peek()
        if kind == "op" and val == "'":
            ts.next()
            w = w.adjoint()
        elif kind == "op" and val == "^":
            ts.next()
            kind, val, col = ts.next()
            if kind != "num" or not val.isdigit():
                raise ProblemSyntaxError("exponent must be a nonnegative integer", ts.line, col or 1)
            k = int(val)
            base = w
            w = Word()
            for _ in range(k):
                w = w.concat(base)
        else:
            return 1.0 + 0j, w


def _parse_poly_tokens(ts: _TokenStream, pres: Presentation) -> Polynomial:
    result = Polynomial.zero()
    first = True
    while True:
        sign = 1.0
        kind, val, _ = ts.peek()
        if kind == "op" and val in "+-":
            ts.next()
            sign = -1.0 if val == "-" else 1.0
        elif not first:
            break
        if ts.done():
            ts.error("expected a term")
        coeff, word = _parse_factor(ts, pres)
        term = Polynomial.from_word(word, sign * coeff)
        while True:
            kind, val, _ = ts.peek()
            if kind == "op" and val == "*":
                ts.next()
                c2, w2 = _parse_factor(ts, pres)
                term = poly_mul(term, Polynomial.from_word(w2, c2))
            else:
                break
        result = result + term
        first = False
        kind, val, _ = ts.peek()
        if kind is None or (kind == "op" and val not in "+-"):
            break
    return result


def parse_polynomial(text: str, pres: Presentation, line_no: int = 1) -> Polynomial:
    ts = _TokenStream(_tokenize(text, line_no), line_no)
    if ts.done():
        raise ProblemSyntaxError("empty polynomial", line_no, 1)
    p = _parse_poly_tokens(ts, pres)
    if not ts.done():
        ts.error("trailing input after polynomial")
    return p


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_sections(text: str):
    """Yield (section, line_no, content) for every nonempty declaration line."""
    current = None
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            m = re.fullmatch(r"\[([A-Za-z]+)\]", line)
            if not m:
                raise ProblemSyntaxError("malformed section header", no, 1)
            current = m.group(1)
            if current not in SECTIONS:
                raise ProblemSyntaxError(f"unknown section [{current}]", no, 1)
            continue
        if current is None:
            raise ProblemSyntaxError("declaration outside any section", no, 1)
        out.append((current, no, line))
    return out


def _parse_generator_line(line, no):
    parts = line.split()
    if not parts or len(parts) > 2:
        raise ProblemSyntaxError("expected: NAME [selfadjoint]", no, 1)
    name = parts[0]
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ProblemSyntaxError(f"invalid generator name {name!r}", no, 1)
    if name in RESERVED:
        raise ProblemSyntaxError(f"generator name {name!r} is reserved", no, 1)
    sa = False
    if len(parts) == 2:
        if parts[1] != "selfadjoint":
            raise ProblemSyntaxError(f"unexpected token {parts[1]!r}", no, 1)
        sa = True
    return Generator(name, selfadjoint=sa)


def _parse_commute_line(line, no, by_name):
    m = re.fullmatch(r"\{([^{}]*)\}\s+with\s+\{([^{}]*)\}", line)
    if not m:
        raise ProblemSyntaxError("expected: {NAMES} with {NAMES}", no, 1)
    sides = []
    for group in m.groups():
        names = [n.strip() for n in group.split(",") if n.strip()]
        if not names:
            raise ProblemSyntaxError("empty commuting group", no, 1)
        idxs = []
        for n in names:
            if n not in by_name:
                raise ProblemSyntaxError(f"unknown generator {n!r}", no, 1)
            idxs.append(by_name[n])
        sides.append(idxs)
    pairs = set()
    for a in sides[0]:
        for b in sides[1]:
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    return pairs


def _parse_relation_line(line, no, pres):
    ts = _TokenStream(_tokenize(line, no), no)
    lhs = _parse_poly_tokens(ts, pres)
    ts.expect_op("=")
    if ts.done():
        ts.error("missing right side of relation")
    rhs = _parse_poly_tokens(ts, pres)
    if not ts.done():
        ts.error("trailing input after relation")
    terms = lhs.terms()
    if len(terms) != 1 or abs(terms[0][1] - 1) > 1e-12 or terms[0][0].is_unit():
        raise ProblemSyntaxError(
            "relation left side must be a single word with coefficient 1", no, 1
        )
    try:
        return RewriteRule(terms[0][0], rhs)
    except AlgebraError as exc:
        raise ProblemSyntaxError(str(exc), no, 1) from None


def _parse_constraint_line(line, no, pres):
    for sense in SENSES:
        cut = line.find(sense)
        if cut >= 0:
            poly = parse_polynomial(line[:cut], pres, no)
            rhs_text = line[cut + len(sense):].strip()
            try:
                rhs = float(rhs_text)
            except ValueError:
                raise ProblemSyntaxError(
                    f"constraint bound must be a real number, got {rhs_text!r}", no, 1
                ) from None
            return poly, sense, rhs
    raise ProblemSyntaxError("constraint needs one of <=, >=, ==", no, 1)


def _parse_option_line(line, no, pres, pf: ProblemFile):
    cut = line.find("=")
    if cut < 0:
        raise ProblemSyntaxError("expected: key = value", no, 1)
    key = line[:cut].strip()
    value = line[cut + 1:].strip()
    if key == "normalization":
        if value not in ("true", "false"):
            raise ProblemSyntaxError("normalization must be true or false", no, 1)
        pf.normalization = value == "true"
    elif key == "level":
        try:
            lvl = int(value)
        except ValueError:
            raise ProblemSyntaxError("level must be an integer", no, 1) from None
        if lvl < 1:
            raise ProblemSyntaxError("level must be a positive integer", no, 1)
        pf.level = lvl
    elif key == "basis":
        words = []
        for chunk in value.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise ProblemSyntaxError("empty word in basis list", no, 1)
            p = parse_polynomial(chunk, pres, no)
            terms = p.terms()
            if len(terms) != 1 or abs(terms[0][1] - 1) > 1e-12:
                raise ProblemSyntaxError(
                    "basis entries must be plain words with coefficient 1", no, 1
                )
            words.append(terms[0][0])
        pf.basis_words = tuple(words)
    else:
        raise ProblemSyntaxError(f"unknown option {key!r}", no, 1)


def parse_problem(text: str, name: str = "<string>") -> ProblemFile:
    """Parse and validate a full problem file."""
    lines = _split_sections(text)

    generators: list[Generator] = []
    for section, no, line in lines:
        if section == "generators":
            g = _parse_generator_line(line, no)
            if any(h.name == g.name for h in generators):
                raise ProblemSyntaxError(f"duplicate generator {g.name!r}", no, 1)
            generators.append(g)
    if not generators:
        raise ProblemSyntaxError("no generators declared", 1, 1)
    by_name = {g.name: i for i, g in enumerate(generators)}
    bare = Presentation(tuple(generators))

    rules: list[RewriteRule] = []
    commuting: set[tuple[int, int]] = set()
    for section, no, line in lines:
        if section == "relations":
            rules.append(_parse_relation_line(line, no, bare))
        elif section == "commute":
            commuting |= _parse_commute_line(line, no, by_name)
    try:
        pres = Presentation(tuple(generators), tuple(rules), frozenset(commuting))
    except AlgebraError as exc:
        if exc.rule is None:
            raise
        rule_lines = [no for section, no, _ in lines if section == "relations"]
        raise ProblemSyntaxError(str(exc), rule_lines[exc.rule], 1) from None

    objective = None
    sense = None
    pf = ProblemFile(pres, "minimize", Polynomial.zero(), name=name)
    for section, no, line in lines:
        if section == "objective":
            if objective is not None:
                raise ProblemSyntaxError("more than one objective", no, 1)
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("minimize", "maximize"):
                raise ProblemSyntaxError("expected: minimize POLY or maximize POLY", no, 1)
            sense = parts[0]
            col_shift = line.find(parts[1])
            objective = parse_polynomial(parts[1], pres, no)
            if not is_selfadjoint_poly(objective, pres):
                raise ProblemSyntaxError(
                    "objective is not self-adjoint after rewriting", no, col_shift + 1
                )
        elif section == "constraints":
            poly, csense, rhs = _parse_constraint_line(line, no, pres)
            if not is_selfadjoint_poly(poly, pres):
                raise ProblemSyntaxError(
                    "constraint polynomial is not self-adjoint after rewriting", no, 1
                )
            pf.constraints.append((poly, csense, rhs))
        elif section == "positive":
            poly = parse_polynomial(line, pres, no)
            if not is_selfadjoint_poly(poly, pres):
                raise ProblemSyntaxError(
                    "declared-positive polynomial is not self-adjoint after rewriting", no, 1
                )
            pf.positives.append(poly)
        elif section == "options":
            _parse_option_line(line, no, pres, pf)

    if objective is None:
        raise ProblemSyntaxError("missing [objective] section", 1, 1)
    pf.sense = sense
    pf.objective = objective
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
