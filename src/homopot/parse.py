"""Expression grammar for potentials and its canonical printer.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary | <implicit product>)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' signed integer)?
    atom   := number | 'q1' | 'q2' | 'r' | 'theta' | 'i'
            | 'cos' '(' expr ')' | 'sin' '(' expr ')' | '(' expr ')'

Whitespace is irrelevant and `*` may be omitted between a coefficient
and a variable.  Cartesian input (q1, q2) yields polynomial or rational
kinds; radial/polar input uses `r` and `theta`, e.g. ``r^-3`` or
``r^-3*(1 + 1/10*cos(2*theta))``.  Numbers may be integers, fractions
via `/`, or decimal literals.

The recursive-descent parser evaluates each construct as it reads it, in
one ring: quotients of sparse Laurent polynomials in two variables over
Q(i), so the first error met, syntactic or not, is the one reported.
Cartesian input uses the variables (q1, q2).  Polar input uses (r, z) with
z = e^{i theta}, where cos m theta = (z^m + z^-m)/2 and
sin m theta = (z^m - z^-m)/(2i), so a product of trig polynomials is a
convolution of their coefficients; it may divide only by c*r^p, so its
denominator stays 1 and U is read off the z-exponents.  A cos/sin argument
is read in the same ring with theta as its only variable and must come out
as m*theta, m an integer.  The unit denominator 1 is never multiplied
in: a polynomial stays num/1 through every sum and product, dividing by
a constant scales the numerator, and a power of a single term over a
single term scales its exponents instead of multiplying.  Dividing by an
expression that is identically zero is an error wherever it happens.  A
power of a sum is refused before it is expanded when its expansion could
have more than MAX_POWER_TERMS terms, which bounds the parse time; a
power of a single term is never refused.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import NamedTuple

from .potential import HomoPoly, Potential, PotentialError, TrigPoly, POLYNOMIAL, RATIONAL, RADIAL
from .scalars import GaussianRational, power

MAX_POWER_TERMS = 128  # a larger expansion of a power of a sum is refused


class ParseError(PotentialError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


_TOKEN_RE = _re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<name>q1|q2|r|theta|cos|sin|i)
  | (?P<op>[-+*/^()])
""", _re.VERBOSE)


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _number(text: str, pos: int):
    """The int or Fraction a number token spells; a literal beyond Python's
    int-to-str digit limit (4300 digits) is a ParseError."""
    try:
        return Fraction(text) if "." in text else int(text)
    except ValueError:
        raise ParseError(f"number literal of {len(text)} characters is too long", pos) from None


# -- one ring for every grammar ------------------------------------------

_ONE = {(0, 0): GaussianRational(1)}


def _dict_mul(a: dict, b: dict) -> dict:
    """The product of two sparse Laurent polynomials {(a, b): coefficient};
    a factor that is the unit _ONE itself returns the other one."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key, p = (i1 + i2, j1 + j2), v1 * v2
            out[key] = out[key] + p if key in out else p
    return out


class _RatFunc:
    """num/den, each a sparse Laurent polynomial {(a, b): coefficient} in
    two variables over Q(i); den is never zero, and it is _ONE itself
    until a division makes it something else."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        self.num = {k: v for k, v in num.items() if not v.is_zero()}
        self.den = den if den is _ONE else {k: v for k, v in den.items() if not v.is_zero()}

    def __add__(self, o):
        num = dict(_dict_mul(self.num, o.den))
        for k, v in _dict_mul(o.num, self.den).items():
            num[k] = num[k] + v if k in num else v
        return _RatFunc(num, _dict_mul(self.den, o.den))

    def __neg__(self):
        return _RatFunc({k: -v for k, v in self.num.items()}, self.den)

    def __mul__(self, o):
        return _RatFunc(_dict_mul(self.num, o.num), _dict_mul(self.den, o.den))

    def __pow__(self, n: int):
        if len(self.num) == len(self.den) == 1:
            return _RatFunc(_term_power(self.num, n), _term_power(self.den, n))
        return power(self, n, _RatFunc(_ONE))


def _term_power(f: dict, n: int) -> dict:
    """f^n for a single term f = {(a, b): c}, by scaling its exponents:
    {(n a, n b): c^n}; the unit _ONE stays itself."""
    if f is _ONE:
        return f
    ((a, b), c), = f.items()
    return {(n * a, n * b): c ** n}


def _invert(f: _RatFunc, polar: bool) -> _RatFunc:
    """1/f.  A single term c, or c*r^p in polar input, goes into the
    numerator as den/(c*r^p), so dividing by a constant keeps the unit
    denominator.  Cartesian input swaps num and den otherwise; polar input
    may divide by nothing else, so its denominator stays 1."""
    if not f.num:
        raise ParseError("division by zero expression")
    (p, j), c = next(iter(f.num.items()))
    if len(f.num) == 1 and not j and (polar or not p):
        return _RatFunc({(a - p, b): v / c for (a, b), v in f.den.items()})
    if polar:
        raise ParseError("can only divide by a constant or a pure power of r")
    return _RatFunc(f.den, f.num)


class _Grammar(NamedTuple):
    symbols: dict    # name -> its value in the ring
    polar: bool      # cos/sin allowed, in z = e^{i theta}; divide only by c*r^p
    refusal: str     # message for any other construct, formatted with its name


_X = _RatFunc({(1, 0): GaussianRational(1)})
_I = _RatFunc({(0, 0): GaussianRational(0, 1)})
_CARTESIAN = _Grammar({"q1": _X, "q2": _RatFunc({(0, 1): GaussianRational(1)}), "i": _I},
                      False, "{} is not allowed in a Cartesian potential")
_POLAR = _Grammar({"r": _X, "i": _I}, True, "bare {} outside cos/sin")
_TRIG_ARG = _Grammar({"theta": _X}, False, "trig argument must be an integer multiple of theta")


class _Parser:
    """Recursive descent that returns the value of each construct in the
    ring of its grammar; the first error met is raised."""

    def __init__(self, tokens, grammar: _Grammar):
        self.tokens = tokens
        self.k = 0
        self.g = grammar

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> _RatFunc:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return value

    def expr(self) -> _RatFunc:
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                return value
            self.next()
            rhs = self.term()
            value = value + (rhs if val == "+" else -rhs)

    def term(self) -> _RatFunc:
        value = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                value = value * (rhs if val == "*" else _invert(rhs, self.g.polar))
            elif kind == "name" or (kind == "op" and val == "("):
                # implicit product, e.g. 3q1^2 or 2(q1+q2)
                value = value * self.unary()
            else:
                return value

    def unary(self) -> _RatFunc:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.unary()
            return inner if val == "+" else -inner
        return self.power()

    def power(self) -> _RatFunc:
        base = self.atom()
        kind, val, pos = self.peek()
        if not (kind == "op" and val == "^"):
            return base
        self.next()
        sign = 1
        kind2, val2, pos2 = self.peek()
        if kind2 == "op" and val2 in "+-":
            self.next()
            sign = -1 if val2 == "-" else 1
            kind2, val2, pos2 = self.peek()
        if kind2 != "number" or "." in val2:
            raise ParseError("exponent must be an integer", pos2)
        self.next()
        n = sign * _number(val2, pos2)
        size = max(_power_size(base.num, abs(n)), _power_size(base.den, abs(n)))
        if size > MAX_POWER_TERMS:
            raise ParseError(f"power too large: its expansion may have {size} terms, "
                             f"more than {MAX_POWER_TERMS}", pos)
        return (base if n >= 0 else _invert(base, self.g.polar)) ** abs(n)

    def atom(self) -> _RatFunc:
        kind, val, pos = self.next()
        if kind == "number":
            return _RatFunc({(0, 0): GaussianRational.coerce(_number(val, pos))})
        if kind == "name" and val in self.g.symbols:
            return self.g.symbols[val]
        if kind == "name" and val in ("cos", "sin") and self.g.polar:
            # cos m theta = (z^m + z^-m)/2, sin m theta = (z^m - z^-m)/(2i)
            self.expect_op("(")
            m = self.trig_multiple()
            self.expect_op(")")
            c = GaussianRational(Fraction(1, 2)) if val == "cos" else GaussianRational(0, Fraction(-1, 2))
            return _RatFunc({(0, m): c}) + _RatFunc({(0, -m): c.conjugate()})
        if kind == "name":
            raise ParseError(self.g.refusal.format(val), pos)
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)

    def trig_multiple(self) -> int:
        """m for a cos/sin argument that evaluates to m*theta, m an integer."""
        grammar, self.g = self.g, _TRIG_ARG
        pos = self.peek()[2]
        f = self.expr()
        self.g = grammar
        if set(f.num) <= {(1, 0)} and f.den is _ONE:
            m = f.num.get((1, 0), GaussianRational(0))
            if m.is_real() and m.d == 1:
                return m.a
        raise ParseError(_TRIG_ARG.refusal, pos)


def _power_size(f: dict, n: int) -> int:
    """A bound on the number of terms of f^n, before expanding it: the
    exponents of f^n lie in n times the box spanned by those of f, in each
    of the coordinate pairs (a, b), (a, a + b) and (b, a + b).  It is 1 for
    a single term."""
    if len(f) < 2:
        return 1
    da, db, ds = (max(e) - min(e) for e in zip(*((a, b, a + b) for a, b in f)))
    return min((n * x + 1) * (n * y + 1) for x, y in ((da, db), (da, ds), (db, ds)))


def _angular_part(terms: dict) -> TrigPoly:
    """U from the z-exponents of polar terms {(r exponent, z exponent): c}."""
    return TrigPoly._laurent({j: v for (_, j), v in terms.items()})


# -- classification ------------------------------------------------------

def _as_homopoly(terms: dict, what: str) -> HomoPoly:
    if not terms:
        raise ParseError(f"{what} is identically zero")
    degrees = {i + j for (i, j) in terms}
    if len(degrees) != 1:
        lo, hi = min(degrees), max(degrees)
        raise ParseError(
            f"non-homogeneous {what}: mixes degrees {lo} and {hi}")
    return HomoPoly(degrees.pop(), terms)


def parse_potential(text: str) -> Potential:
    """Parse an expression into a canonical Potential.

    Raises ParseError for syntax problems, non-homogeneous input, or a
    division by a zero expression.
    """
    tokens = tokenize(text)
    names = {val for kind, val, _ in tokens if kind == "name"}
    if names & {"r", "theta"}:
        if names & {"q1", "q2"}:
            raise ParseError("cannot mix Cartesian q1/q2 with polar r/theta")
        terms = _Parser(tokens, _POLAR).parse().num
        if not terms:
            raise ParseError("potential is identically zero")
        exps = sorted({p for p, _ in terms})
        if len(exps) != 1:
            raise ParseError(f"non-homogeneous polar expression: r-exponents {exps}")
        k, U = exps[0], _angular_part(terms)
        if not U.is_constant() and not U.is_real():
            raise ParseError("polar angular part must have real coefficients")
        return Potential.polar(U, k)

    rf = _Parser(tokens, _CARTESIAN).parse()
    den_poly = _as_homopoly(rf.den, "denominator")
    return Potential.rational(_as_homopoly(rf.num, "potential"), den_poly)


def parse_trig_poly(text: str) -> TrigPoly:
    """Parse a pure trig polynomial in theta (the polar-analysis U input)."""
    tokens = tokenize(text)
    names = {val for kind, val, _ in tokens if kind == "name"}
    if names & {"q1", "q2", "r"}:
        raise ParseError("U must be a trig polynomial in theta only")
    U = _angular_part(_Parser(tokens, _POLAR).parse().num)
    if not U.is_real():
        raise ParseError("U must have real coefficients")
    return U


# -- canonical printing ---------------------------------------------------

def _coef_text(v: GaussianRational) -> tuple[str, bool]:
    """(text, needs_sign_merge); complex coefficients come parenthesized."""
    if v.is_real():
        return str(v), True
    return f"({v})", False


def _monomial_text(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("q1")
    elif i > 1:
        parts.append(f"q1^{i}")
    if j == 1:
        parts.append("q2")
    elif j > 1:
        parts.append(f"q2^{j}")
    return "*".join(parts)


def _signed_sum(terms) -> str:
    """Join (coefficient, factor) pairs as 'a*x - b*y + ...': a rational
    coefficient's sign merges into the join and a unit one is dropped
    before its factor; a complex one stays parenthesized."""
    out = ""
    for v, factor in terms:
        text, mergeable = _coef_text(v)
        sign = "+"
        if mergeable and text.startswith("-"):
            sign, text = "-", text[1:]
        if factor:
            text = factor if mergeable and text == "1" else f"{text}*{factor}"
        if not out:
            out = text if sign == "+" else f"-{text}"
        else:
            out += f" {sign} {text}"
    return out


def _poly_text(p: HomoPoly) -> str:
    items = sorted(p.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    return _signed_sum((v, _monomial_text(i, j)) for (i, j), v in items)


def _trig_text(U: TrigPoly) -> str:
    terms = [] if U.const.is_zero() else [(U.const, "")]
    for kind, table in (("cos", U.cos), ("sin", U.sin)):
        terms += [(v, f"{kind}({m}*theta)" if m != 1 else f"{kind}(theta)")
                  for m, v in sorted(table.items())]
    return _signed_sum(terms) or "0"


def print_potential(V: Potential) -> str:
    """Text form that parses back to the same function:
    parse_potential(print_potential(V)) == V for every kind, since a
    rational V is stored with a monic Q(1, s)."""
    if not V.exact:
        raise PotentialError("canonical text requires exact coefficients")
    if V.kind == POLYNOMIAL:
        return _poly_text(V.num)
    if V.kind == RATIONAL:
        return f"({_poly_text(V.num)})/({_poly_text(V.den)})"
    if V.kind == RADIAL:
        text, mergeable = _coef_text(V.U.const)
        if text == "1":
            return f"r^{V.degree}"
        return f"{text}*r^{V.degree}"
    return f"r^{V.degree}*({_trig_text(V.U)})"
