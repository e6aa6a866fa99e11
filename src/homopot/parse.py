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
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .potential import (HomoPoly, Potential, PotentialError, TrigPoly, _dict_mul,
                        POLYNOMIAL, RATIONAL, RADIAL, POLAR)
from .scalars import GaussianRational


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


# -- AST ---------------------------------------------------------------

class Node:
    __slots__ = ("op", "args", "pos")

    def __init__(self, op, args, pos):
        self.op = op        # 'num' 'var' 'neg' 'add' 'sub' 'mul' 'div' 'pow' 'cos' 'sin'
        self.args = args
        self.pos = pos


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

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

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Node("add" if val == "+" else "sub", [node, rhs], pos)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Node("mul" if val == "*" else "div", [node, rhs], pos)
            elif kind == "name" or (kind == "op" and val == "("):
                # implicit product, e.g. 3q1^2 or 2(q1+q2)
                rhs = self.unary()
                node = Node("mul", [node, rhs], pos)
            else:
                return node

    def unary(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.unary()
            return inner if val == "+" else Node("neg", [inner], pos)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
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
            return Node("pow", [base, sign * int(val2)], pos)
        return base

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "number":
            if "." in val:
                return Node("num", [Fraction(val)], pos)
            return Node("num", [Fraction(int(val))], pos)
        if kind == "name":
            if val in ("cos", "sin"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Node(val, [arg], pos)
            return Node("var", [val], pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


# -- Cartesian semantics: rational functions over Q(i)[q1,q2] -----------

_ONE = {(0, 0): GaussianRational(1)}


def _d_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, GaussianRational(0)) + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _d_scale(a, g):
    return {k: v * g for k, v in a.items()}


class _RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = {k: v for k, v in num.items() if not v.is_zero()}
        if den is None:
            den = dict(_ONE)
        self.den = {k: v for k, v in den.items() if not v.is_zero()}

    def __add__(self, o):
        return _RatFunc(_d_add(_dict_mul(self.num, o.den), _dict_mul(o.num, self.den)),
                        _dict_mul(self.den, o.den))

    def __neg__(self):
        return _RatFunc(_d_scale(self.num, GaussianRational(-1)), self.den)

    def __mul__(self, o):
        return _RatFunc(_dict_mul(self.num, o.num), _dict_mul(self.den, o.den))

    def __truediv__(self, o):
        if not o.num:
            raise ParseError("division by zero expression")
        return _RatFunc(_dict_mul(self.num, o.den), _dict_mul(self.den, o.num))

    def powi(self, n: int):
        if n < 0:
            return _RatFunc(self.den, self.num).powi(-n)
        out = _RatFunc(dict(_ONE))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _eval_cartesian(node: Node) -> _RatFunc:
    if node.op == "num":
        return _RatFunc({(0, 0): GaussianRational(node.args[0])})
    if node.op == "var":
        v = node.args[0]
        if v == "q1":
            return _RatFunc({(1, 0): GaussianRational(1)})
        if v == "q2":
            return _RatFunc({(0, 1): GaussianRational(1)})
        if v == "i":
            return _RatFunc({(0, 0): GaussianRational(0, 1)})
        raise ParseError(f"symbol {v!r} is not allowed in a Cartesian potential", node.pos)
    if node.op == "neg":
        return -_eval_cartesian(node.args[0])
    if node.op in ("add", "sub"):
        a = _eval_cartesian(node.args[0])
        b = _eval_cartesian(node.args[1])
        return a + (b if node.op == "add" else -b)
    if node.op == "mul":
        return _eval_cartesian(node.args[0]) * _eval_cartesian(node.args[1])
    if node.op == "div":
        return _eval_cartesian(node.args[0]) / _eval_cartesian(node.args[1])
    if node.op == "pow":
        return _eval_cartesian(node.args[0]).powi(node.args[1])
    raise ParseError(f"{node.op} is not allowed in a Cartesian potential", node.pos)


# -- polar semantics: sums of r^p * (trig poly) -------------------------

class _PolarElem:
    __slots__ = ("parts",)  # {r_exponent: TrigPoly}

    def __init__(self, parts):
        self.parts = {p: t for p, t in parts.items()
                      if not (t.is_constant() and t.const.is_zero())}

    def __add__(self, o):
        out = dict(self.parts)
        for p, t in o.parts.items():
            out[p] = out[p] + t if p in out else t
        return _PolarElem(out)

    def __neg__(self):
        return _PolarElem({p: -t for p, t in self.parts.items()})

    def __mul__(self, o):
        out = {}
        for p1, t1 in self.parts.items():
            for p2, t2 in o.parts.items():
                prod = t1 * t2
                p = p1 + p2
                out[p] = out[p] + prod if p in out else prod
        return _PolarElem(out)

    def invert(self):
        if not self.parts:
            raise ParseError("division by zero expression")
        if len(self.parts) != 1:
            raise ParseError("can only divide by a constant or a pure power of r")
        (p, t), = self.parts.items()
        if not t.is_constant():
            raise ParseError("can only divide by a constant or a pure power of r")
        return _PolarElem({-p: TrigPoly(GaussianRational(1) / t.const)})

    def powi(self, n: int):
        if n < 0:
            return self.invert().powi(-n)
        out = _PolarElem({0: TrigPoly(1)})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _trig_arg_multiple(node: Node) -> int:
    """Evaluate a cos/sin argument of the form (integer) * theta."""
    def lin(n: Node):
        # returns (constant Fraction, theta coefficient Fraction)
        if n.op == "num":
            return n.args[0], Fraction(0)
        if n.op == "var" and n.args[0] == "theta":
            return Fraction(0), Fraction(1)
        if n.op == "neg":
            c, t = lin(n.args[0])
            return -c, -t
        if n.op in ("add", "sub"):
            c1, t1 = lin(n.args[0])
            c2, t2 = lin(n.args[1])
            s = 1 if n.op == "add" else -1
            return c1 + s * c2, t1 + s * t2
        if n.op == "mul":
            c1, t1 = lin(n.args[0])
            c2, t2 = lin(n.args[1])
            if t1 != 0 and t2 != 0:
                raise ParseError("nonlinear theta inside cos/sin", n.pos)
            if t1 != 0:
                if t2 != 0 or c2.denominator != 1:
                    raise ParseError("trig argument must be an integer multiple of theta", n.pos)
                return c1 * c2, t1 * c2
            return c1 * c2, t2 * c1
        raise ParseError("trig argument must be an integer multiple of theta", n.pos)

    c, t = lin(node)
    if c != 0 or t.denominator != 1:
        raise ParseError("trig argument must be an integer multiple of theta", node.pos)
    return int(t)


def _eval_polar(node: Node) -> _PolarElem:
    if node.op == "num":
        return _PolarElem({0: TrigPoly(GaussianRational(node.args[0]))})
    if node.op == "var":
        v = node.args[0]
        if v == "r":
            return _PolarElem({1: TrigPoly(1)})
        if v == "i":
            return _PolarElem({0: TrigPoly(GaussianRational(0, 1))})
        if v == "theta":
            raise ParseError("bare theta outside cos/sin", node.pos)
        raise ParseError(f"symbol {v!r} is not allowed in a polar potential", node.pos)
    if node.op in ("cos", "sin"):
        m = _trig_arg_multiple(node.args[0])
        if m == 0:
            val = GaussianRational(1 if node.op == "cos" else 0)
            return _PolarElem({0: TrigPoly(val)})
        flip = m < 0
        m = abs(m)
        if node.op == "cos":
            return _PolarElem({0: TrigPoly(0, cos={m: 1})})
        t = TrigPoly(0, sin={m: -1 if flip else 1})
        return _PolarElem({0: t})
    if node.op == "neg":
        return -_eval_polar(node.args[0])
    if node.op in ("add", "sub"):
        a = _eval_polar(node.args[0])
        b = _eval_polar(node.args[1])
        return a + (b if node.op == "add" else -b)
    if node.op == "mul":
        return _eval_polar(node.args[0]) * _eval_polar(node.args[1])
    if node.op == "div":
        return _eval_polar(node.args[0]) * _eval_polar(node.args[1]).invert()
    if node.op == "pow":
        return _eval_polar(node.args[0]).powi(node.args[1])
    raise ParseError(f"unsupported construct {node.op!r}", node.pos)


# -- classification ------------------------------------------------------

def _reduce_monomial_content(num: dict, den: dict):
    """Cancel the common monomial factor of numerator and denominator."""
    keys = list(num) + list(den)
    gi = min(i for i, _ in keys)
    gj = min(j for _, j in keys)
    if gi == 0 and gj == 0:
        return num, den
    shift = lambda d: {(i - gi, j - gj): v for (i, j), v in d.items()}
    return shift(num), shift(den)


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
    vanishing denominator.
    """
    tokens = tokenize(text)
    names = {val for kind, val, _ in tokens if kind == "name"}
    ast = _Parser(tokens).parse()
    if names & {"r", "theta"}:
        if names & {"q1", "q2"}:
            raise ParseError("cannot mix Cartesian q1/q2 with polar r/theta")
        elem = _eval_polar(ast)
        if not elem.parts:
            raise ParseError("potential is identically zero")
        if len(elem.parts) != 1:
            exps = sorted(elem.parts)
            raise ParseError(f"non-homogeneous polar expression: r-exponents {exps}")
        (k, U), = elem.parts.items()
        if isinstance(k, Fraction):
            if k.denominator != 1:
                raise ParseError(f"degree must be an integer, got r^{k}")
            k = int(k)
        if U.is_constant():
            return Potential.radial(U.const, k)
        if not U.is_real():
            raise ParseError("polar angular part must have real coefficients")
        return Potential.polar(U, k)

    rf = _eval_cartesian(ast)
    if not rf.den:
        raise ParseError("division by zero expression")
    num, den = _reduce_monomial_content(rf.num, rf.den)
    den_poly = _as_homopoly(den, "denominator")
    num_poly = _as_homopoly(num, "potential")
    if den_poly.degree == 0:
        coef = den_poly.terms[(0, 0)]
        scaled = {k: v / coef for k, v in num_poly.terms.items()}
        return Potential.polynomial(HomoPoly(num_poly.degree, scaled))
    return Potential.rational(num_poly, den_poly)


def parse_trig_poly(text: str) -> TrigPoly:
    """Parse a pure trig polynomial in theta (the polar-analysis U input)."""
    tokens = tokenize(text)
    names = {val for kind, val, _ in tokens if kind == "name"}
    if names & {"q1", "q2", "r"}:
        raise ParseError("U must be a trig polynomial in theta only")
    elem = _eval_polar(_Parser(tokens).parse())
    if not elem.parts:
        return TrigPoly(0)
    if set(elem.parts) != {0}:
        raise ParseError("U must not contain r")
    U = elem.parts[0]
    if not U.is_real():
        raise ParseError("U must have real coefficients")
    return U


# -- canonical printing ---------------------------------------------------

def _coef_text(v: GaussianRational) -> tuple[str, bool]:
    """(text, needs_sign_merge); complex coefficients come parenthesized."""
    if v.im == 0:
        return str(v.re), True
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
    """Canonical text form; parse_potential(print_potential(V)) == V."""
    if not V.exact:
        raise PotentialError("canonical text requires exact coefficients")
    if V.kind == POLYNOMIAL:
        return _poly_text(V.poly)
    if V.kind == RATIONAL:
        return f"({_poly_text(V.num)})/({_poly_text(V.den)})"
    if V.kind == RADIAL:
        text, mergeable = _coef_text(V.a)
        if text == "1":
            return f"r^{V.degree}"
        return f"{text}*r^{V.degree}"
    if V.kind == POLAR:
        return f"r^{V.degree}*({_trig_text(V.U)})"
    raise PotentialError(f"unknown kind {V.kind}")
