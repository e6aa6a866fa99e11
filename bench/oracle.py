"""Independent expectations and output checks, computed with sympy.

Nothing here calls homopot.  Each input text is parsed with sympy; for a
polynomial or rational input the direction polynomial W(s) (numerator
of s dV/dq1 - dV/dq2 on the line (1, s)) is rebuilt in exact arithmetic,
its exact roots are found without homopot's root ladder, and each exact
direction d gets its exact eigenvalue

    lambda = k * tr Hess V(d) / mu(d) - k(k-1),   grad V(d) = mu(d) d

(mu = dV/dq1 at (1, s), or dV/dq2 for the vertical direction (0, 1)).

Exact roots: for rational W, sympy's factorization over Q.  For Gaussian
W, numpy root approximations are rounded to Gaussian rationals with
bounded denominators and kept only when W vanishes there exactly; this
can miss a root, never invent one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import mpmath
import numpy as np
import sympy as sp

RESIDUAL_TOL = 1e-10          # homopot's default residual tolerance
MATCH_TOL = 1e-4              # relative distance of a float direction

q1, q2, s = sp.symbols("q1 q2 s")
_POLAR = re.compile(r"\b(r|theta)\b")


# -- exact Gaussian-rational arithmetic on (re, im) Fraction pairs ---------------


def gmul(a, b):
    if a[1] == 0 and b[1] == 0:
        return (a[0] * b[0], a[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _powers(x, n: int) -> list:
    out = [(Fraction(1), Fraction(0))]
    for _ in range(n):
        out.append(gmul(out[-1], x))
    return out


def gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _frac(x) -> Fraction:
    return Fraction(str(x))


def _gauss(c):
    """sympy number or QQ_I element -> (re, im) Fractions."""
    if hasattr(c, "x") and hasattr(c, "y"):
        return _frac(c.x), _frac(c.y)
    re_, im_ = sp.Number(sp.re(c)), sp.Number(sp.im(c))
    return _frac(re_), _frac(im_)


class BiPoly:
    """Exact bivariate polynomial as {(i, j): (re, im)}: q1^i q2^j terms."""

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c != (0, 0)}

    @classmethod
    def from_sympy(cls, expr):
        poly = sp.Poly(expr, q1, q2, domain="QQ_I")
        return cls({m: _gauss(c) for m, c in poly.terms()})

    def diff(self, axis: int) -> "BiPoly":
        out = {}
        for (i, j), (a, b) in self.terms.items():
            e = (i, j)[axis]
            if e:
                m = (i - 1, j) if axis == 0 else (i, j - 1)
                out[m] = (a * e, b * e)
        return BiPoly(out)

    def degree(self) -> int:
        return max(i + j for i, j in self.terms)

    def at(self, x, y):
        """Exact value at Gaussian-rational (x, y)."""
        if not self.terms:
            return (Fraction(0), Fraction(0))
        n = self.degree()
        xp, yp = _powers(x, n), _powers(y, n)
        re_ = im_ = Fraction(0)
        for (i, j), c in self.terms.items():
            t = gmul(c, gmul(xp[i], yp[j]))
            re_ += t[0]
            im_ += t[1]
        return (re_, im_)

    def at_mp(self, x, y):
        """Value at mpmath numbers (x, y)."""
        return mpmath.fsum(mpmath.mpc(_mpf(a), _mpf(b)) * x ** i * y ** j
                           for (i, j), (a, b) in self.terms.items())

    def on_line(self) -> list:
        """Coefficients (low to high) of p(1, s)."""
        out = [(Fraction(0), Fraction(0))] * (self.degree() + 1 if self.terms else 0)
        for (i, j), c in self.terms.items():
            out[j] = (out[j][0] + c[0], out[j][1] + c[1])
        return out


def _umul(a: list, b: list) -> list:
    out = [(Fraction(0), Fraction(0))] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p = gmul(x, y)
            out[i + j] = (out[i + j][0] + p[0], out[i + j][1] + p[1])
    return out


def _uadd(a: list, b: list, sign: int = 1) -> list:
    n = max(len(a), len(b))
    zero = (Fraction(0), Fraction(0))
    a = a + [zero] * (n - len(a))
    b = b + [zero] * (n - len(b))
    return [(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(a, b)]


class Quotient:
    """V = N / D with exact first and second derivatives at a point."""

    def __init__(self, num: BiPoly, den: BiPoly):
        self.N, self.D = num, den
        self.N1, self.N2 = num.diff(0), num.diff(1)
        self.D1, self.D2 = den.diff(0), den.diff(1)
        self.N11, self.N22 = self.N1.diff(0), self.N2.diff(1)
        self.D11, self.D22 = self.D1.diff(0), self.D2.diff(1)

    def gradient_mp(self, x, y):
        n, d = self.N.at_mp(x, y), self.D.at_mp(x, y)
        return ((self.N1.at_mp(x, y) * d - n * self.D1.at_mp(x, y)) / d ** 2,
                (self.N2.at_mp(x, y) * d - n * self.D2.at_mp(x, y)) / d ** 2)

    def first_and_laplacian(self, x, y, axis: int):
        """(dV/dq_axis, V_11 + V_22) exactly at (x, y); None on D = 0."""
        n, d = self.N.at(x, y), self.D.at(x, y)
        if d == (0, 0):
            return None
        d2 = gmul(d, d)
        d3 = gmul(d2, d)

        def first(Ni, Di):
            return _gsub(gmul(Ni.at(x, y), d), gmul(n, Di.at(x, y)))

        def second(Ni, Di, Nii, Dii):
            a = gdiv(_gsub(gmul(Nii.at(x, y), d), gmul(n, Dii.at(x, y))), d2)
            b = gdiv(gmul((2 * Di.at(x, y)[0], 2 * Di.at(x, y)[1]), first(Ni, Di)), d3)
            return _gsub(a, b)

        g = first(self.N1, self.D1) if axis == 0 else first(self.N2, self.D2)
        lap = _gadd(second(self.N1, self.D1, self.N11, self.D11),
                    second(self.N2, self.D2, self.N22, self.D22))
        return gdiv(g, d2), lap

    def direction_poly(self) -> list:
        """s dV/dq1 - dV/dq2 on (1, s) times D(1, s)^2, low to high."""
        def numer(Ni, Di):
            return _uadd(_umul(Ni.on_line(), self.D.on_line()),
                         _umul(self.N.on_line(), Di.on_line()), -1)
        shifted = [(Fraction(0), Fraction(0))] + numer(self.N1, self.D1)
        return _uadd(shifted, numer(self.N2, self.D2), -1)


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


# -- parsing the input text independently of homopot's grammar -------------------


_r, _theta = sp.symbols("r theta")


def _harmonic(trig, arg):
    """cos(m theta) or sin(m theta) as Re or Im of ((q1 + i q2) / r)^m."""
    m = int(arg / _theta)
    x, y = sp.symbols("x y", real=True)
    z = sp.expand((x + sp.I * y) ** m)
    part = sp.re(z) if trig is sp.cos else sp.im(z)
    return part.subs({x: q1, y: q2}, simultaneous=True) / _r ** m


def sympy_potential(text: str):
    """V(q1, q2) as a sympy expression.

    Polar and radial inputs are continued off the real plane the way
    homopot does it: cos(m theta) r^k becomes Re (q1 + i q2)^m times
    (q1^2 + q2^2)^((k - m)/2) on the principal branch, so the residual
    check also holds at complex Darboux points.
    """
    names = {"q1": q1, "q2": q2, "i": sp.I, "r": _r, "theta": _theta,
             "cos": sp.cos, "sin": sp.sin}
    V = sp.parse_expr(text.replace("^", "**"), local_dict=names)
    if V.has(_theta):
        V = V.replace(lambda e: isinstance(e, (sp.cos, sp.sin)),
                      lambda e: _harmonic(type(e), e.args[0]))
    return sp.expand(V).subs(_r, sp.sqrt(q1 ** 2 + q2 ** 2))


def _exact_roots_q(coeffs: list):
    """Exact rational roots of a Q[s] polynomial given low to high, by
    sympy's factorization over Q."""
    poly = sp.Poly.from_list([sp.Rational(c[0].numerator, c[0].denominator)
                              for c in reversed(coeffs)], s, domain="QQ")
    out = []
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            out.append((_frac(-b / a), Fraction(0)))
    return out


def _exact_roots_gauss(coeffs: list):
    """Gaussian-rational roots of a Q(i)[s] polynomial given low to high
    (see the module doc)."""
    coeffs = list(reversed(coeffs))                          # high to low
    den = lcm(*(x.denominator for c in coeffs for x in c))
    ints = [(int(c[0] * den), int(c[1] * den)) for c in coeffs]
    norm_lead = ints[0][0] ** 2 + ints[0][1] ** 2
    approx = np.roots([complex(*c) for c in ints])
    found = []
    for z in approx:
        for bound in (norm_lead, 10 ** 6, 1000):
            cand = (Fraction(z.real).limit_denominator(bound),
                    Fraction(z.imag).limit_denominator(bound))
            if _horner(coeffs, cand) == (0, 0):
                if cand not in found:
                    found.append(cand)
                break
    return found


def _horner(coeffs, x):
    acc = (Fraction(0), Fraction(0))
    for c in coeffs:
        acc = _gadd(gmul(acc, x), c)
    return acc


class Expectation:
    """What the oracle knows about one input."""

    def __init__(self, item: dict):
        self.directions = []      # [(s, or None for the vertical (0, 1); lambda)]
        self.has_exact_direction = False
        V = sympy_potential(item["text"])
        if _POLAR.search(item["text"]):
            # radial / polar: only the residual check applies
            self.gradient_mp = sp.lambdify((q1, q2), [sp.diff(V, q1), sp.diff(V, q2)],
                                           "mpmath")
            return
        try:
            self.V = Quotient(BiPoly.from_sympy(V), BiPoly({(0, 0): (Fraction(1), Fraction(0))}))
        except sp.PolynomialError:      # a rational potential P/Q
            num, den = sp.fraction(sp.together(V))
            self.V = Quotient(BiPoly.from_sympy(num), BiPoly.from_sympy(den))
        self.gradient_mp = self.V.gradient_mp
        self.k = self.V.N.degree() - self.V.D.degree()
        if self.k in (0, 2):
            return
        W = self.V.direction_poly()
        while W and W[-1] == (0, 0):
            W.pop()
        if not W:
            return            # every direction: the radial continuum
        if all(c[1] == 0 for c in W):
            roots = _exact_roots_q(W)
        else:
            roots = _exact_roots_gauss(W)
        one = (Fraction(1), Fraction(0))
        zero = (Fraction(0), Fraction(0))
        for root in roots:
            self._direction(one, root, root)
        self._direction(zero, one, None)

    def _direction(self, x, y, s_value):
        """Record the exact direction (x, y) unless it is not a Darboux
        direction, is degenerate, or lies on the denominator's zero set."""
        axis = 0 if s_value is not None else 1
        got = self.V.first_and_laplacian(x, y, axis)
        if got is None:
            return
        mu, lap = got
        if s_value is None:
            other = self.V.first_and_laplacian(x, y, 0)[0]
            if other != (0, 0):
                return        # (0, 1) is not a Darboux direction
        if mu == (0, 0):
            return            # no finite Darboux point on this direction
        k = self.k
        lam = gdiv((k * lap[0], k * lap[1]), mu)
        lam = (lam[0] - k * (k - 1), lam[1])
        self.directions.append((s_value, lam))
        self.has_exact_direction = True


# -- checks ------------------------------------------------------------------------------


def _mpf(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _mp(v):
    """A reported coordinate as an mpmath number (real when it is real,
    so atan2 in polar potentials stays defined)."""
    re_, im_ = (_mpf(v["re"]), _mpf(v["im"])) if isinstance(v, dict) else map(mpmath.mpf, v)
    return re_ if im_ == 0 else mpmath.mpc(re_, im_)


def _complex(v) -> complex:
    if isinstance(v, dict):
        return complex(float(Fraction(v["re"])), float(Fraction(v["im"])))
    return complex(v[0], v[1])


def _residual_problems(exp: Expectation, summary: dict) -> list:
    k = summary["degree"]
    out = []
    with mpmath.workdps(40):
        for p in summary["points"]:
            c0, c1 = _mp(p["c"][0]), _mp(p["c"][1])
            try:
                g1, g2 = exp.gradient_mp(c0, c1)
            except (ZeroDivisionError, ValueError) as exc:
                out.append(f"gradient undefined at reported point {p['c']}: {exc}")
                continue
            res = max(abs(g1 - k * c0), abs(g2 - k * c1))
            scale = max(1.0, abs(k) * float(max(abs(c0), abs(c1))))
            if res > RESIDUAL_TOL * scale:
                out.append(f"point {p['c']}: |grad V(c) - k c| = {float(res):.2e} "
                           f"> {RESIDUAL_TOL:g} * {scale:.3g}")
    return out


def _direction_of(p):
    c0, c1 = _complex(p["c"][0]), _complex(p["c"][1])
    if abs(c0) <= 1e-12 * abs(c1):
        return None
    return c1 / c0


def _fmt(g):
    re_, im_ = g
    return str(re_) if im_ == 0 else f"{re_}{'+' if im_ > 0 else '-'}{abs(im_)}i"


def _lambda_problems(exp: Expectation, summary: dict) -> list:
    out = []
    for s_value, lam in exp.directions:
        target = None if s_value is None else complex(float(s_value[0]), float(s_value[1]))
        matches = []
        for p in summary["points"]:
            d = _direction_of(p)
            if (d is None) != (target is None):
                continue
            if d is None or abs(d - target) <= MATCH_TOL * max(1.0, abs(target)):
                matches.append(p)
        where = "(0, 1)" if s_value is None else f"(1, {_fmt(s_value)})"
        if not matches:
            out.append(f"exact direction {where} (lambda = {_fmt(lam)}) is missing")
            continue
        for p in matches:
            if p["status"] not in ("admissible", "inadmissible"):
                continue              # indeterminate is allowed
            if p["lam"] is None:      # decided as a non-real eigenvalue
                if lam[1] == 0:
                    out.append(f"direction {where}: called non-real, exact lambda = {_fmt(lam)}")
            elif lam[1] != 0 or Fraction(p["lam"]) != lam[0]:
                out.append(f"direction {where}: lambda = {p['lam']} ({p['reason']}), "
                           f"exact lambda = {_fmt(lam)}")
    return out


def _planted_problems(item: dict, rec: dict) -> list:
    planted = item["planted"]
    summary = rec["summary"]
    want = "admissible" if rec.get("planted_admissible") else "inadmissible"
    for p in summary["points"]:
        if p["c"] == [{"re": "1", "im": "0"}, {"re": "0", "im": "0"}]:
            if not p["lam_exact"] or p["lam"] != planted["lambda"]:
                return [f"planted point (1, 0): lambda = {p['lam']}, "
                        f"planted {planted['lambda']}"]
            if p["status"] != want:
                return [f"planted point (1, 0): status {p['status']}, "
                        f"admissible(k, lambda) says {want}"]
            return []
    return ["planted point (1, 0) is missing"]


def _golden_problems(item: dict, summary: dict) -> list:
    g = item["golden"]
    got = {"k": summary["degree"], "n_points": summary["n_points"],
           "n_multiple": summary["n_multiple"], "verdict": summary["verdict"]}
    return [] if got == g else [f"golden row {g}, got {got}"]


def check_item(item: dict, rec: dict, exp: Expectation, deadline: float) -> list:
    """Problems with one input's outcomes; an empty list means it passed."""
    if rec is None or rec["n"] == 0:
        return ["never run"]
    problems = []
    if rec["deadline"]:
        problems.append(f"deadline overrun (> {deadline:g} s) in {rec['deadline']} of {rec['n']} runs")
    if rec["exception"]:
        problems.append(f"exception: {rec['exception_detail']}")
    if item["expect"] == "error":
        if rec["report"]:
            problems.append("returned a report; a PotentialError was expected")
        return problems
    if rec["potential_error"]:
        problems.append(f"unexpected PotentialError: {rec['potential_error_detail']}")
    if rec["mismatch"]:
        problems.append(f"report changed between runs ({rec['mismatch']} times)")
    summary = rec.get("summary")
    if summary is None:
        return problems
    if summary["n_points"] != len(summary["points"]):
        problems.append("n_points disagrees with the point list")
    problems += _residual_problems(exp, summary)
    problems += _lambda_problems(exp, summary)
    if "planted" in item:
        problems += _planted_problems(item, rec)
    if "golden" in item:
        problems += _golden_problems(item, summary)
    return problems


def check_task(task: dict, rec: dict) -> list:
    if rec is None or rec["n"] == 0:
        return ["never run"]
    problems = []
    if rec["deadline"]:
        problems.append(f"deadline overrun in {rec['deadline']} of {rec['n']} runs")
    if rec["exception"]:
        problems.append(f"exception: {rec['exception_detail']}")
    if rec["potential_error"]:
        problems.append(f"unexpected PotentialError: {rec['potential_error_detail']}")
    return problems + rec.get("problems", [])
