"""Planar homogeneous potentials with exact coefficient arithmetic.

A potential of degree k is stored in one of two shapes:

* Cartesian   V = P/Q with P, Q homogeneous, deg P - deg Q = k
* polar       V = r^k U(theta), U a trigonometric polynomial

A form P of degree n is stored as its degree and its line restriction
p(s) = P(1, s) (`HomoPoly.line`, a `UPoly`), since P = q1^n p(q2/q1):
scaling, a linear substitution, lowest terms and the jet all work on p,
and the Darboux layer reads V = P/Q only through p and q = Q(1, s).

Four kind names are read off that data, never stored: `polynomial` is
P/1 (Q the constant 1, `_UNIT`), `rational` any other P/Q, `radial` a
constant U, i.e. a (q1^2+q2^2)^(k/2), and `polar` any other U.  Only the
JSON format, the printer and the report text speak of the four names.

U is stored only as its Laurent coefficients c_j in z = e^{i theta}
(`TrigPoly`): d/dtheta maps c_j to i j c_j, a rotation by delta to
c_j e^{i j delta}, and theta -> -theta to c_-j.  The parser builds U in
the same coordinates, where a product is a convolution (see parse.py).
The polar jet is sum_j c_j (q1 + sgn(j) i q2)^|j| r^(k-|j|), and
`TrigPoly.z_poly` is the polynomial z^M U whose roots `polar` takes.

Coefficients are scalars (see scalars.py): parsed potentials have exact
Gaussian-rational coefficients, and a rigid transform or Darboux
normalization by an irrational rotation or scale gives complex ones.
`exact` is read off the coefficients, never stored.  Taylor jets at a
point are produced by truncated series arithmetic (see series.py), never
by repeated symbolic differentiation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import (GaussianRational, is_exact, is_finite, point_text, power, scalar,
                      scalar_is_zero)
from .series import Jet2, TaylorJet
from .upoly import UPoly

POLYNOMIAL = "polynomial"
RATIONAL = "rational"
RADIAL = "radial"
POLAR = "polar"


class PotentialError(ValueError):
    """Domain error for potential construction or evaluation."""


class SingularPointError(PotentialError):
    """The potential is not defined (or not smooth) at the requested point."""


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_I = GaussianRational(0, 1)


class HomoPoly:
    """Homogeneous form P of degree n, stored as `line` = p(s) = P(1, s):
    the s^j coefficient of p is that of q1^(n-j) q2^j.  The constructor
    takes exponent pairs (i, j), i + j = n; `terms` is their view."""

    __slots__ = ("degree", "line")

    def __init__(self, degree: int, terms: dict):
        self.degree = int(degree)
        cs = [_ZERO] * (self.degree + 1)
        for (i, j), v in terms.items():
            if i < 0 or j < 0 or i + j != self.degree:
                raise PotentialError(
                    f"exponent pair ({i},{j}) does not match degree {self.degree}")
            v = scalar(v)
            if v:
                cs[j] = v
        self.line = UPoly(cs)

    @classmethod
    def _of_line(cls, degree: int, line: UPoly) -> "HomoPoly":
        P = cls.__new__(cls)
        P.degree, P.line = degree, line
        return P

    @property
    def terms(self) -> dict:
        n = self.degree
        return {(n - j, j): c for j, c in enumerate(self.line.coeffs) if c}

    @property
    def exact(self) -> bool:
        return is_exact(self.line.coeffs)

    def is_zero(self) -> bool:
        return self.line.is_zero()

    def __eq__(self, other):
        return (isinstance(other, HomoPoly) and self.degree == other.degree
                and self.line.coeffs == other.line.coeffs)

    def __hash__(self):
        return hash((self.degree, tuple(self.line.coeffs)))

    def scale(self, s) -> "HomoPoly":
        return HomoPoly._of_line(self.degree, self.line * scalar(s))

    def substitute_linear(self, R) -> "HomoPoly":
        """V(R q) for a 2x2 matrix R: on the line, sum_j c_j l1^(n-j) l2^j
        with l1 = R00 + R01 s and l2 = R10 + R11 s."""
        n, one = self.degree, UPoly([_ONE])
        l1, l2 = (UPoly([scalar(row[0]), scalar(row[1])]) for row in R)
        out = UPoly([])
        for j, c in enumerate(self.line.coeffs):
            if c:
                out = out + power(l1, n - j, one) * power(l2, j, one) * c
        return HomoPoly._of_line(n, out)

    def restrict_line(self) -> UPoly:
        """p(s) = V(1, s) (exact kinds only)."""
        if not self.exact:
            raise PotentialError("line restriction requires exact coefficients")
        return self.line

    def jet(self, c, order: int) -> Jet2:
        n, cs = self.degree, self.line.coeffs
        xpow = _jet_powers(Jet2.variable(0, c[0], order), n)
        ypow = _jet_powers(Jet2.variable(1, c[1], order), len(cs) - 1)
        return sum(((xpow[n - j] * ypow[j]).scale(v) for j, v in enumerate(cs) if v),
                   Jet2.constant(0, order))

    def __repr__(self):
        return f"HomoPoly(degree={self.degree}, terms={len(self.terms)}, exact={self.exact})"


def _jet_powers(base: Jet2, n: int) -> list:
    """[base^0, base^1, ..., base^n]."""
    out = [Jet2.constant(1, base.order)]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


_UNIT = HomoPoly(0, {(0, 0): 1})  # the denominator of a polynomial


def _lowest_terms(num: HomoPoly, den: HomoPoly) -> tuple:
    """num and den divided by q1^v g^: g^ homogenises g = gcd(num(1, s),
    den(1, s)), and v is the smaller degree that either loses on q1 = 1."""
    p, q = num.line, den.line
    g = p.gcd(q)
    cut = min(num.degree - p.degree, den.degree - q.degree) + g.degree  # v + deg g
    if not cut:
        return num, den
    return tuple(HomoPoly._of_line(P.degree - cut, P.line // g) for P in (num, den))


# -- the angular part of the polar kind ---------------------------------

class TrigPoly:
    """Finite trigonometric polynomial T(t) = sum_j c_j z^j, z = e^{it}.

    The Laurent coefficients c_j (|j| <= M, zeros dropped) are the only
    stored data.  The constructor and the views `const`, `cos` and `sin`
    speak the real form a0 + sum a_m cos(m t) + b_m sin(m t), with
    c_(+-m) = (a_m -+ i b_m)/2.  Coefficients are scalars: parsed ones are
    Gaussian rationals, and a rotation by an irrational angle makes them
    complex.  The polar analysis pipeline additionally requires T to be
    real (checked by callers).
    """

    __slots__ = ("coeffs",)

    def __init__(self, const=0, cos=None, sin=None):
        half = GaussianRational(Fraction(1, 2))
        c = {0: scalar(const)}
        for table, rot in ((cos, half), (sin, -half * _I)):
            for m, v in (table or {}).items():
                if m <= 0:
                    raise PotentialError("trig frequencies must be positive integers")
                v = scalar(v)
                c[m] = c.get(m, _ZERO) + v * rot
                c[-m] = c.get(-m, _ZERO) + v * rot.conjugate()
        self.coeffs = {j: v for j, v in c.items() if v}

    @classmethod
    def _laurent(cls, coeffs: dict) -> "TrigPoly":
        T = cls.__new__(cls)
        T.coeffs = {j: v for j, v in coeffs.items() if v}
        return T

    @property
    def const(self) -> GaussianRational:
        return self.coeffs.get(0, _ZERO)

    @property
    def cos(self) -> dict:
        """{m: a_m} with a_m = c_m + c_-m."""
        return self._view(lambda p, n: p + n)

    @property
    def sin(self) -> dict:
        """{m: b_m} with b_m = i (c_m - c_-m)."""
        return self._view(lambda p, n: (p - n) * _I)

    def _view(self, f) -> dict:
        out = {}
        for m in sorted({abs(j) for j in self.coeffs} - {0}):
            v = f(self.coeffs.get(m, _ZERO), self.coeffs.get(-m, _ZERO))
            if v:
                out[m] = v
        return out

    def is_constant(self) -> bool:
        return set(self.coeffs) <= {0}

    def is_real(self) -> bool:
        return all(self.coeffs.get(-j, _ZERO) == v.conjugate() for j, v in self.coeffs.items())

    def norm1(self) -> float:
        """sum |c_j| >= max |T|, the scale for float tolerances on T."""
        return sum(abs(v) for v in self.coeffs.values())

    def max_frequency(self) -> int:
        return max((abs(j) for j in self.coeffs), default=0)

    def __eq__(self, other):
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def evaluate(self, theta: float) -> float:
        import math
        acc = complex(self.const)
        for m, v in self.cos.items():
            acc += complex(v) * math.cos(m * theta)
        for m, v in self.sin.items():
            acc += complex(v) * math.sin(m * theta)
        return acc.real if abs(acc.imag) < 1e-300 else acc

    def z_poly(self) -> UPoly:
        """z^M T as a polynomial in z, M = max_frequency()."""
        M = self.max_frequency()
        return UPoly([self.coeffs.get(j - M, _ZERO) for j in range(2 * M + 1)])

    def derivative(self) -> "TrigPoly":
        return TrigPoly._laurent({j: v * GaussianRational(0, j) for j, v in self.coeffs.items()})

    def scale(self, s) -> "TrigPoly":
        g = scalar(s)
        return TrigPoly._laurent({j: v * g for j, v in self.coeffs.items()})

    def shift(self, cos_d, sin_d) -> "TrigPoly":
        """U(theta + d) given cos d and sin d (exact or float, d may be complex):
        c_j -> c_j w^j with w = cos d + i sin d, and w^-1 = cos d - i sin d.
        c_0 is kept as it is, so a constant U stays exact under a float d."""
        w = {1: cos_d + _I * sin_d, -1: cos_d - _I * sin_d}
        return TrigPoly._laurent({j: v * w[1 if j > 0 else -1] ** abs(j) if j else v
                                  for j, v in self.coeffs.items()})

    def flip(self) -> "TrigPoly":
        """U(-theta)."""
        return TrigPoly._laurent({-j: v for j, v in self.coeffs.items()})

    def __repr__(self):
        return f"TrigPoly(const={self.const}, cos={len(self.cos)}, sin={len(self.sin)})"


@dataclass(frozen=True)
class Potential:
    """A planar homogeneous potential of integer degree: num/den, or
    r^degree U(theta) when U is set."""

    degree: int
    num: Optional[HomoPoly] = None           # V = num/den, with den = _UNIT
    den: Optional[HomoPoly] = None           # for a polynomial
    U: Optional[TrigPoly] = None             # V = r^degree U(theta)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def polynomial(poly: HomoPoly) -> "Potential":
        if poly.is_zero():
            raise PotentialError("zero polynomial is not a potential")
        return Potential(degree=poly.degree, num=poly, den=_UNIT)

    @staticmethod
    def rational(num: HomoPoly, den: HomoPoly) -> "Potential":
        """num/den, in lowest terms when exact, with both divided by the
        leading coefficient of den(1, s): that makes den(1, s) monic, so one
        function has one num/den.  A constant den becomes `_UNIT`, which
        makes a polynomial."""
        if den.is_zero():
            raise PotentialError("zero denominator")
        if num.is_zero():
            raise PotentialError("zero potential")
        if num.exact and den.exact and num.degree and den.degree:
            num, den = _lowest_terms(num, den)
        lead = den.line.coeffs[-1]
        num, den = num.scale(1 / lead), den.scale(1 / lead) if den.degree else _UNIT
        return Potential(degree=num.degree - den.degree, num=num, den=den)

    @staticmethod
    def radial(a, k: int) -> "Potential":
        if not scalar(a):
            raise PotentialError("zero radial coefficient")
        return Potential.polar(TrigPoly(a), k)

    @staticmethod
    def polar(U: TrigPoly, k: int) -> "Potential":
        if not U.coeffs:
            raise PotentialError("polar potential with identically zero angular part")
        return Potential(degree=int(k), U=U)

    @property
    def kind(self) -> str:
        if self.U is not None:
            return RADIAL if self.U.is_constant() else POLAR
        return POLYNOMIAL if self.den == _UNIT else RATIONAL

    @property
    def exact(self) -> bool:
        if self.U is not None:
            return is_exact(self.U.coeffs.values())
        return self.num.exact and self.den.exact

    # -- evaluation -------------------------------------------------------

    def __call__(self, x, y):
        j = jet_at(self, (x, y), 0)
        return j.value

    def gradient(self, point):
        j = jet_at(self, point, 0)
        return j.gradient()

    def hessian(self, point):
        j = jet_at(self, point, 1)
        return j.hessian()

    def text(self) -> str:
        from .parse import print_potential
        return print_potential(self)

    def to_json(self) -> dict:
        return potential_to_json(self)

    def __repr__(self):
        return f"Potential({self.kind}, k={self.degree})"


# -- jets --------------------------------------------------------------


def jet_at(V: Potential, c, L: int) -> TaylorJet:
    """Exact (when possible) Taylor jet of V at c up to derivative order L+1.

    A float jet that overflows or is not finite raises PotentialError.
    """
    if L < -1:
        raise PotentialError(f"jet order L must be >= -1, got {L}")
    order = L + 1
    c = tuple(scalar(t) for t in c)

    try:
        if V.U is not None:
            series = _polar_series(V.U, V.degree, c, order)
        else:
            series = V.num.jet(c, order)
            if V.den != _UNIT:  # a polynomial's jet is taken without a division
                den = V.den.jet(c, order)
                if scalar_is_zero(den.const_term, 1e-14):
                    raise SingularPointError(f"denominator vanishes at {point_text(c)}")
                series = series / den
    except OverflowError as exc:
        raise PotentialError(f"jet beyond double range: {exc}") from exc
    jet = TaylorJet.from_series(series, c, L, V.degree)
    if not is_finite([jet.value, *(v for row in jet.d for v in row)]):
        raise PotentialError("jet beyond double range: a coefficient is not finite")
    return jet


def _radial_series(c, order: int, half_power: Fraction) -> Jet2:
    jx = Jet2.variable(0, c[0], order)
    jy = Jet2.variable(1, c[1], order)
    r2 = jx * jx + jy * jy
    if scalar_is_zero(r2.const_term, 1e-14):
        raise SingularPointError("radial potential jet at an isotropic point (q1^2+q2^2 = 0)")
    return r2.rational_power(half_power)


def _polar_series(U: TrigPoly, k: int, c, order: int) -> Jet2:
    """sum_j c_j (q1 + sgn(j) i q2)^|j| r^(k-|j|), since r z^(+-1) = q1 +- i q2."""
    jx = Jet2.variable(0, c[0], order)
    iy = Jet2.variable(1, c[1], order).scale(_I)
    parts = {}
    for j, v in sorted(U.coeffs.items(), reverse=True):
        t = (jx + iy if j > 0 else jx - iy).pow_int(abs(j)).scale(v)
        parts[abs(j)] = parts[abs(j)] + t if abs(j) in parts else t
    acc = None
    for m, part in sorted(parts.items()):
        term = part * _radial_series(c, order, Fraction(k - m, 2))
        acc = term if acc is None else acc + term
    return acc


# -- rigid transforms ---------------------------------------------------


def orthogonality_defect(R) -> float:
    """max |(R^T R - I)_{ab}| as a float, exact zeros included."""
    entries = [[complex(e) for e in row] for row in R]
    (a, b), (c, d) = entries
    g11 = a * a + c * c - 1
    g12 = a * b + c * d
    g22 = b * b + d * d - 1
    return max(abs(g11), abs(g12), abs(g22))


def transform(V: Potential, R, scale=1) -> Potential:
    """The potential q -> scale * V(R q) for complex-orthogonal R."""
    defect = orthogonality_defect(R)
    if defect > 1e-9:
        raise PotentialError(f"matrix is not complex-orthogonal (defect {defect:.3e})")
    scale = scalar(scale)
    if not scale:
        raise PotentialError("zero scale")

    if V.U is not None:
        return Potential.polar(_transform_angle(V.U, R).scale(scale), V.degree)
    return Potential.rational(V.num.substitute_linear(R).scale(scale),
                              V.den.substitute_linear(R))


def _transform_angle(U: TrigPoly, R) -> TrigPoly:
    """U of the angle of R q, for orthogonal R = ((a, b), (c, d)).

    det R = +1 is the rotation by delta with cos = a, sin = c, which
    shifts the angle by +delta; det R = -1 the reflection across the line
    at angle delta/2, theta -> delta - theta.  The determinant test is
    exact for exact entries and to 1e-9 for complex ones.
    """
    (a, b), (c, d) = ((scalar(e) for e in row) for row in R)
    det = a * d - b * c

    def is_det(sign: int) -> bool:
        return det == sign if isinstance(det, GaussianRational) else abs(det - sign) <= 1e-9

    if is_det(1):
        return U.shift(a, c)
    if is_det(-1):
        return U.shift(a, c).flip()
    raise PotentialError("orthogonal matrix with determinant != +-1")


def rotation_to_axis(c1, c2):
    """(R, gamma) with gamma^2 = c1^2+c2^2 and R^T c = (gamma, 0).

    Works for complex points as long as c is non-isotropic; gamma is the
    exact square root when one exists in Q(i), else the principal complex
    root.
    """
    c1, c2 = scalar(c1), scalar(c2)
    n = c1 * c1 + c2 * c2
    if scalar_is_zero(n, 1e-300):
        raise PotentialError("isotropic point: c1^2+c2^2 = 0")
    g = n.sqrt_exact() if isinstance(n, GaussianRational) else None
    if g is None:
        g = cmath.sqrt(complex(n))
    return ((c1 / g, -(c2 / g)), (c2 / g, c1 / g)), g


def euler_defect(V: Potential, point):
    """q . grad V - k V; identically zero for every homogeneous potential."""
    j = jet_at(V, point, 0)
    p0, p1 = j.base_point
    g1, g2 = j.gradient()
    return p0 * g1 + p1 * g2 - j.value * V.degree


# -- JSON serialization --------------------------------------------------


def _gauss_to_json(v: GaussianRational):
    if v.is_real():
        return str(v)
    return {"re": str(v.re), "im": str(v.im)}


def _gauss_from_json(obj):
    if isinstance(obj, str):
        return GaussianRational(Fraction(obj))
    return GaussianRational(Fraction(obj["re"]), Fraction(obj["im"]))


def _homopoly_to_json(p: HomoPoly) -> dict:
    return {
        "degree": p.degree,
        "terms": {f"{i},{j}": _gauss_to_json(v)
                  for (i, j), v in sorted(p.terms.items(), reverse=True)},
    }


def _homopoly_from_json(obj) -> HomoPoly:
    terms = {}
    for key, v in obj["terms"].items():
        i, j = (int(t) for t in key.split(","))
        terms[(i, j)] = _gauss_from_json(v)
    return HomoPoly(_json_degree(obj), terms)


def _trig_to_json(U: TrigPoly) -> dict:
    return {
        "const": _gauss_to_json(U.const),
        "cos": {str(m): _gauss_to_json(v) for m, v in sorted(U.cos.items())},
        "sin": {str(m): _gauss_to_json(v) for m, v in sorted(U.sin.items())},
    }


def _trig_from_json(obj) -> TrigPoly:
    return TrigPoly(_gauss_from_json(obj["const"]),
                    {int(m): _gauss_from_json(v) for m, v in obj["cos"].items()},
                    {int(m): _gauss_from_json(v) for m, v in obj["sin"].items()})


def potential_to_json(V: Potential) -> dict:
    if not V.exact:
        raise PotentialError("the JSON form requires exact coefficients")
    out = {"kind": V.kind, "degree": V.degree}
    if V.kind == POLYNOMIAL:
        out["terms"] = _homopoly_to_json(V.num)["terms"]
    elif V.kind == RATIONAL:
        out["num"] = _homopoly_to_json(V.num)
        out["den"] = _homopoly_to_json(V.den)
    elif V.kind == RADIAL:
        out["a"] = _gauss_to_json(V.U.const)
    else:
        out["U"] = _trig_to_json(V.U)
    return out


def potential_from_json(obj) -> Potential:
    """Inverse of potential_to_json; a malformed object raises PotentialError."""
    try:
        return _potential_from_json(obj)
    except PotentialError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise PotentialError(f"malformed potential object ({type(exc).__name__}: {exc})") from exc


def _json_degree(obj) -> int:
    k = obj["degree"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise PotentialError(f"degree must be a JSON integer, not {k!r}")
    return k


def _potential_from_json(obj) -> Potential:
    kind = obj["kind"]
    k = _json_degree(obj)
    if kind == POLYNOMIAL:
        return Potential.polynomial(_homopoly_from_json({"degree": k, "terms": obj["terms"]}))
    if kind == RATIONAL:
        return Potential.rational(_homopoly_from_json(obj["num"]), _homopoly_from_json(obj["den"]))
    if kind == RADIAL:
        return Potential.radial(_gauss_from_json(obj["a"]), k)
    if kind == POLAR:
        return Potential.polar(_trig_from_json(obj["U"]), k)
    raise PotentialError(f"unknown kind {kind!r}")
