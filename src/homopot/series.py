"""Truncated bivariate power series and Taylor jets.

Jets of a potential at a base point are computed by plain series
arithmetic on the defining expression (add, multiply, raise to a
rational power, divide as the power -1), uniform across potential kinds.
Integer powers and the leading factor c0^e of a rational power come from
`scalars.power` and `scalars.principal_root`.  Coefficients are
scalars (see scalars.py): the arithmetic is exact while they are
Gaussian rationals, and a complex base point, coefficient or irrational
root makes the coefficients it touches complex.  The derivative table
handed to the variational machinery uses the order/slot convention

    d[i][j] = d^{i+1} V / dq1^{i-j+1} dq2^j  (c),   0 <= j <= i+1 <= L+1,

so row i collects the derivatives of total order i+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .scalars import GaussianRational, is_exact, power, principal_root, scalar, scalar_is_zero

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class Jet2:
    """Bivariate Taylor expansion truncated above a total order.

    coeffs maps (a, b) with a+b <= order to the nonzero coefficient of
    x^a y^b, each a GaussianRational or a complex.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        self.coeffs = dict(coeffs or {})

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value, order: int):
        value = scalar(value)
        return cls(order, {(0, 0): value} if value else {})

    @classmethod
    def variable(cls, which: int, base_value, order: int):
        """The affine jet base_value + x (which=0) or base_value + y (which=1)."""
        coeffs = {(1, 0) if which == 0 else (0, 1): _ONE}
        base_value = scalar(base_value)
        if base_value:
            coeffs[(0, 0)] = base_value
        return cls(order, coeffs)

    # -- basic accessors -----------------------------------------------

    def coeff(self, a: int, b: int):
        return self.coeffs.get((a, b), _ZERO)

    @property
    def const_term(self):
        return self.coeff(0, 0)

    def _store(self, coeffs: dict) -> "Jet2":
        return Jet2(self.order, {k: v for k, v in coeffs.items() if v})

    # -- ring operations -----------------------------------------------

    def _align(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2.constant(other, self.order)
        if other.order != self.order:
            raise ValueError("jet order mismatch")
        return other

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in self._align(other).coeffs.items():
            out[k] = out[k] + v if k in out else v
        return self._store(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._align(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, out = self._align(other), {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                if key[0] + key[1] > self.order:
                    continue
                p = v1 * v2
                out[key] = out[key] + p if key in out else p
        return self._store(out)

    __rmul__ = __mul__

    def scale(self, s):
        """Multiply by a scalar."""
        s = scalar(s)
        return Jet2(self.order, {k: v * s for k, v in self.coeffs.items()})

    def pow_int(self, n: int) -> "Jet2":
        if n < 0:
            return self.rational_power(-1).pow_int(-n)
        return power(self, n, Jet2.constant(1, self.order))

    def __truediv__(self, other):
        return self * self._align(other).rational_power(-1)

    def rational_power(self, e: Fraction) -> "Jet2":
        """f^e for rational e via the binomial series around the constant term.

        A nonnegative integer e is binary powering, and a negative one the
        power of 1/f (e = -1, the geometric series).  The series is exact
        when the constant term c0 is, and the leading factor
        principal_root(c0, q)^p (e = p/q) when the root lies in Q(i).
        """
        e = Fraction(e)
        if e.denominator == 1 and e != -1:
            return self.pow_int(int(e))
        c0 = self.const_term
        if scalar_is_zero(c0, 1e-300):
            raise ZeroDivisionError("rational power of a jet vanishing at the base point")
        u = self.scale(1 / c0) - 1
        acc = Jet2.constant(1, self.order)
        term = acc
        binom = Fraction(1)
        for m in range(1, self.order + 1):
            binom *= Fraction(e - m + 1, m)
            term = term * u
            # +-1 (every coefficient for e = -1) is a negation, which keeps the
            # sign of a zero part where a complex product by -1 would not
            acc = acc + (term if binom == 1 else -term if binom == -1 else term.scale(binom))
        return acc.scale(principal_root(c0, e.denominator) ** e.numerator)

    def __repr__(self):
        return f"Jet2(order={self.order}, terms={len(self.coeffs)})"


@dataclass
class TaylorJet:
    """Exact (or floating) derivative table of a potential at a point.

    d[i][j] follows the convention in the module docstring; `value` is
    V(c) itself.  `degree` is carried along so consumers can check the
    Euler recurrence d[i][j] = (k - i) d[i-1][j] at normalized points.
    The jet is exact when V(c) and every d[i][j] are.
    """

    base_point: tuple
    order: int
    degree: int
    value: object
    d: list = field(repr=False)  # d[i][j], 0 <= i <= order, 0 <= j <= i+1

    @property
    def exact(self) -> bool:
        return is_exact([self.value, *(v for row in self.d for v in row)])

    @classmethod
    def from_series(cls, series: Jet2, base_point, order: int, degree: int):
        """Extract derivatives from a Taylor series: D(a,b) = a! b! * coeff."""
        d = []
        for i in range(order + 1):
            row = []
            for j in range(i + 2):
                a, b = i + 1 - j, j
                row.append(series.coeff(a, b) * (factorial(a) * factorial(b)))
            d.append(row)
        return cls(base_point=tuple(base_point), order=order, degree=degree,
                   value=series.const_term, d=d)

    def gradient(self):
        return (self.d[0][0], self.d[0][1])

    def hessian(self):
        return ((self.d[1][0], self.d[1][1]),
                (self.d[1][1], self.d[1][2]))

    def d_symbol_values(self) -> dict:
        """Map variational-equation symbol names d_i_j to numeric values."""
        out = {}
        for i in range(self.order + 1):
            for j in range(i + 2):
                out[f"d_{i}_{j}"] = self.d[i][j]
        return out
