"""Exact scalars: Gaussian rationals, exact and principal roots, and powers.

Everything downstream that claims exactness (degrees, eigenvalues, table
membership, multiplicity tests) is built on these.  A scalar is either a
:class:`GaussianRational` or a Python ``complex``, and its type is the
only record of exactness: a value is exact iff it is a GaussianRational.
The two support the same arithmetic, and mixing them gives a complex, so
generic code stays agnostic; `scalar` brings any number into the domain
and `is_exact` asks whether values are all exact.

`principal_root` is the one m-th root of a scalar: exact when it lies in
Q(i), else the principal complex root.  `power` is the one binary
powering loop, for any ring with a multiplication (scalars, jets,
rational functions).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import isqrt

Q = Fraction  # short alias used heavily in table data and tests


def integer_nth_root(n: int, r: int):
    """Exact r-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    if r == 2:
        root = isqrt(n)
    else:
        lo, hi = 0, 1 << ((n.bit_length() // r) + 2)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**r < n:
                lo = mid + 1
            else:
                hi = mid
        root = lo
    return root if root**r == n else None


def rational_nth_root(x: Fraction, r: int):
    """Exact r-th root of a rational, or None when it is irrational.

    Negative x is allowed for odd r.
    """
    sign = 1
    if x < 0:
        if r % 2 == 0:
            return None
        sign, x = -1, -x
    pn = integer_nth_root(x.numerator, r)
    if pn is None:
        return None
    pd = integer_nth_root(x.denominator, r)
    if pd is None:
        return None
    return sign * Fraction(pn, pd)


def rational_sqrt(x: Fraction):
    return rational_nth_root(x, 2)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Invariants come free from fractions.Fraction: reduced form, positive
    denominator, arbitrary-precision integers, no rounding ever.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------
    # An operand that is already a GaussianRational skips `coerce`, and a
    # real factor or divisor costs two Fraction operations, not four.

    def __add__(self, other):
        if isinstance(other, complex):
            return complex(self) + other
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, complex):
            return complex(self) - other
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, complex):
            return complex(self) * other
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not o.im:
            return GaussianRational(self.re * o.re, self.im * o.re)
        if not self.im:
            return GaussianRational(self.re * o.re, self.re * o.im)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, complex):
            return complex(self) / other
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not o.im:
            if not o.re:
                raise ZeroDivisionError("division by zero GaussianRational")
            return GaussianRational(self.re / o.re, self.im / o.re)
        n2 = o.re * o.re + o.im * o.im
        return GaussianRational((self.re * o.re + self.im * o.im) / n2,
                                (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        if isinstance(other, complex):
            return other / complex(self)
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("GaussianRational powers must be integers")
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        if not self.im:  # one Fraction power
            return GaussianRational(self.re ** n)
        return power(self, n, GaussianRational(1))

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- conversions / protocol --------------------------------------

    def __complex__(self):
        re, im = self.re, self.im  # int / int rounds once, as float(Fraction) does
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def sqrt_exact(self):
        """Exact square root when one exists in Q(i), else None.

        sqrt(a+bi) = x+yi needs x^2 = (|z|+a)/2, y^2 = (|z|-a)/2 with |z|
        rational, so everything reduces to rational perfect squares.
        """
        if self.is_zero():
            return GaussianRational(0)
        if self.im == 0:
            r = rational_sqrt(self.re)
            if r is not None:
                return GaussianRational(r)
            r = rational_sqrt(-self.re)
            if r is not None:
                return GaussianRational(0, r)  # principal root of a negative rational
            return None
        mod = rational_sqrt(self.norm2())
        if mod is None:
            return None
        x = rational_sqrt((mod + self.re) / 2)
        y = rational_sqrt((mod - self.re) / 2)
        if x is None or y is None:
            return None
        if self.im < 0:
            y = -y
        return GaussianRational(x, y)


def gr(re=0, im=0) -> GaussianRational:
    """Tiny constructor used all over the tests."""
    return GaussianRational(re, im)


# -- scalar-domain helpers (exact GaussianRational or floating complex) --

def scalar(v):
    """v in the scalar domain: an int or Fraction becomes an exact
    GaussianRational, a GaussianRational or complex is kept, and any other
    number becomes a complex."""
    if isinstance(v, (GaussianRational, complex)):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    return complex(v)


def is_exact(values) -> bool:
    """True when every value is a GaussianRational."""
    return all(isinstance(v, GaussianRational) for v in values)


def is_finite(values) -> bool:
    """True when every value is exact or a finite complex."""
    return all(isinstance(v, GaussianRational) or cmath.isfinite(v) for v in values)


def to_complex(x) -> complex:
    return complex(x)


def scalar_is_zero(x, tol: float = 0.0) -> bool:
    if isinstance(x, GaussianRational):
        return x.is_zero()
    return abs(x) <= tol


def power(x, n: int, one):
    """x^n for an integer n >= 0 by binary powering, with one = x^0: no
    square is taken after the last bit of n."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def principal_root(x, m: int):
    """y with y^m = x (x != 0, m != 0) on the principal branch; exact when
    it lies in Q(i).

    Other branches differ by an m-th root of unity.  An exact real x > 0
    gets its real root, and a negative real x the principal (complex) one,
    also when its float imaginary part is -0.0.  An exact x beyond double
    range takes its logarithm from its exact parts, and OverflowError is
    raised when y is beyond double range too.
    """
    if m in (1, -1):
        return x if m == 1 else 1 / x
    if isinstance(x, GaussianRational):
        if m in (2, -2):
            base = x if m == 2 else GaussianRational(1) / x
            sq = base.sqrt_exact()  # the exact branch agrees with the principal root
            if sq is not None:
                return sq
        if x.is_real() and x.re > 0:
            base = x.re if m > 0 else Fraction(1) / x.re
            ex = rational_nth_root(base, abs(m))
            if ex is not None:
                return GaussianRational(ex)
    try:
        z = to_complex(x) + 0j  # -0.0 + 0.0 = 0.0: the log takes arg pi, not -pi
    except OverflowError:
        z = 0j
    if z == 0:  # an exact x beyond double range: log x from its exact parts
        n2 = x.norm2()
        arg = cmath.phase(complex(x / max(abs(x.re), abs(x.im))))
        log_x = complex((math.log(n2.numerator) - math.log(n2.denominator)) / 2, arg)
        try:
            y = cmath.exp(log_x / m)
        except OverflowError:
            y = 0j
        if y == 0:
            raise OverflowError(f"y^{m} = x with log|x| = {log_x.real:.6g} is beyond double range")
        return y
    if z.imag == 0 and z.real > 0:
        return complex(z.real ** (1 / m))
    return cmath.exp(cmath.log(z) / m)


def parse_rational(text: str) -> Fraction:
    """Parse 'p', 'p/q' or a decimal literal into an exact Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
