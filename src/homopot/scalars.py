"""Exact scalars: Gaussian rationals, exact and principal roots, and powers.

Everything downstream that claims exactness (degrees, eigenvalues, table
membership, multiplicity tests) is built on these.  A scalar is either a
:class:`GaussianRational` or a Python ``complex``, and its type is the
only record of exactness: a value is exact iff it is a GaussianRational.
The two support the same arithmetic, and mixing them gives a complex, so
generic code stays agnostic; `scalar` brings any number into the domain
and `is_exact` asks whether values are all exact; `is_real` is the one
test of realness, exact or to REAL_TOL for a float.  A GaussianRational is
one Gaussian integer over one positive denominator in lowest terms, so its
arithmetic is integer arithmetic with at most one gcd per result.

`principal_root` is the one m-th root of a scalar: exact when it lies in
Q(i), else the principal complex root.  `power` is the one binary
powering loop, for any ring with a multiplication (scalars, jets,
rational functions).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd, isqrt, lcm

Q = Fraction  # short alias used heavily in table data and tests
REAL_TOL = 1e-8  # a float |Im x| up to REAL_TOL max(1, |x|) is rounding: `is_real`


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
    """Complex number (a + b i)/d with exact rational real and imaginary parts.

    a, b and d are Python ints kept canonical: d > 0 and gcd(a, b, d) = 1,
    so equal values have equal triples and == compares three ints.  An
    operation restores that with one gcd, or none when both denominators
    are 1; a product of two reals cross-cancels as Fraction does.  `re` and
    `im` read the parts as reduced Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # d = lcm of the reduced denominators leaves gcd(a, b, d) = 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _gr(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _gr(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "GaussianRational":
        """(a + b i)/d for ints a, b and d > 0."""
        g = gcd(a, b, d)
        return _gr(a // g, b // g, d // g)

    # -- parts ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def is_real(self) -> bool:
        return not self.b

    # -- arithmetic ----------------------------------------------------
    # A complex operand makes the result a complex; any other operand that
    # is not already a GaussianRational goes through `coerce`.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, complex):
                return complex(self) + other
            other = GaussianRational.coerce(other)
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        # over a denominator of 1 the sum stays canonical: gcd(a, b, d) is unchanged
        if od == 1:
            return _gr(a + oa * d, b + ob * d, d)
        if d == 1:
            return _gr(a * od + oa, b * od + ob, od)
        if d == od:
            a, b = a + oa, b + ob
        else:
            a, b, d = a * od + oa * d, b * od + ob * d, d * od
        return GaussianRational.from_ints(a, b, d)

    __radd__ = __add__

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, complex):
                return complex(self) - other
            other = GaussianRational.coerce(other)
        return self + _gr(-other.a, -other.b, other.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, complex):
                return complex(self) * other
            other = GaussianRational.coerce(other)
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        if not (b or ob) and d * od != 1:  # real times real: cross-cancel as Fraction does
            g1, g2 = gcd(a, od), gcd(oa, d)
            return _gr((a // g1) * (oa // g2), 0, (d // g2) * (od // g1))
        if not ob:
            a, b = a * oa, b * oa
        elif not b:
            a, b = a * oa, a * ob
        else:
            a, b = a * oa - b * ob, a * ob + b * oa
        d *= od
        return GaussianRational.from_ints(a, b, d) if d != 1 else _gr(a, b, 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, complex):
                return complex(self) / other
            other = GaussianRational.coerce(other)
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        if not ob:  # (a + b i)/d / (oa/od) = (a + b i) od / (d oa)
            if not oa:
                raise ZeroDivisionError("division by zero GaussianRational")
            if oa < 0:
                oa, od = -oa, -od
            a, b, d = a * od, b * od, d * oa
        else:  # times the conjugate over the norm oa^2 + ob^2 > 0
            a, b, d = (a * oa + b * ob) * od, (b * oa - a * ob) * od, d * (oa * oa + ob * ob)
        return GaussianRational.from_ints(a, b, d)

    def __rtruediv__(self, other):
        if isinstance(other, complex):
            return other / complex(self)
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("GaussianRational powers must be integers")
        if n < 0:
            return _gr(1, 0, 1) / self ** (-n)
        a, b, d = self.a, self.b, self.d
        if not b:  # gcd(a, d) = 1 gives gcd(a^n, d^n) = 1
            return _gr(a ** n, 0, d ** n)
        z = power(_gr(a, b, 1), n, _gr(1, 0, 1))  # Gaussian integers: no gcd
        return GaussianRational.from_ints(z.a, z.b, d ** n)

    def conjugate(self):
        return _gr(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        """|z|^2, exact."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- conversions / protocol --------------------------------------

    def __complex__(self):
        d = self.d  # int / int rounds the exact quotient once, reduced or not
        return complex(self.a / d, self.b / d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.d == other.denominator and self.a == other.numerator
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"

    def sqrt_exact(self):
        """Exact square root when one exists in Q(i), else None.

        sqrt(a+bi) = x+yi needs x^2 = (|z|+a)/2, y^2 = (|z|-a)/2 with |z|
        rational, so everything reduces to rational perfect squares.
        """
        if self.is_zero():
            return GaussianRational(0)
        re = self.re
        if not self.b:
            r = rational_sqrt(re)
            if r is not None:
                return GaussianRational(r)
            r = rational_sqrt(-re)
            if r is not None:
                return GaussianRational(0, r)  # principal root of a negative rational
            return None
        mod = rational_sqrt(self.norm2())
        if mod is None:
            return None
        x = rational_sqrt((mod + re) / 2)
        y = rational_sqrt((mod - re) / 2)
        if x is None or y is None:
            return None
        if self.b < 0:
            y = -y
        return GaussianRational(x, y)


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d from a canonical triple: d > 0 and gcd(a, b, d) = 1."""
    z = _new(GaussianRational)
    z.a, z.b, z.d = a, b, d
    return z


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


def is_real(x) -> bool:
    """True when the scalar x is real: exactly for a GaussianRational, and
    for a float when |Im x| <= REAL_TOL max(1, |x|)."""
    if isinstance(x, GaussianRational):
        return x.is_real()
    z = complex(x)
    return abs(z.imag) <= REAL_TOL * max(1.0, abs(z))


def point_text(c) -> str:
    """The point c for reports and messages, as (1, 0) or (1/2, 1+3/4*i): an
    exact coordinate as `str` prints it, a float one to 12 significant
    digits, as its real part when |Im| < 1e-14, else as (re+imi)."""
    def coordinate(x):
        if isinstance(x, GaussianRational):
            return str(x)
        z = complex(x)
        return f"{z.real:.12g}" if abs(z.imag) < 1e-14 else f"({z.real:.12g}{z.imag:+.12g}i)"
    return f"({', '.join(map(coordinate, c))})"


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
        z = complex(x) + 0j  # -0.0 + 0.0 = 0.0: the log takes arg pi, not -pi
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
