import cmath
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homopot import upoly
from homopot.scalars import (GaussianRational, gr, integer_nth_root, is_exact,
                             parse_rational, power, principal_root, rational_nth_root,
                             rational_sqrt, scalar)

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, fractions, fractions)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_division_inverts_multiplication(a):
    if not a.is_zero():
        assert (a * a) / a == a
        assert a / a == GaussianRational(1)


def test_division_exactness():
    x = gr(Fraction(1, 3), Fraction(2, 7)) / gr(Fraction(5, 11), Fraction(-3, 13))
    back = x * gr(Fraction(5, 11), Fraction(-3, 13))
    assert back == gr(Fraction(1, 3), Fraction(2, 7))


def test_mixed_with_complex():
    # a complex operand on either side makes the result a complex
    assert 1j / gr(2) == 0.5j and isinstance(1j / gr(2), complex)
    assert gr(2) / 1j == -2j
    assert abs(gr(3, 4)) == 5.0
    assert abs(gr(Fraction(-1, 2))) == 0.5


def test_scalar_domain():
    assert scalar(3) == gr(3) and isinstance(scalar(Fraction(1, 2)), GaussianRational)
    assert scalar(gr(1, 1)) == gr(1, 1)
    assert scalar(0.5) == 0.5 + 0j and isinstance(scalar(0.5), complex)
    assert is_exact([gr(1), scalar(2)]) and not is_exact([gr(1), 1j])


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_integer_powers():
    z = gr(1, 1)
    assert z**2 == gr(0, 2)
    assert z**-2 == gr(0, Fraction(-1, 2))
    assert z**0 == gr(1)


@pytest.mark.parametrize("x", [gr(0), gr(1), gr(-1), gr(Fraction(-7, 3)),
                               gr(Fraction(10**39 + 7, 13))])
def test_real_powers_match_binary_powering(x):
    # a real base takes one Fraction power
    for n in range(13):
        assert x**n == power(x, n, gr(1)) and (x**n).is_real()
    if x:
        assert x**-3 == gr(1) / power(x, 3, gr(1))
    else:
        with pytest.raises(ZeroDivisionError):
            x**-3


def test_gaussian_powers_match_binary_powering():
    z = gr(Fraction(2, 3), -5)
    for n in range(13):
        assert z**n == power(z, n, gr(1))
    assert z**-4 == gr(1) / power(z, 4, gr(1))


class _CountingRing:
    """Integers that count the squarings and the other products taken."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        self.log["square" if other is self else "product"] += 1
        return _CountingRing(self.value * other.value, self.log)


def test_power_takes_no_square_after_the_last_bit():
    one = gr(1)
    assert power(gr(3, 1), 0, one) is one
    log = Counter()
    x8 = power(_CountingRing(3, log), 8, _CountingRing(1, log))
    # x^2, x^4, x^8 and one product with one; a loop that squares after
    # every bit takes a fourth square
    assert x8.value == 3**8 and log == {"square": 3, "product": 1}
    assert power(gr(1, 1), 5, one) == gr(-4, -4)


def test_principal_root_exact_cases():
    z = gr(2, -3)
    assert principal_root(z, 1) is z and principal_root(z, -1) == 1 / z
    assert principal_root(gr(-3, 4), 2) == gr(1, 2)
    assert principal_root(gr(8), -3) == gr(Fraction(1, 2))
    assert is_exact([principal_root(gr(-3, 4), 2), principal_root(gr(8), -3)])


def test_principal_root_off_the_exact_cases():
    # -0.0 in the imaginary part still gives the principal root, arg pi/3
    y = principal_root(complex(-8, -0.0), 3)
    assert abs(cmath.phase(y) - cmath.pi / 3) < 1e-15 and abs(abs(y) - 2) < 1e-14
    # x = 2^-20000 underflows a double; its root is read off the exact log
    y = principal_root(gr(Fraction(1, 2**20000)), 19998)
    assert isinstance(y, complex) and abs(y - 2 ** (-20000 / 19998)) < 1e-15
    # here the root 10^-400/sqrt(2) underflows too
    with pytest.raises(OverflowError, match="beyond double range"):
        principal_root(gr(Fraction(1, 2 * 10**800)), 2)


def test_integer_nth_root():
    assert integer_nth_root(32, 5) == 2
    assert integer_nth_root(31, 5) is None
    assert integer_nth_root(10**30, 3) == 10**10
    for r in (2, 3, 5):
        assert integer_nth_root(0, r) == 0
        assert integer_nth_root(1, r) == 1
        assert integer_nth_root(10**40 + 1, r) is None
    assert integer_nth_root(10**40, 2) == 10**20
    assert integer_nth_root(10**40, 5) == 10**8
    assert integer_nth_root(10**40, 3) is None
    assert integer_nth_root((2**200 + 1)**2, 2) == 2**200 + 1
    assert integer_nth_root((2**200 + 1)**2 + 1, 2) is None


def test_rational_roots():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_nth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert rational_nth_root(Fraction(-4), 2) is None


def test_sqrt_exact_gaussian():
    # (1+2i)^2 = -3+4i
    assert gr(-3, 4).sqrt_exact() == gr(1, 2)
    assert gr(Fraction(9, 4)).sqrt_exact() == gr(Fraction(3, 2))
    # principal root of a negative rational is purely imaginary
    assert gr(-4).sqrt_exact() == gr(0, 2)
    assert gr(2).sqrt_exact() is None


@given(gaussians)
def test_sqrt_exact_squares(z):
    sq = (z * z).sqrt_exact()
    assert sq is not None
    assert sq * sq == z * z


def test_parse_rational():
    assert parse_rational("-37/11") == Fraction(-37, 11)
    assert parse_rational("4") == 4
    with pytest.raises(ValueError):
        parse_rational("x/y")


def test_str_forms():
    assert str(gr(Fraction(1, 2))) == "1/2"
    assert str(gr(0, 1)) == "1*i"
    assert str(gr(1, Fraction(-1, 2))) == "1-1/2*i"



# -- the integer form (a + b i)/d against a pair of Fractions -----------------


class _Pair:
    """The reference: a Gaussian rational as a (Fraction, Fraction) pair,
    with the arithmetic spelled out part by part."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return _Pair(x.re, x.im) if isinstance(x, GaussianRational) else _Pair(x)

    def __complex__(self):
        re, im = self.re, self.im
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

    def add(self, o):
        return _Pair(self.re + o.re, self.im + o.im)

    def sub(self, o):
        return _Pair(self.re - o.re, self.im - o.im)

    def mul(self, o):
        return _Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def div(self, o):
        n2 = o.re * o.re + o.im * o.im  # a Fraction division by n2 = 0 raises
        return _Pair((self.re * o.re + self.im * o.im) / n2, (self.im * o.re - self.re * o.im) / n2)

    def pow(self, n):
        out = _Pair(1)
        for _ in range(abs(n)):
            out = out.mul(self)
        return _Pair(1).div(out) if n < 0 else out

    def text(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"

    def hash(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))


def _outcome(f):
    """f(), or the type of the ZeroDivisionError or OverflowError it raises."""
    try:
        return f()
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def _same(z, ref):
    """z equals ref: exactly and in canonical form, or bit for bit as a
    complex, or both raised the same error."""
    if isinstance(ref, type):
        assert z is ref
    elif isinstance(ref, complex):
        assert isinstance(z, complex)
        assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    else:
        assert type(z) is GaussianRational
        assert type(z.a) is int and type(z.b) is int and type(z.d) is int
        assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
        assert (z.re, z.im) == (ref.re, ref.im)


# zero, small integers, small fractions, and parts with large common factors
_parts = st.one_of(st.just(0), st.integers(-5, 5), fractions,
                   st.fractions(max_denominator=2**70).map(lambda x: x * 2**60))
exact = st.builds(GaussianRational, _parts, _parts)
operands = st.one_of(exact, st.integers(-10**6, 10**6), fractions,
                     st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
_OPS = {"+": (lambda x, y: x + y, _Pair.add), "-": (lambda x, y: x - y, _Pair.sub),
        "*": (lambda x, y: x * y, _Pair.mul), "/": (lambda x, y: x / y, _Pair.div)}


def _reference(op, x, y):
    """x op y on the pairs; with a complex operand, on complex(pair)."""
    fn, pair_fn = _OPS[op]
    if isinstance(x, complex) or isinstance(y, complex):
        as_complex = lambda v: v if isinstance(v, complex) else complex(_Pair.of(v))
        return fn(as_complex(x), as_complex(y))
    return pair_fn(_Pair.of(x), _Pair.of(y))


@given(exact, operands, st.sampled_from("+-*/"), st.booleans())
def test_operators_match_the_fraction_pair(z, other, op, swap):
    x, y = (other, z) if swap else (z, other)
    _same(_outcome(lambda: _OPS[op][0](x, y)), _outcome(lambda: _reference(op, x, y)))


@given(exact, st.integers(-9, 9))
def test_unary_operations_and_powers_match_the_fraction_pair(z, n):
    ref = _Pair.of(z)
    _same(_outcome(lambda: z**n), _outcome(lambda: ref.pow(n)))
    _same(-z, _Pair(-ref.re, -ref.im))
    _same(z.conjugate(), _Pair(ref.re, -ref.im))
    assert z.norm2() == ref.re**2 + ref.im**2


@given(_parts, _parts, st.integers(1, 10**6))
def test_constructors_are_canonical(re, im, scale):
    z = gr(re, im)
    _same(z, _Pair(re, im))
    _same(GaussianRational.from_ints(z.a * scale, z.b * scale, z.d * scale), _Pair(re, im))
    _same(GaussianRational.coerce(re), _Pair(re))
    _same(gr(0.25, -1.5), _Pair(Fraction(1, 4), Fraction(-3, 2)))  # a float is exact


@given(exact, st.integers(-10**6, 10**6), fractions)
def test_text_hash_and_equality_match_the_fraction_pair(z, n, q):
    ref = _Pair.of(z)
    assert str(z) == ref.text()
    assert repr(z) == f"GaussianRational({ref.re!r}, {ref.im!r})"
    assert hash(z) == ref.hash()
    for other in (n, q, ref.re, int(ref.re)):
        assert (z == other) == (other == z) == (ref.im == 0 and ref.re == other)


_huge = st.builds(Fraction, st.integers(-2**1100, 2**1100), st.integers(1, 2**1100))


@given(st.builds(GaussianRational, st.one_of(_parts, _huge), st.one_of(_parts, _huge)))
def test_complex_rounds_each_reduced_part_once(z):
    # an overflowing part raises OverflowError in both
    _same(_outcome(lambda: complex(z)), _outcome(lambda: complex(_Pair.of(z))))


_denominators = st.builds(lambda n, m: n * m, st.integers(1, 10**6),
                          st.sampled_from([1, 1, 3, upoly.P, upoly.P**2]))


@given(st.builds(Fraction, st.integers(-10**20, 10**20), _denominators),
       st.builds(Fraction, st.integers(-10**20, 10**20), _denominators))
def test_mod_p_image_matches_the_two_inverse_formula(re, im):
    P, I = upoly.P, upoly.I_MOD_P
    if re.denominator % P == 0 or im.denominator % P == 0:
        old = None
    else:
        old = (re.numerator * pow(re.denominator, -1, P)
               + I * im.numerator * pow(im.denominator, -1, P)) % P
    assert upoly._mod_p(gr(re, im)) == old


@given(exact)
def test_log2_reads_the_reduced_parts(z):
    if z:
        ref = _Pair.of(z)
        assert upoly._log2(z) == max(x.numerator.bit_length() - x.denominator.bit_length()
                                     for x in (ref.re, ref.im) if x)
