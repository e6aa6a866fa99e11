from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homopot.scalars import (GaussianRational, gr, integer_nth_root, is_exact,
                             parse_rational, rational_nth_root, rational_sqrt, scalar)

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
