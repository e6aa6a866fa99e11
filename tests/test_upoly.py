"""Roots of Q(i) polynomials: exact multiplicities from the square-free
decomposition, exact roots wherever they lie in Q(i), floats elsewhere."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from homopot.scalars import GaussianRational, gr
from homopot.upoly import (P, UPoly, _exact_candidate, _mod_p, _yun, coprime_mod_p, roots,
                          square_free_factors)


def s_minus(g) -> UPoly:
    return UPoly([-g, gr(1)])


def power(p: UPoly, n: int) -> UPoly:
    out = UPoly([gr(1)])
    for _ in range(n):
        out = out * p
    return out


def float_roots(rs):
    return sorted((r for r in rs if not r.exact), key=lambda r: (complex(r.value).real,
                                                                 complex(r.value).imag))


def test_irrational_double_roots_and_exact_triple():
    # (s^2 - 2)^2 (3s - 1)^3
    p = power(UPoly([gr(-2), gr(0), gr(1)]), 2) * power(UPoly([gr(-1), gr(3)]), 3)
    rs = roots(p)
    assert len(rs) == 3
    exact = [r for r in rs if r.exact]
    assert [(r.value, r.multiplicity) for r in exact] == [(gr(Fraction(1, 3)), 3)]
    lo, hi = float_roots(rs)
    assert abs(complex(lo.value) + math.sqrt(2)) < 1e-12 and lo.multiplicity == 2
    assert abs(complex(hi.value) - math.sqrt(2)) < 1e-12 and hi.multiplicity == 2


def test_complex_triple_roots_are_not_split():
    rs = roots(power(UPoly([gr(1), gr(1), gr(1)]), 3))  # (s^2 + s + 1)^3
    assert len(rs) == 2
    for r in rs:
        assert not r.exact and r.multiplicity == 3
        z = complex(r.value)
        assert abs(z * z + z + 1) < 1e-12


def test_off_axis_gaussian_root_is_exact():
    g = gr(Fraction(1, 2), Fraction(1, 2))
    p = power(s_minus(g), 2) * UPoly([gr(-3), gr(0), gr(1)])  # (s - (1+i)/2)^2 (s^2 - 3)
    rs = roots(p)
    assert [(r.value, r.multiplicity) for r in rs if r.exact] == [(g, 2)]
    assert [r.multiplicity for r in float_roots(rs)] == [1, 1]
    assert all(abs(abs(complex(r.value)) - math.sqrt(3)) < 1e-12 for r in float_roots(rs))


def test_large_rational_root_beside_a_fourfold_pair():
    # (7s - 10^6)(s^2 - 5)^4
    p = UPoly([gr(-10**6), gr(7)]) * power(UPoly([gr(-5), gr(0), gr(1)]), 4)
    rs = roots(p)
    assert [(r.value, r.multiplicity) for r in rs if r.exact] == [(gr(Fraction(10**6, 7)), 1)]
    lo, hi = float_roots(rs)
    assert lo.multiplicity == hi.multiplicity == 4
    assert abs(complex(hi.value) - math.sqrt(5)) < 1e-12
    assert abs(complex(lo.value) + math.sqrt(5)) < 1e-12


def test_constant_has_no_roots():
    assert roots(UPoly([gr(3)])) == []


def test_real_roots_of_a_real_factor_are_real():
    # (s^2 - 2)(s^2 + 1), and (s^2 - 2)(3s^2 + 1)(3s^2 - 7s + 1) with two
    # non-real roots that are floats: no rounding residue on the real ones
    p = UPoly([gr(-2), gr(0), gr(1)]) * UPoly([gr(1), gr(0), gr(1)])
    rs = roots(p)
    assert sorted(r.value.im for r in rs if r.exact) == [-1, 1]
    assert [r.value.imag for r in float_roots(rs)] == [0.0, 0.0]
    rs = roots(UPoly([gr(-2), gr(0), gr(1)]) * UPoly([gr(1), gr(0), gr(3)])
               * UPoly([gr(1), gr(-7), gr(3)]))
    imags = sorted(abs(r.value.imag) for r in rs)
    assert imags[:4] == [0.0] * 4 and all(abs(y - 3 ** -0.5) < 1e-12 for y in imags[4:])


def test_imaginary_roots_of_a_real_factor_are_imaginary():
    # (s^2 + 2)(s - 1) and (s^2 + 2)(s^3 - s - 7): +-sqrt(2) i carry no real
    # rounding residue, and the complex pair of s^3 - s - 7 keeps its real part
    for other in (UPoly([gr(-1), gr(1)]), UPoly([gr(-7), gr(-1), gr(0), gr(1)])):
        zs = [complex(r.value) for r in roots(UPoly([gr(2), gr(0), gr(1)]) * other)]
        axis = [z for z in zs if abs(abs(z) - math.sqrt(2)) < 1e-12]
        assert len(axis) == 2 and abs(axis[0] + axis[1]) < 1e-12
        assert [z.real for z in axis] == [0.0, 0.0]
    pair = [z for z in zs if z.imag and z not in axis]
    assert len(pair) == 2 and all(abs(z.real + 1.0433726699413) < 1e-12 for z in pair)


def test_coefficients_beyond_double_precision():
    # Aberth runs on a rescaled copy: no overflow to inf or nan
    for e in (200, 400):
        rs = roots(UPoly([gr(10**e), gr(0), gr(1)]))     # s^2 + 10^e
        assert [r.exact for r in rs] == [False, False]
        for r, sign in zip(rs, (-1, 1)):
            assert abs(r.value - complex(0, sign * 10.0**(e // 2))) < 1e-12 * 10.0**(e // 2)
    rs = roots(UPoly([gr(-1), gr(3), gr(2 - 3 * 10**400)]))  # roots near +-i 10^-200 / sqrt 3
    assert all(abs(abs(complex(r.value)) * 10**200 - 3 ** -0.5) < 1e-12 for r in rs)


small = st.fractions(min_value=-9, max_value=9, max_denominator=5)
gaussian_roots = st.builds(gr, small, small)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(gaussian_roots, st.integers(1, 3)), min_size=1, max_size=4))
def test_product_of_linear_factors(factors):
    p = UPoly([gr(1)])
    expected = Counter()
    for r, m in factors:
        p = p * power(s_minus(r), m)
        expected[r] += m
    rs = roots(p)
    assert all(r.exact for r in rs)
    assert Counter({r.value: r.multiplicity for r in rs}) == expected
    assert len(rs) == len(expected)


S = UPoly([gr(0), gr(1)])
linear_factors = st.builds(s_minus, gaussian_roots)
quadratic_factors = st.builds(lambda b, c: UPoly([c, b, gr(1)]), gaussian_roots, gaussian_roots)


def square_free_coprime(fs):
    return (all(f.gcd(f.derivative()).degree == 0 for f in fs)
            and all(f.gcd(g).degree == 0 for f, g in combinations(fs, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(linear_factors | quadratic_factors, st.integers(1, 4)),
                min_size=1, max_size=4),
       st.integers(0, 4), gaussian_roots)
def test_square_free_factors_recover_planted_multiplicities(factors, v, lc):
    # pairwise coprime square-free Q(i) factors with planted multiplicities,
    # and s^v: the certificate, Yun and the split-off root 0 must agree
    factors = factors + [(S, v)] if v else factors
    assume(not lc.is_zero() and square_free_coprime([f for f, _ in factors]))
    p, planted = UPoly([lc]), {}
    for f, m in factors:
        p = p * power(f, m)
        planted[m] = planted.get(m, UPoly([gr(1)])) * f
    got = square_free_factors(p)
    assert [m for _, m in got] == sorted(planted)
    assert all(f.coeffs == planted[m].monic().coeffs for f, m in got)
    product = UPoly([gr(1)])
    for f, m in got:
        product = product * power(f, m)
    assert product.coeffs == p.monic().coeffs


def test_certified_gaussian_square_free():
    # (s - (1 + 2i)) (s^2 + i s - 3/7): square-free over Q(i), certified mod P
    w = s_minus(gr(1, 2)) * UPoly([gr(Fraction(-3, 7)), gr(0, 1), gr(1)])
    assert coprime_mod_p(w, w.derivative())
    assert _yun(w)[0][0].coeffs == w.monic().coeffs
    assert [(f.coeffs, m) for f, m in square_free_factors(w)] == [(w.monic().coeffs, 1)]
    w2 = w * s_minus(gr(1, 2))
    assert not coprime_mod_p(w2, w2.derivative())


def test_coprime_mod_p_of_two_polynomials():
    # q0 = 9s^2 + 4s + 5 divides both; s^2 - 2s - 1 and q0 share no root
    q0, w = UPoly([gr(5), gr(4), gr(9)]), UPoly([gr(-1), gr(-2), gr(1)])
    assert coprime_mod_p(w, q0) and coprime_mod_p(q0, w)
    assert not coprime_mod_p(w * q0, power(q0, 3))
    assert coprime_mod_p(w * s_minus(gr(0, 1)), q0 * s_minus(gr(0, -1)))
    assert not coprime_mod_p(w, UPoly([]))  # every polynomial divides 0
    # no image mod P, or one of lower degree: no certificate either way
    assert not coprime_mod_p(s_minus(gr(Fraction(1, P))), q0)
    assert not coprime_mod_p(q0, UPoly([gr(1), gr(P)]))


def test_prime_in_a_denominator_or_the_lead_skips_the_certificate():
    # (s - 1/P)^2 (s + 1) has no image mod P; (P s - 1)^2 (s + 1) has one of
    # lower degree, s + 1, which is square-free: Yun answers for both
    for f in (s_minus(gr(Fraction(1, P))), UPoly([gr(-1), gr(P)])):
        w = power(f, 2) * s_minus(gr(-1))
        assert not coprime_mod_p(w, w.derivative())
        assert [(g.coeffs, m) for g, m in square_free_factors(w)] == [
            (s_minus(gr(-1)).coeffs, 1), (f.monic().coeffs, 2)]


def test_continued_fraction_candidate_where_rounding_misses():
    # lead*|z - 4/3| is about 4, so round(lead*z)/lead is not 4/3; 3 | lead
    f, lead = s_minus(gr(Fraction(4, 3))), 217816408260000
    z = complex(1.333333333333352)
    assert round(lead * Fraction(z.real)) != lead * Fraction(4, 3)
    f_mod_p = [_mod_p(c) for c in f.coeffs]
    assert _exact_candidate(f, lead, f_mod_p, z) == gr(Fraction(4, 3))
    assert _exact_candidate(f, lead, None, z) == gr(Fraction(4, 3))
    # 3 does not divide 2^40, so no convergent is 4/3: the root stays a float
    assert _exact_candidate(f, 2**40, None, z) is None



def test_float_evaluation_keeps_its_bits_and_exact_evaluation_stays_exact():
    p = UPoly([gr(Fraction(1, 7), 3), gr(Fraction(-2, 3)), gr(5, 1)])
    x = complex(0.3, -1.7)
    expected = 0j
    for c in reversed(p.coeffs):
        expected = expected * x + complex(c)
    # Horner in the complex coefficients, taken once and kept
    assert repr(p(x)) == repr(expected) and repr(p(x)) == repr(expected)
    half = p(gr(Fraction(1, 2)))
    assert isinstance(half, GaussianRational)
    assert half == gr(Fraction(1, 7) - Fraction(1, 3) + Fraction(5, 4), 3 + Fraction(1, 4))
