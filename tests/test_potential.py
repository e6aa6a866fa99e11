"""Potential kinds, jets against an independent symbolic oracle, rigid
transforms, and the expression grammar."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from homopot.darboux import find_darboux_points, normalize
from homopot.parse import (_CARTESIAN, _ONE, ParseError, _Parser, parse_potential,
                           parse_trig_poly, print_potential, tokenize)
from homopot.potential import (HomoPoly, Potential, PotentialError,
                               SingularPointError, TrigPoly, euler_defect,
                               jet_at, potential_from_json, potential_to_json,
                               transform)
from homopot.scalars import GaussianRational, gr

from conftest import rand_fraction, rand_homopoly

Q1, Q2 = sympy.symbols("q1 q2")


def to_sympy(V: Potential):
    def poly_expr(p: HomoPoly):
        acc = sympy.Integer(0)
        for (i, j), v in p.terms.items():
            c = sympy.Rational(v.re.numerator, v.re.denominator) \
                + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)
            acc += c * Q1**i * Q2**j
        return acc

    if V.kind == "polynomial":
        return poly_expr(V.num)
    if V.kind == "rational":
        return poly_expr(V.num) / poly_expr(V.den)
    if V.kind == "radial":
        a = sympy.Rational(V.U.const.re.numerator, V.U.const.re.denominator)
        return a * (Q1**2 + Q2**2) ** sympy.Rational(V.degree, 2)
    raise NotImplementedError


def sympy_partial(expr, a: int, b: int, point):
    d = sympy.diff(expr, Q1, a, Q2, b)
    val = d.subs({Q1: sympy.Rational(point[0]), Q2: sympy.Rational(point[1])})
    return sympy.nsimplify(val)


def as_sympy_scalar(v):
    if isinstance(v, GaussianRational):
        return sympy.Rational(v.re.numerator, v.re.denominator) \
            + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)
    return v


# -- parsing -----------------------------------------------------------------

def test_parse_examples():
    V = parse_potential("q1^2 + q2^2")
    assert V.kind == "polynomial" and V.degree == 2
    V = parse_potential("q1^3 - 3*q1*q2^2")
    assert V.kind == "polynomial" and V.degree == 3
    with pytest.raises(ParseError, match="non-homogeneous"):
        parse_potential("q1^2 + q2")


def test_parse_radial_and_polar():
    V = parse_potential("r^-3")
    assert V.kind == "radial" and V.degree == -3 and V.U.const == gr(1)
    V = parse_potential("5*r^-3")
    assert V.kind == "radial" and V.U.const == gr(5)
    V = parse_potential("r^-3*(1 + 1/10*cos(2*theta))")
    assert V.kind == "polar" and V.U.cos[2] == gr(Fraction(1, 10))
    # a trig argument is evaluated first, then must be an integer multiple of theta
    assert parse_trig_poly("sin(4*theta/2 - theta^1)") == parse_trig_poly("sin(theta)")
    for arg in ("theta/2", "theta*theta", "theta + 1", "i*theta"):
        with pytest.raises(ParseError, match="integer multiple of theta"):
            parse_trig_poly(f"cos({arg})")


def test_parse_rational_kind():
    V = parse_potential("(q1^4 + q2^4)/(q1*q2)")
    assert V.kind == "rational" and V.degree == 2
    V = parse_potential("q1^4/q1^2")  # monomial content cancels
    assert V.kind == "polynomial" and V.degree == 2


@pytest.mark.parametrize("text, degree, terms", [
    ("(2*q1*q2)^5", 10, {(5, 5): 32}),
    ("(3*i*q1)^7*q2", 8, {(7, 1): gr(0, -2187)}),
    ("q2^3/q1^2*q1^4", 5, {(2, 3): 1}),
    ("(q1/(2*q2))^3*q2^6", 6, {(3, 3): Fraction(1, 8)}),
    ("3q1^2q2 + 1/2*q1*q2^2", 3, {(2, 1): 3, (1, 2): Fraction(1, 2)}),
])
def test_parse_powers_and_products_of_terms(text, degree, terms):
    # a power of one term scales its exponents; a unit denominator is never multiplied in
    assert parse_potential(text) == Potential.polynomial(HomoPoly(degree, terms))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_potential("q1^2 +")
    with pytest.raises(ParseError, match="position"):
        parse_potential("q1 & q2")
    with pytest.raises(ParseError):
        parse_potential("q1/(q1 - q1)")
    with pytest.raises(ParseError):
        parse_potential("r^-3 + q1")
    with pytest.raises(ParseError):
        parse_potential("cos(theta^2)*r^2")
    for parse, text in ((parse_potential, "q1^3/0"), (parse_potential, "r^-3/0"),
                        (parse_potential, "r^-3/(cos(theta)-cos(theta))"),
                        (parse_trig_poly, "1/0"),
                        (parse_potential, "q1^3 + q2^3/0^-1"),
                        (parse_potential, "q1^3 + q2^3/(q1-q1)^-2")):
        with pytest.raises(ParseError, match="^division by zero expression$"):
            parse(text)


def test_parse_errors_are_raised_where_first_met():
    # a bad trig argument is reported at its first token
    with pytest.raises(ParseError, match=r"integer multiple of theta \(at position 8\)$"):
        parse_trig_poly("1/8*cos(theta + 1)")
    # the parser evaluates as it reads: a zero division comes before a later syntax error
    with pytest.raises(ParseError, match="^division by zero expression$"):
        parse_potential("1/0 + )")


def test_implicit_multiplication():
    assert parse_potential("3q1^2q2") == parse_potential("3*q1^2*q2")


def test_parse_print_identity(rng):
    for _ in range(25):
        deg = rng.randint(1, 5)
        V = Potential.polynomial(rand_homopoly(rng, deg, gaussian=True))
        assert parse_potential(print_potential(V)) == V
    U = TrigPoly(Fraction(1, 3), cos={1: Fraction(-2, 5), 3: 1}, sin={2: Fraction(7, 2)})
    V = Potential.polar(U, -4)
    assert parse_potential(print_potential(V)) == V
    V = Potential.radial(Fraction(-3, 7), -5)
    assert parse_potential(print_potential(V)) == V
    V = parse_potential("(q1^4 + q2^4)/(q1*q2)")
    assert parse_potential(print_potential(V)) == V


def test_json_roundtrip(rng):
    for text in ("q1^3 - 3*q1*q2^2", "r^-3", "r^-3*(1 + 1/10*cos(2*theta))",
                 "(q1^4 + q2^4)/(q1*q2)", "(1+2*i)*q1^3"):
        V = parse_potential(text)
        assert potential_from_json(potential_to_json(V)) == V
    V = parse_potential("2*r^-3")
    Vn = normalize(V, find_darboux_points(V).points[0])[0]  # a float radial coefficient
    with pytest.raises(PotentialError, match="exact coefficients"):
        potential_to_json(Vn)


def test_one_num_den_per_function():
    # in lowest terms with a monic Q(1, s), a common factor L*c cancels
    # exactly and every printed or JSON form reads back to the same V
    rng = random.Random(31)

    def text(P):
        return print_potential(Potential.polynomial(P))

    for _ in range(200):
        P, Q = (rand_homopoly(rng, rng.randint(1, 5), gaussian=rng.random() < 0.5)
                for _ in range(2))
        L = rand_homopoly(rng, 1, gaussian=rng.random() < 0.5)
        c = rand_homopoly(rng, 0, gaussian=rng.random() < 0.5)
        P, Q, L, c = map(text, (P, Q, L, c))
        V = parse_potential(f"({P})/({Q})")
        assert parse_potential(f"(({P})*({L})*({c}))/(({Q})*({L})*({c}))") == V
        assert parse_potential(print_potential(V)) == V
        assert potential_from_json(potential_to_json(V)) == V
        assert V.den.line.coeffs[-1] == 1


def test_division_by_a_constant_scales_the_numerator():
    assert parse_potential("3.5/q2") == parse_potential("7/(2*q2)")
    f = _Parser(tokenize("7/5*q1^3 - 2/3*q1*q2^2"), _CARTESIAN).parse()
    assert f.den is _ONE


def test_json_form_is_exact_only():
    # a float rotation has no JSON form, as it has no canonical text
    t = 0.3
    Vr = transform(parse_potential("q1^3 - 3*q1*q2^2"),
                   ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t))), 1)
    assert not Vr.exact
    for form in (potential_to_json, print_potential):
        with pytest.raises(PotentialError, match="exact coefficients"):
            form(Vr)
    # a float coefficient cannot be read back either
    obj = {"kind": "polynomial", "degree": 1,
           "terms": {"1,0": {"re_float": 0.5, "im_float": 0.0}}}
    with pytest.raises(PotentialError, match="malformed potential object"):
        potential_from_json(obj)


@pytest.mark.parametrize("text, kind", [
    ("q1^3 - 3*q1*q2^2", "polynomial"),
    ("(q1^4 + q2^4)/(q1*q2)", "rational"),
    ("5*r^-3", "radial"),
    ("r^-3*(1 + 1/10*cos(2*theta))", "polar"),
])
def test_two_shapes_four_kinds(text, kind):
    # num/den or r^k U(theta) is stored; the kind name is read off that data
    V = parse_potential(text)
    assert V.kind == kind
    assert potential_from_json(potential_to_json(V)) == V
    t = 0.3
    Vr = transform(V, ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t))), 2)
    assert Vr.kind == kind
    if V.U is not None:  # w^0 = 1: the rotation leaves the constant term exact
        assert Vr.U.const == 2 * V.U.const and isinstance(Vr.U.const, GaussianRational)


def test_kind_canonicalisation():
    P = HomoPoly(3, {(3, 0): gr(1), (0, 3): gr(2)})
    assert Potential.rational(P, HomoPoly(0, {(0, 0): gr(1)})).kind == "polynomial"
    assert Potential.rational(P, HomoPoly(0, {(0, 0): gr(1)})) == Potential.polynomial(P)
    assert Potential.polar(TrigPoly(5), -3).kind == "radial"
    assert Potential.polar(TrigPoly(5), -3) == Potential.radial(5, -3)
    with pytest.raises(PotentialError, match="zero angular part"):
        Potential.polar(TrigPoly(0), -3)


# -- jets ----------------------------------------------------------------------

def test_trig_poly_matches_the_cos_sin_form():
    """Each TrigPoly operation, and the parser's product of two U, against
    the float cos/sin form of its inputs."""
    rng = random.Random(20261018)

    def rand_coef():
        im = rand_fraction(rng) if rng.random() < 0.2 else 0
        return GaussianRational(rand_fraction(rng), im)

    def rand_parts():
        cos = {m: rand_coef() for m in range(1, 5) if rng.random() < 0.5}
        sin = {m: rand_coef() for m in range(1, 5) if rng.random() < 0.5}
        sin[rng.randint(1, 4)] = GaussianRational(rng.choice((-3, -1, 1, 2)))  # sin*sin
        return rand_coef(), cos, sin

    def value(parts, th, order=0):
        """d^order/dth^order of const + sum a_m cos(m th) + b_m sin(m th)."""
        const, cos, sin = parts
        acc = complex(const) if order == 0 else 0j
        for m, a in cos.items():
            acc += complex(a) * m**order * math.cos(m * th + order * math.pi / 2)
        for m, b in sin.items():
            acc += complex(b) * m**order * math.sin(m * th + order * math.pi / 2)
        return acc

    def real_parts(parts):
        const, cos, sin = parts
        re = lambda d: {m: GaussianRational(v.re) for m, v in d.items()}
        return GaussianRational(const.re), re(cos), re(sin)

    def text(parts):
        const, cos, sin = parts
        return " + ".join([f"({const.re})"] + [f"({v.re})*{name}({m}*theta)"
                                               for name, table in (("cos", cos), ("sin", sin))
                                               for m, v in table.items()])

    delta = math.atan2(4, 3)
    for _ in range(40):
        pu, pv = rand_parts(), rand_parts()
        U = TrigPoly(*pu)
        ru, rv = real_parts(pu), real_parts(pv)
        product = parse_trig_poly(f"({text(ru)})*({text(rv)})")
        const, cos, sin = pu
        nonzero = lambda d: {m: v for m, v in d.items() if not v.is_zero()}
        assert (U.const, U.cos, U.sin) == (const, nonzero(cos), nonzero(sin))
        assert U.is_real() == all(v.is_real() for v in [const, *cos.values(), *sin.values()])
        M = U.max_frequency()
        assert U.z_poly().degree <= 2 * M
        for th in (0.0, 0.3, 1.1, 2.5, -0.7, 4.0):
            z = complex(math.cos(th), math.sin(th))
            checks = [
                (product.evaluate(th), value(ru, th) * value(rv, th)),
                (U.derivative().evaluate(th), value(pu, th, order=1)),
                (U.shift(Fraction(3, 5), Fraction(4, 5)).evaluate(th), value(pu, th + delta)),
                (U.flip().evaluate(th), value(pu, -th)),
                (U.z_poly()(z) / z**M, value(pu, th)),
            ]
            for got, want in checks:
                assert abs(complex(got) - want) < 1e-12 * max(1.0, abs(want)), (th, got, want)


def test_jet_cubic_axis():
    V = parse_potential("q1^3")
    j = jet_at(V, (1, 0), 2)
    assert j.value == gr(1)
    assert j.d[0][0] == gr(3)
    assert j.d[1][0] == gr(6)
    assert j.d[1][1] == gr(0)
    assert j.d[1][2] == gr(0)


def test_jet_radial_closed_form():
    # derivatives of a (q1^2+q2^2)^{k/2}: grad = a k r^{k-2} q,
    # hess = a k r^{k-2} I + a k(k-2) r^{k-4} q q^T
    V = parse_potential("r^-3")
    j = jet_at(V, (1, 0), 1)
    assert j.d[0][0] == gr(-3)
    assert j.d[1][0] == gr(12)
    assert j.d[1][2] == gr(-3)  # equals k, the multiple-point eigenvalue
    a, k = 2.0, -3
    j2 = jet_at(parse_potential("2*r^-3"), (0.6, 0.8), 1)
    r2 = 1.0
    g_expect = a * k * (0.6, 0.8)[0]
    assert abs(complex(j2.d[0][0]) - g_expect) < 1e-12
    h11 = a * k + a * k * (k - 2) * 0.36
    assert abs(complex(j2.d[1][0]) - h11) < 1e-12


def test_jet_mixed_gradient():
    j = jet_at(parse_potential("q1^2*q2"), (1, 1), 0)
    assert j.d[0][0] == gr(2) and j.d[0][1] == gr(1)


@pytest.mark.parametrize("text,point", [
    ("q1^3 - 3*q1*q2^2", (2, 3)),
    ("(1+2*i)*q1^4 + q2^4 - q1^2*q2^2", (1, 2)),
    ("(q1^5 + q2^5)/(q1*q2)", (2, 1)),
    ("q1^4/(q1^2 + q2^2)", (1, 1)),
])
def test_jets_match_sympy(text, point):
    V = parse_potential(text)
    expr = to_sympy(V)
    j = jet_at(V, point, 3)
    for i in range(4):
        for jj in range(i + 2):
            a, b = i + 1 - jj, jj
            expect = sympy_partial(expr, a, b, point)
            got = as_sympy_scalar(j.d[i][jj])
            assert sympy.simplify(got - expect) == 0, (i, jj)


def test_radial_jet_matches_sympy():
    V = parse_potential("r^-3")
    expr = to_sympy(V)
    j = jet_at(V, (2, 0), 2)   # r^2 = 4, exact square root available
    for i in range(3):
        for jj in range(i + 2):
            a, b = i + 1 - jj, jj
            expect = sympy_partial(expr, a, b, (2, 0))
            got = as_sympy_scalar(j.d[i][jj])
            assert sympy.simplify(got - expect) == 0


def test_polar_jet_matches_finite_differences():
    V = parse_potential("r^-3*(1 + 1/10*cos(2*theta))")

    def direct(x, y):
        r = math.hypot(x, y)
        th = math.atan2(y, x)
        return r**-3 * (1 + math.cos(2 * th) / 10)

    x0, y0 = 1.1, 0.7
    j = jet_at(V, (x0, y0), 1)
    h = 1e-5
    fd1 = (direct(x0 + h, y0) - direct(x0 - h, y0)) / (2 * h)
    fd2 = (direct(x0, y0 + h) - direct(x0, y0 - h)) / (2 * h)
    assert abs(complex(j.d[0][0]) - fd1) < 1e-8
    assert abs(complex(j.d[0][1]) - fd2) < 1e-8
    fd11 = (direct(x0 + h, y0) - 2 * direct(x0, y0) + direct(x0 - h, y0)) / h**2
    assert abs(complex(j.d[1][0]) - fd11) < 1e-5


def test_jet_singularities():
    with pytest.raises(SingularPointError):
        jet_at(parse_potential("q1^3/q2"), (1, 0), 1)
    with pytest.raises(SingularPointError):
        jet_at(parse_potential("r^-3"), (1, gr(0, 1)), 1)  # isotropic point
    for text in ("q1^3", "r^-3"):
        with pytest.raises(PotentialError, match="order L must be >= -1"):
            jet_at(parse_potential(text), (1, 0), -3)


@pytest.mark.parametrize("text, point", [
    # r^2 = 2*10^400 is exact but beyond double range, and r^-3 underflows
    ("r^-3", (10**200, 10**200)),
    ("r^-3*(1+1/10*cos(2*theta))", (10**200, 10**200)),
    # a float point whose jet overflows
    ("q1^3", (1e200, 0.5)),
])
def test_jet_beyond_double_range_is_an_error(text, point):
    with pytest.raises(PotentialError, match="beyond double range"):
        jet_at(parse_potential(text), point, 1)


def test_euler_recurrence_at_normalized_point():
    # at a normalized Darboux point (1,0): d[i][j] = (k - i) d[i-1][j] for j <= i
    for text in ("q1^3 - 1/2*q1*q2^2 + q2^3", "r^-3"):
        V = parse_potential(text)
        k = V.degree
        j = jet_at(V, (1, 0), 4)
        for i in range(1, 5):
            for jj in range(i + 1):
                assert j.d[i][jj] == j.d[i - 1][jj] * (k - i), (text, i, jj)


# -- Euler identity -------------------------------------------------------------

def test_euler_defect_exact_zero(rng):
    for _ in range(100):
        deg = rng.randint(1, 6)
        V = Potential.polynomial(rand_homopoly(rng, deg, gaussian=rng.random() < 0.3))
        q = (rand_fraction(rng), rand_fraction(rng))
        assert euler_defect(V, q) == gr(0)


def test_euler_defect_rational_kind(rng):
    for _ in range(100):
        num = rand_homopoly(rng, rng.randint(2, 5))
        den = rand_homopoly(rng, rng.randint(1, 2))
        V = Potential.rational(num, den)
        q = (rand_fraction(rng, 5, 3) + 11, rand_fraction(rng, 5, 3) + 7)
        try:
            d = euler_defect(V, q)
        except SingularPointError:
            continue
        assert d == gr(0)


def test_euler_defect_float_kinds(rng):
    for _ in range(100):
        V = parse_potential("r^-3*(1 + 1/10*cos(2*theta))")
        x, y = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        assert abs(complex(euler_defect(V, (x, y)))) < 1e-12
    assert euler_defect(parse_potential("r^-3"), (3, 4)) == gr(0)


def test_euler_example():
    V = parse_potential("q1^3 - 3*q1*q2^2")
    assert euler_defect(V, (2, 1)) == gr(0)
    # on the zero set of V the identity still holds
    assert V(1, gr(Fraction(1, 3)) * 0 + gr(1) * 0 + gr(1)) is not None
    assert euler_defect(V, (gr(1), gr(0, 1))) == gr(0)


# -- transforms -----------------------------------------------------------------

ROT90 = ((0, -1), (1, 0))
PYTH = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


def test_transform_examples():
    assert transform(parse_potential("q1^2"), ROT90, 1).text() == "q2^2"
    assert transform(parse_potential("r^-3"), ROT90, 1).text() == "r^-3"
    assert transform(parse_potential("q1^3"), ((1, 0), (0, 1)),
                     Fraction(1, 8)).text() == "1/8*q1^3"


def test_transform_requires_orthogonal():
    with pytest.raises(PotentialError, match="orthogonal"):
        transform(parse_potential("q1^2"), ((1, 1), (0, 1)), 1)


def test_transform_composition(rng):
    R1, R2 = PYTH, ROT90
    R12 = tuple(tuple(sum(R1[i][t] * R2[t][j] for t in range(2)) for j in range(2))
                for i in range(2))
    for _ in range(10):
        V = Potential.polynomial(rand_homopoly(rng, rng.randint(1, 4)))
        lhs = transform(transform(V, R2, Fraction(2)), R1, Fraction(3, 2))
        rhs = transform(V, R12, Fraction(3))
        q = (rand_fraction(rng), rand_fraction(rng))
        assert lhs(*q) == rhs(*q)


def test_transform_polar_rotation():
    # a rotation (det 1: `shift`) and a reflection (det -1: `shift`, then
    # `flip`), the latter on a U that is not even in theta
    reflection = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(-3, 5)))
    for text, R in (("r^-3*(1 + 1/10*cos(2*theta))", PYTH),
                    ("r^-3*(1 + 1/10*cos(2*theta) + 1/5*sin(theta))", reflection)):
        V = parse_potential(text)
        Vt = transform(V, R, 1)
        # pointwise: Vt(q) = V(R q)
        x, y = 0.9, 0.4
        Rx = float(R[0][0]) * x + float(R[0][1]) * y
        Ry = float(R[1][0]) * x + float(R[1][1]) * y
        assert abs(complex(Vt(x, y)) - complex(V(Rx, Ry))) < 1e-12


def test_degree_zero_denominator_guard():
    with pytest.raises(PotentialError):
        Potential.rational(HomoPoly(2, {(2, 0): gr(1)}), HomoPoly(1, {}))
