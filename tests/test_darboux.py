"""Darboux point location, the three equivalent multiplicity tests, and
normalization."""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import homopot.darboux as darboux_module
import homopot.potential as potential_module
from homopot.darboux import (DarbouxError, classify, direction_polynomial,
                             find_darboux_points, normalize)
from homopot.parse import parse_potential
from homopot.polar import PolarError
from homopot.potential import (HomoPoly, Potential, PotentialError, jet_at,
                               potential_from_json, transform)
from homopot.morales import eigenvalue_verdict
from homopot.report import NON_INTEGRABLE, RADIAL_CANDIDATE, analyze
from homopot.scalars import GaussianRational, gr
from homopot.upoly import UPoly, roots

from conftest import planted_potential


def test_direction_polynomial_examples():
    W = direction_polynomial(parse_potential("q1^3"))
    assert W.coeffs == [gr(0), gr(3)]          # W(s) = 3s
    W = direction_polynomial(parse_potential("q1^2*q2"))
    assert W.coeffs == [gr(-1), gr(0), gr(2)]  # W(s) = 2s^2 - 1
    with pytest.raises(DarbouxError):
        direction_polynomial(parse_potential("q1^2 + q2^2"))  # k = 2 excluded


def test_find_points_cubic_axis():
    ds = find_darboux_points(parse_potential("q1^3"))
    assert not ds.continuum
    assert len(ds.points) == 1
    p = ds.points[0]
    assert p.c == (gr(1), gr(0))
    assert p.spectrum == (gr(6), gr(0))
    assert not p.multiple and p.exact
    # det(hess - 3I) = -9 != 0 on the axis point
    assert len(ds.degenerate_directions) == 1  # the q2 axis has grad V = 0


def test_find_points_radial():
    ds = find_darboux_points(parse_potential("r^-3"))
    assert ds.continuum
    p = ds.points[0]
    assert p.c == (gr(1), gr(0))
    assert p.spectrum == (gr(12), gr(-3))
    assert p.multiple and p.exact


def test_find_points_q1sq_q2():
    ds = find_darboux_points(parse_potential("q1^2*q2"))
    assert len(ds.points) == 2
    import math
    expected = 3 / math.sqrt(2)
    cs = sorted(abs(complex(p.c[0])) for p in ds.points)
    assert all(abs(c - expected) < 1e-9 for c in cs)
    for p in ds.points:
        assert abs(complex(p.c[1]) - 1.5) < 1e-9
        assert abs(complex(p.spectrum[1]) - (-3)) < 1e-9
        assert not p.multiple
        assert p.residual < 1e-10


def test_classify_requires_darboux_point():
    with pytest.raises(DarbouxError):
        classify(parse_potential("q1^3"), (gr(2), gr(0)))


def test_classify_isotropic():
    # V = (q1 + i q2)(q1 - i q2)^2 has the isotropic Darboux point (3/4, 3i/4)
    V = parse_potential("(q1 + i*q2)*(q1 - i*q2)^2")
    p = classify(V, (gr(Fraction(3, 4)), gr(0, Fraction(3, 4))))
    assert p.isotropic
    assert p.spectrum == (gr(6), gr(6))   # {k(k-1), k(k-1)}
    assert not p.multiple
    assert p.lambda_cap == 6
    ds = find_darboux_points(V)
    assert any(q.isotropic for q in ds.points)


def test_lambda_cap_nonreal_is_minus_inf(rng):
    # complex coefficients can give a non-real normal eigenvalue
    V = parse_potential("q1^3 + (1+2*i)*q1*q2^2")
    p = classify(V, (gr(1), gr(0)))
    assert p.spectrum[1] == gr(2, 4)
    assert p.lambda_cap == float("-inf")


def test_euler_identity_on_hessian(rng):
    # hess V(c) c = k(k-1) c at any Darboux point
    for _ in range(12):
        V = planted_potential(rng, rng.choice([3, 4, 5]), multiple=rng.random() < 0.5)
        jet = jet_at(V, (1, 0), 1)
        (h11, h12), (_, h22) = jet.hessian()
        k = V.degree
        assert h11 == gr(k * (k - 1))
        assert h12 == gr(0)


def test_euler_identity_off_axis_points():
    # same identity at points away from the normalized position
    for text in ("q1^2*q2", "q1^4/q2", "q1^3 - 3*q1*q2^2"):
        V = parse_potential(text)
        k = V.degree
        for p in find_darboux_points(V).points:
            jet = jet_at(V, p.c, 1)
            (h11, h12), (_, h22) = jet.hessian()
            c1, c2 = complex(p.c[0]), complex(p.c[1])
            lhs1 = complex(h11) * c1 + complex(h12) * c2
            lhs2 = complex(h12) * c1 + complex(h22) * c2
            assert abs(lhs1 - k * (k - 1) * c1) < 1e-9, text
            assert abs(lhs2 - k * (k - 1) * c2) < 1e-9, text


def test_three_multiplicity_tests_agree(rng):
    # lambda = k  <=>  det(hess - kI) = 0  <=>  rank(hess - kI) < 2, exactly
    for _ in range(30):
        k = rng.choice([3, 4, 5, 6])
        V = planted_potential(rng, k, multiple=rng.random() < 0.5)
        p = classify(V, (gr(1), gr(0)))
        jet = jet_at(V, (1, 0), 1)
        (h11, h12), (_, h22) = jet.hessian()
        a11, a12, a22 = h11 - gr(k), h12, h22 - gr(k)
        det = a11 * a22 - a12 * a12
        rank = exact_rank_2x2(a11, a12, a12, a22)
        lam_test = p.spectrum[1] == gr(k)
        assert (det.is_zero()) == lam_test == (rank < 2)
        assert p.multiple == lam_test


def exact_rank_2x2(a, b, c, d):
    rows = [(a, b), (c, d)]
    rank = 0
    # gaussian elimination over Q(i)
    if not rows[0][0].is_zero() or not rows[0][1].is_zero():
        rank += 1
        pivot = rows[0]
        if not pivot[0].is_zero():
            f = rows[1][0] / pivot[0]
            red = (rows[1][0] - f * pivot[0], rows[1][1] - f * pivot[1])
        else:
            f = rows[1][1] / pivot[1]
            red = (rows[1][0] - f * pivot[0], rows[1][1] - f * pivot[1])
        if not red[0].is_zero() or not red[1].is_zero():
            rank += 1
    elif not rows[1][0].is_zero() or not rows[1][1].is_zero():
        rank = 1
    return rank


def _pythagorean_rotation(m: int, n: int):
    h = Fraction(m * m + n * n)
    a = Fraction(m * m - n * n) / h
    c = Fraction(2 * m * n) / h
    return ((a, -c), (c, a))


def _complex_rotation(t: Fraction):
    # cos d = (t^2+1)/(2t), sin d = i (t^2-1)/(2t): exact complex orthogonal
    a = gr((t * t + 1) / (2 * t))
    c = gr(0, (t * t - 1) / (2 * t))
    return ((a, -c), (c, a))


def test_rotation_equivariance(rng):
    # Darboux points of V(R q) are R^T images of those of V
    rotations = [_pythagorean_rotation(2, 1), _pythagorean_rotation(3, 2),
                 _pythagorean_rotation(4, 1), _complex_rotation(Fraction(2))]
    for R in rotations:
        Rc = [[complex(e) for e in row] for row in R]
        for text in ("q1^3", "q1^2*q2", "q1^3 - 3*q1*q2^2"):
            V = parse_potential(text)
            Vr = transform(V, R, 1)
            pts = find_darboux_points(V).points
            pts_r = find_darboux_points(Vr).points
            assert len(pts) == len(pts_r)
            # R^T c for each original point must appear among the transformed
            images = []
            for p in pts:
                c1, c2 = complex(p.c[0]), complex(p.c[1])
                images.append((Rc[0][0] * c1 + Rc[1][0] * c2,
                               Rc[0][1] * c1 + Rc[1][1] * c2))
            for img in images:
                assert any(abs(img[0] - complex(q.c[0])) < 1e-8
                           and abs(img[1] - complex(q.c[1])) < 1e-8
                           for q in pts_r), (img, text)


def test_radial_circle_points_multiple(rng):
    V = parse_potential("r^-3")
    for c in [(gr(1), gr(0)), (gr(Fraction(3, 5)), gr(Fraction(4, 5))),
              (gr(Fraction(-5, 13)), gr(Fraction(12, 13)))]:
        p = classify(V, c)
        assert p.multiple
        assert p.spectrum[1] == gr(-3)


def test_normalize_swap():
    Vn, c = normalize(parse_potential("q2^3"), (0, 1))
    assert Vn.text() == "q1^3"
    assert c == (gr(1), gr(0))


def test_normalize_scaling():
    # the Darboux point of 8 q1^3 is (1/8, 0); after normalization V' = q1^3
    V = parse_potential("8*q1^3")
    ds = find_darboux_points(V)
    assert ds.points[0].c == (gr(Fraction(1, 8)), gr(0))
    Vn, c = normalize(V, ds.points[0])
    assert Vn.text() == "q1^3"


def test_normalize_jet_shape(rng):
    # jet of the normalized potential: (1, k, k(k-1), 0, lambda)
    for _ in range(8):
        V = planted_potential(rng, rng.choice([3, 4]), multiple=False)
        ds = find_darboux_points(V)
        src = next(p for p in ds.points if p.exact and not p.isotropic)
        Vn, c = normalize(V, src)
        j = jet_at(Vn, c, 2)
        k = V.degree
        assert j.value == gr(1)
        assert j.d[0][0] == gr(k)
        assert j.d[0][1] == gr(0)
        assert j.d[1][0] == gr(k * (k - 1))
        assert j.d[1][1] == gr(0)
        assert j.d[1][2] == src.spectrum[1]


@pytest.mark.parametrize("text", [
    "q1^3 - 2*q1^2*q2 + 2*q1*q2^2 - 9*q2^3",
    "(q1^3 + 2*q2^3)/(q1*q2)",
    "2*r^-3",
    "3*r^4",
    "r^-3*(1 + 1/10*cos(2*theta))",
    "r^-3*(1 + 1/10*cos(3*theta) + 1/20*sin(2*theta))",
])
def test_normalize_jet_shape_at_float_points(text):
    # every point of these inputs has an irrational c, so the rotation and
    # the scale are complex, and so is the normalized potential
    V = parse_potential(text)
    k = V.degree
    points = find_darboux_points(V).points
    assert points and not any(p.exact or p.isotropic for p in points)
    for p in points:
        Vn, c = normalize(V, p)
        j = jet_at(Vn, c, 2)
        want = (1, k, 0, k * (k - 1), 0, complex(p.spectrum[1]))
        got = (j.value, j.d[0][0], j.d[0][1], j.d[1][0], j.d[1][1], j.d[1][2])
        for g, w in zip(got, want):
            assert abs(complex(g) - w) <= 1e-9 * max(1, abs(w)), (text, p.c, got)
        with pytest.raises(PotentialError, match="exact"):
            Vn.text()


def test_normalize_rejects_isotropic():
    V = parse_potential("(q1 + i*q2)*(q1 - i*q2)^2")
    with pytest.raises(PotentialError, match="isotropic"):
        normalize(V, (gr(Fraction(3, 4)), gr(0, Fraction(3, 4))))


def test_disguised_radial_polynomial():
    ds = find_darboux_points(parse_potential("(q1^2 + q2^2)^2"))
    assert ds.continuum
    assert ds.points[0].multiple
    assert ds.points[0].spectrum == (gr(12), gr(4))


def test_rational_kind_points():
    # V = q1^4/q2, direction roots s = +-i/2 are exact Gaussian rationals
    ds = find_darboux_points(parse_potential("q1^4/q2"))
    assert len(ds.points) == 2
    assert all(p.exact for p in ds.points)
    for p in ds.points:
        g1, g2 = jet_at(parse_potential("q1^4/q2"), p.c, 0).gradient()
        assert g1 == p.c[0] * 3 and g2 == p.c[1] * 3


def test_sorted_deterministic(rng):
    V = parse_potential("q1^3 - 3*q1*q2^2")
    a = [tuple(map(complex, p.c)) for p in find_darboux_points(V).points]
    b = [tuple(map(complex, p.c)) for p in find_darboux_points(V).points]
    assert a == b


def test_irrational_double_direction_is_one_point():
    # W has the factor (s^2 - 2)^2: (1, +-sqrt 2) are double directions
    text = "4*q1^5 + 20*q1^4*q2 + 20*q1^2*q2^3 + 5*q1*q2^4 + 9*q2^5"
    ds = find_darboux_points(parse_potential(text))
    assert len(ds.points) == 3
    doubles = [p for p in ds.points if p.direction_multiplicity == 2]
    slopes = sorted((complex(p.c[1]) / complex(p.c[0])).real for p in doubles)
    assert len(slopes) == 2
    assert abs(slopes[0] + 2 ** 0.5) < 1e-12 and abs(slopes[1] - 2 ** 0.5) < 1e-12
    assert all(p.multiple for p in doubles)
    rep = analyze(text)
    assert rep.n_multiple == 2 and rep.verdict == NON_INTEGRABLE


@pytest.mark.parametrize("text, lam", [
    ("q1^2*q2^2 + 2*q2^4", Fraction(1)),
    ("q1^2*q2^3 + 100000000000*q2^5", Fraction(1, 50000000000)),
    ("123456789*q1^5 + 987654321*q2^5 + 7*q1^2*q2^3", Fraction(14, 987654321)),
])
def test_exact_direction_with_irrational_scaling(text, lam):
    # on (0, 1), gamma^(k-2) = k / dV/dq2(0, 1) has no rational root, so the
    # point c is a float; lambda still comes exactly from the direction
    V = parse_potential(text)
    k = V.degree
    p = next(p for p in find_darboux_points(V).points if complex(p.c[0]) == 0)
    assert not p.exact
    assert p.spectrum == (gr(k * (k - 1)), gr(lam))
    assert p.lambda_cap == lam and not p.multiple and not p.isotropic
    assert p.residual == 0.0
    g1, g2 = V.gradient(p.c)
    c1 = complex(p.c[1])
    assert abs(g1) < 1e-12 and abs(g2 - k * c1) < 1e-12 * abs(k * c1)


def test_negative_scaling_takes_the_principal_root():
    # rho = k / dV/dq1(1, s) < 0 on each real direction, gamma^3 = rho: the
    # principal root has arg pi/3 whether (1, s) is exact (s = 0) or a float
    ds = find_darboux_points(parse_potential("-q1^5 + q1^3*q2^2 - 3*q1*q2^4"))
    assert len(ds.points) == 5 and sum(p.c[1] == 0 for p in ds.points) == 1
    for p in ds.points:
        gamma = complex(p.c[0])
        assert abs(cmath.phase(gamma) - cmath.pi / 3) < 1e-12


def test_exact_scaling_beyond_double_range():
    # rho = k / dV/dq1(1, 0) = 2^-20000 underflows a double; gamma^19998 = rho
    # is read off the exact log of rho and lies in range
    rep = analyze("(2*q1)^20000")
    (p,) = rep.darboux.points
    assert abs(complex(p.c[0]) - 2 ** (-20000 / 19998)) < 1e-15 and p.c[1] == 0
    # here gamma^2 = rho = 10^-800 / 2 itself underflows: a typed error
    with pytest.raises(DarbouxError, match="beyond double range"):
        analyze(f"{2 * 10**800}*q1^4")


@pytest.mark.parametrize("text", ["1/(q1^2+q2^2)", "3/(q1^2+q2^2)^2",
                                  "q1/(q1^3+q1*q2^2)", "q2/(q2^3+q1^2*q2)",
                                  "(3*q1^2+3*q2^2)/(6*(q1^2+q2^2)^3)", "7/2*(q1^2+q2^2)^3"])
def test_rotation_invariant_quotient_is_radial(text):
    # W == 0: V = a r^k with a = V(1, 0), and c = (gamma, 0) solves
    # grad V(c) = c, i.e. k a gamma^(k-1) = k gamma
    V = parse_potential(text)
    ds = find_darboux_points(V)
    assert ds.continuum and len(ds.points) == 1
    p = ds.points[0]
    assert p.multiple and p.spectrum[1] == gr(V.degree)
    gamma, a, k = complex(p.c[0]), complex(V(1, 0)), V.degree
    assert p.c[1] == 0 and abs(gamma ** (k - 2) * a - 1) < 1e-12
    assert analyze(text).verdict == RADIAL_CANDIDATE


def _potential_with_direction_polynomial(W, k: int) -> Potential:
    """The degree-k polynomial V (k odd) whose direction polynomial is W.

    The s^i coefficient of W is (k-i+1) v_(i-1) - (i+1) v_(i+1), with v_j
    the coefficient of q1^(k-j) q2^j: even i fix v_1, v_3, ... upwards,
    odd i fix v_(k-1), v_(k-3), ... downwards.
    """
    w = W.coeffs + [gr(0)] * (k + 1 - len(W.coeffs))
    v = [gr(0)] * (k + 2)
    for i in range(0, k, 2):
        v[i + 1] = ((k - i + 1) * v[i - 1] - w[i]) / (i + 1) if i else -w[0]
    for i in range(k, 0, -2):
        v[i - 1] = (w[i] + (i + 1) * v[i + 1]) / (k - i + 1)
    return Potential.polynomial(HomoPoly(k, {(k - j, j): v[j] for j in range(k + 1)}))


def test_exact_points_match_the_jet_reference(rng):
    # lambda = k - k W'(s)/g1(s) and multiple = (multiplicity >= 2) agree
    # with the Hessian of the jet at every point on an exact direction
    potentials = [planted_potential(rng, rng.choice([3, 4, 5, 6]), multiple=rng.random() < 0.5)
                  for _ in range(20)]
    for _ in range(30):  # W a product of Gaussian-rational linear factors
        W = UPoly([gr(1)])
        for _ in range(rng.randint(1, 3)):
            r = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.3 else 0)
            for _ in range(rng.randint(1, 3)):
                W = W * UPoly([-r, gr(1)])
        V = _potential_with_direction_polynomial(W, W.degree + 1 + W.degree % 2 + rng.choice([0, 2]))
        assert direction_polynomial(V).coeffs == W.coeffs
        potentials.append(V)
    potentials += [parse_potential(t) for t in (
        "q1^3", "q1^4/q2", "q1^3 + 3/2*q1*q2^2 + q2^3", "(q1 + i*q2)*(q1 - i*q2)^2",
        "q2^3 + 3/2*q1^2*q2", "q2^4 + 2*q1^2*q2^2 + q1^3*q2", "q1^2*q2^2 + 2*q2^4",
        "(q1^2 + q2^2)^2", "r^-3")]
    checked = Counter()
    for V in potentials:
        for p in find_darboux_points(V).points:
            if not isinstance(p.spectrum[1], GaussianRational):
                continue  # a float direction
            ref = classify(V, p.c)
            assert (p.multiple, p.isotropic) == (ref.multiple, ref.isotropic), (V.text(), p.c)
            if p.exact:
                assert (p.spectrum, p.lambda_cap) == (ref.spectrum, ref.lambda_cap), (V.text(), p.c)
            else:  # exact direction, irrational c: the reference is a float
                lam = complex(p.spectrum[1])
                assert abs(complex(ref.spectrum[1]) - lam) < 1e-9 * max(1, abs(lam)), V.text()
            checked[p.exact, p.multiple] += 1
    assert min(checked.values()) >= 10 and len(checked) == 4, checked


def test_no_jet_per_direction(monkeypatch):
    # the polynomial, rational and radial kinds are classified from W
    # alone, the polar kind from the roots z of z^M U'
    calls = []
    real_jet_at = potential_module.jet_at

    def counting_jet_at(*args):
        calls.append(args)
        return real_jet_at(*args)

    inputs = [parse_potential(t) for t in (
        "q1^2*q2", "q1^3 + 3/2*q1*q2^2 + q2^3", "q2^4 + 2*q1^2*q2^2 + q1^3*q2",
        "q1^4/q2", "(q1^2 + q2^2)^2", "1/(q1^2+q2^2)", "r^-3",
        "r^-3*(1 + 1/10*cos(2*theta))", "r^-3*(1 + 1/10*cos(3*theta) + 1/20*sin(2*theta))")]
    monkeypatch.setattr(potential_module, "jet_at", counting_jet_at)
    monkeypatch.setattr(darboux_module, "jet_at", counting_jet_at)
    for V in inputs:
        assert find_darboux_points(V).points
    assert calls == []


@pytest.mark.parametrize("text, m", [("q2^3 + 3/2*q1^2*q2", 3),
                                     ("q2^4 + 2*q1^2*q2^2 + q1^3*q2", 2)])
def test_vertical_direction_multiplicity(text, m):
    # (0, 1) is the root t = 0 of -t^n W(1/t), of multiplicity n - deg W
    V = parse_potential(text)
    p = next(p for p in find_darboux_points(V).points if p.c[0] == 0)
    assert p.direction_multiplicity == m
    assert p.multiple and p.spectrum[1] == gr(V.degree)


def _points(report):
    return [(p.c, p.spectrum[1]) for p in report.darboux.points]


def test_a_common_factor_hides_no_darboux_point():
    # q1 + q2 divides q1^4 - q2^4: the direction (1, -1) is no pole of V
    reduced = analyze("(q1^4 - q2^4)/(q1+q2)")
    expanded = analyze("(q1-q2)*(q1^2+q2^2)")
    assert reduced.potential == expanded.potential and reduced.potential.kind == "polynomial"
    assert reduced.verdict == expanded.verdict == NON_INTEGRABLE
    assert ((gr(Fraction(1, 2)), gr(Fraction(-1, 2))), gr(2)) in _points(reduced)
    assert _points(reduced) == _points(expanded)


def test_lowest_terms_of_a_json_quotient():
    # the parser does not see a JSON quotient: q1 divides both parts, and
    # the direction (0, 1) must survive it
    q1_times = {"kind": "rational", "degree": 3,
                "num": {"degree": 5, "terms": {"5,0": "1", "1,4": "-1"}},
                "den": {"degree": 2, "terms": {"1,1": "1"}}}
    V = potential_from_json(q1_times)
    W = parse_potential("(q1^4 - q2^4)/q2")
    assert V == W
    assert analyze(V).n_points == analyze(W).n_points == 5
    constant_den = {"kind": "rational", "degree": 3,
                    "num": {"degree": 3, "terms": {"3,0": "2", "0,3": "4"}},
                    "den": {"degree": 0, "terms": {"0,0": "2"}}}
    V = potential_from_json(constant_den)
    assert V.kind == "polynomial" and V == parse_potential("q1^3 + 2*q2^3")


def test_inexact_potentials_raise_typed_errors():
    c, s = math.cos(0.3), math.sin(0.3)
    R = ((c, -s), (s, c))
    with pytest.raises(PolarError, match="exact coefficients"):
        find_darboux_points(transform(parse_potential("r^-3*(1 + 1/10*cos(2*theta))"), R, 1))
    with pytest.raises(PotentialError, match="line restriction requires exact coefficients"):
        find_darboux_points(transform(parse_potential("q1^3 + 2*q2^3"), R, 1))


def test_direction_beyond_double_precision_is_a_typed_error():
    # W(N) = 0 exactly for N = 2^60 + 1, a degenerate direction; its float root
    # is 2^60, and after the exact Newton step g1 rounds to 0 there
    text = "q1*(q2 - 1152921504606846977*q1)^2"
    assert direction_polynomial(parse_potential(text))(gr(2**60 + 1)).is_zero()
    with pytest.raises(DarbouxError, match="beyond double precision"):
        analyze(text)


DEGREE_16 = ("(4/3*q1 + 9/5*q2)*(-5/3*q1 + 5/4*q2)*(3/4*q1 + 8/5*q2)*(3*q1 + 8/3*q2)"
             "*(2/3*q1 + 1/2*q2)*(8*q1 + 3/5*q2)*(-1/3*q1 + 9/5*q2)*(7/3*q1 + 9*q2)"
             "*(-1*q1 + 5*q2)*(-7/4*q1 + 5/4*q2)*(5/3*q1 + 9*q2)*(0*q1 + 7/4*q2)"
             "*(1*q1 + 4/5*q2)*(-2/3*q1 + 1/2*q2)*(1*q1 + 5/3*q2)*(-3*q1 + 9/5*q2)")


def test_exact_direction_that_rounding_misses():
    # W(4/3) = 0, but round(L*s)/L misses 4/3 for the float root s (L ~ 2.2e14);
    # its continued-fraction convergent 4/3 does not
    V = parse_potential(DEGREE_16)
    W = direction_polynomial(V)
    assert W(gr(Fraction(4, 3))).is_zero()
    assert (gr(Fraction(4, 3)), 1) in [(r.value, r.multiplicity) for r in roots(W) if r.exact]
    # grad V(1, 4/3) = 0: an exact direction with no finite Darboux point
    assert analyze(V).darboux.degenerate_directions == [(gr(1), gr(Fraction(4, 3)))]


# -- no point on the zero set of Q ---------------------------------------------

def test_pole_roots_of_w_are_no_directions():
    # W = (s^2 - 2s - 1) q0^2 with q = q0^3: the roots of q0 are poles, and
    # no point with lambda = -6 +- 24i is left on them
    rep = analyze("3/(5*q1^2 + 4*q1*q2 + 9*q2^2)^3")
    assert rep.n_points == 2 and rep.n_multiple == 0
    for p in rep.darboux.points:
        assert abs(complex(p.spectrum[1]) - complex(-6, 24)) > 1
        assert abs(complex(p.spectrum[1]) - complex(-6, -24)) > 1
    assert rep.verdict == "indeterminate"


def test_pole_roots_raise_no_residual_error():
    rep = analyze("1/(5*q1^2 + 8*q1*q2 + 9*q2^2)^2")
    assert rep.n_points == 2 and not rep.darboux.degenerate_directions


def test_pole_roots_at_plus_minus_i_sqrt2():
    # q = 3 (s^2 + 2)^3 has the roots +-i sqrt 2, which W shares; what is
    # left are the two axes, with exact lambda = -12 and -3
    rep = analyze("6/(6*q1^2 + 3*q2^2)^3")
    lams = [p.spectrum[1] for p in rep.darboux.points]
    assert all(isinstance(lam, GaussianRational) for lam in lams)
    assert sorted(lam.re for lam in lams) == [-12, -3]
    assert rep.verdict == NON_INTEGRABLE


def _quadratic_pole_draws(n):
    """n texts N/(a q1^2 + b q1 q2 + c q2^2)^e: a, c in [1, 9], b^2 < 4ac,
    e in {1, 2, 3} and N a real form of degree below 2e."""
    rng, out = random.Random(5), []
    while len(out) < n:
        a, c, b = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-9, 9)
        if b * b >= 4 * a * c:
            continue
        e = rng.choice((1, 2, 3))
        d = rng.randrange(2 * e)
        coefs = [rng.randint(-9, 9) for _ in range(d + 1)]
        if any(coefs):
            num = " + ".join(f"({x})*q1^{d - j}*q2^{j}" for j, x in enumerate(coefs) if x)
            out.append(f"({num})/({a}*q1^2 + ({b})*q1*q2 + {c}*q2^2)^{e}")
    return out


def test_no_direction_on_the_zero_set_of_q():
    for text in _quadratic_pole_draws(321):
        rep = analyze(text)  # no DarbouxError
        V = rep.potential
        if V.kind != "rational":
            continue
        g = direction_polynomial(V).gcd(V.den.restrict_line())
        poles = [complex(r.value) for r in roots(g)] if g.degree > 0 else []
        directions = [p.c for p in rep.darboux.points] + rep.darboux.degenerate_directions
        slopes = [complex(d[1]) / complex(d[0]) for d in directions if complex(d[0]) != 0]
        assert not [s for s in slopes if any(abs(s - z) <= 1e-6 for z in poles)], text


@pytest.mark.xfail(strict=True, reason="the Darboux set depends on a constant factor of V: "
                   "the float test |mu| <= 1e-12 is absolute (CHANGES.md FOUND)")
def test_darboux_set_is_invariant_under_a_constant_factor():
    # s = +-sqrt 2 are degenerate directions (grad V = 0 there) at every scale
    base = analyze("q1*(q2^2 - 2*q1^2)^2")
    assert (base.n_points, len(base.darboux.degenerate_directions)) == (3, 2)
    for factor in ("1000", "10^12"):
        rep = analyze(f"{factor}*q1*(q2^2 - 2*q1^2)^2")
        assert rep.n_points == base.n_points, factor
        assert len(rep.darboux.degenerate_directions) == 2, factor


# -- one realness test, one point format ------------------------------------------

@settings(max_examples=300, deadline=None)
@given(re=st.floats(-1e4, 1e4), log_ratio=st.floats(-11, -6), sign=st.sampled_from((-1, 1)),
       k=st.sampled_from((-5, -3, -1, 1, 3, 4, 5, 7)))
@example(re=20.0, log_ratio=math.log10(5e-9), sign=1, k=5)
@example(re=-320.0, log_ratio=math.log10(2e-9), sign=-1, k=12)
def test_lambda_cap_is_finite_exactly_when_the_verdict_calls_lambda_real(re, log_ratio, sign, k):
    lam = complex(re, sign * 10 ** log_ratio * max(1.0, abs(re)))
    p = darboux_module.DarbouxPoint(c=(1.0 + 0j, 0j), spectrum=(complex(k * (k - 1)), lam),
                                    multiple=False, isotropic=False)
    non_real = eigenvalue_verdict(k, lam).reason.startswith("non-real")
    assert math.isfinite(p.lambda_cap) == (not non_real)
    assert p.to_json()["lambda_cap"] == ("-inf" if non_real else lam.real)


def test_float_point_messages_use_the_report_format():
    V = parse_potential("q1^3 - 3*q1*q2^2")
    with pytest.raises(DarbouxError, match=r"^\(\(1\.5\+0\.25i\), 0\.5\) is not a Darboux point "
                                           r"\(residual "):
        classify(V, (1.5 + 0.25j, 0.5 + 0j))
