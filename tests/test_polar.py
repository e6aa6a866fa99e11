"""The polar classification: critical points, extremum selection, the
`polar_summary` view of the report, and agreement with the Cartesian
Darboux machinery."""

import math
from fractions import Fraction as Q

import pytest

from homopot import polar, report
from homopot.darboux import classify, find_darboux_points
from homopot.parse import parse_potential, parse_trig_poly
from homopot.potential import Potential, TrigPoly
from homopot.report import NON_INTEGRABLE as REPORT_NON_INTEGRABLE, analyze, polar_summary
from homopot.scalars import GaussianRational, gr


def U_example():
    return parse_trig_poly("1 + 1/10*cos(2*theta)")


def test_critical_points_examples():
    crit = polar.critical_points(U_example())
    expect = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert len(crit) == 4
    assert all(abs(p.theta - b) < 1e-12 for p, b in zip(crit, expect))
    assert [(p.z, p.multiplicity) for p in crit] == [(gr(1), 1), (gr(0, 1), 1),
                                                     (gr(-1), 1), (gr(0, -1), 1)]
    crit = polar.critical_points(parse_trig_poly("cos(theta)"))
    assert len(crit) == 2
    assert abs(crit[0].theta - 0.0) < 1e-12 and abs(crit[1].theta - math.pi) < 1e-12
    # an exact z in Q(i) on the unit circle at any angle, a float z elsewhere
    crit = polar.critical_points(parse_trig_poly("7/25*cos(theta) + 24/25*sin(theta)"))
    assert [p.z for p in crit] == [gr(Q(7, 25), Q(24, 25)), gr(Q(-7, 25), Q(-24, 25))]
    crit = polar.critical_points(parse_trig_poly("1 + 1/10*cos(3*theta) + 1/20*sin(2*theta)"))
    assert crit and all(isinstance(p.z, complex) and abs(abs(p.z) - 1) < 1e-15 for p in crit)


def test_constant_U_signals():
    with pytest.raises(polar.PolarError):
        polar.critical_points(parse_trig_poly("5"))
    with pytest.raises(polar.PolarError):
        polar.select_extremum(parse_trig_poly("5"))


def test_select_extremum_cases():
    assert polar.select_extremum(U_example()).theta == pytest.approx(0.0, abs=1e-12)
    U = parse_trig_poly("-1 + 1/10*cos(2*theta)")
    assert polar.select_extremum(U).theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert polar.select_extremum(parse_trig_poly("cos(theta)")).theta == \
        pytest.approx(0.0, abs=1e-12)


def test_select_extremum_zero_max_case():
    # max U = 0 > min U: the rule falls back to the minimum
    U = parse_trig_poly("-1 + cos(2*theta)")
    th = polar.select_extremum(U).theta
    assert U.evaluate(th) == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("scale", ["1/10^20", "1/10^13", "-1", "10^20"])
def test_select_extremum_ignores_the_scale_of_U(scale):
    # the tie tolerance is relative: a tiny U must not tie every critical value
    U = parse_trig_poly("2 - cos(2*theta)")
    scaled = parse_trig_poly(f"{scale}*(2 - cos(2*theta))")
    for V in (U, scaled):
        p = polar.select_extremum(V)
        assert p.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert polar.eigenvalue_at(V, -3, p.z) == Q(-13, 3)
    assert polar_summary(scaled, -3)["lambda"] == "-13/3"


def test_selected_extremum_guarantees(rng):
    for _ in range(40):
        U = TrigPoly(Q(rng.randint(-3, 3)),
                     cos={m: Q(rng.randint(-4, 4), rng.randint(1, 3))
                          for m in rng.sample([1, 2, 3, 4], k=2)},
                     sin={m: Q(rng.randint(-4, 4), rng.randint(1, 3))
                          for m in rng.sample([1, 2, 3], k=1)})
        if U.is_constant() or U.derivative().is_constant():
            continue
        th = polar.select_extremum(U).theta
        u = U.evaluate(th)
        du = U.derivative().evaluate(th)
        d2u = U.derivative().derivative().evaluate(th)
        assert abs(u) > 1e-12
        assert abs(du) < 1e-9
        assert d2u / u <= 1e-9


def test_analyze_example_exact():
    out = polar_summary(U_example(), -3)
    assert out["classification"] == "non_integrable" and out["theta0"] == 0.0
    assert out["lambda"] == "-37/11" and out["lambda_exact"] is True
    assert out["morales"]["lambda"] == "-37/11" and out["morales"]["admissible"] is False


def test_analyze_radial_and_degree_minus_two():
    assert polar_summary(parse_trig_poly("5"), -3)["classification"] == "radial_integrable"
    assert polar_summary(U_example(), -2)["classification"] == "degree_minus_two_integrable"
    assert polar_summary(parse_trig_poly("5"), -2)["classification"] == \
        "degree_minus_two_integrable"
    for out in (polar_summary(parse_trig_poly("5"), -3), polar_summary(U_example(), -2)):
        assert set(out) == {"classification", "k", "note"}


def test_analyze_rejects_nonnegative_degree():
    # analyze accepts k = 1 and 3 and rejects k = 0 and 2 in its own words
    for k in (0, 1, 2, 3):
        with pytest.raises(polar.PolarError, match="negative degrees only"):
            polar_summary(U_example(), k)


def test_multiple_point_detection():
    # U = 1 - sin^4: quartic-flat maximum at 0 gives U''(theta0) = 0
    U = parse_trig_poly("5/8 + 1/2*cos(2*theta) - 1/8*cos(4*theta)")
    out = polar_summary(U, -3)
    assert out["classification"] == "multiple_point_found"
    assert out["lambda"] == "-3" and out["lambda_exact"] is True
    assert "morales" not in out  # the theorem decides a multiple point, not the table


def test_float_lambda_at_simple_extremum():
    # irrational extremum angle: a float lambda < k decides without the table
    U = parse_trig_poly("1 + 1/10*cos(3*theta) + 1/20*sin(2*theta)")
    out = polar_summary(U, -3)
    assert out["classification"] == "non_integrable"
    assert out["lambda_exact"] is False and out["lambda"] < -3 and "morales" not in out
    assert out["lambda"] == polar.eigenvalue_at(U, -3, polar.select_extremum(U).z)
    assert analyze(Potential.polar(U, -3)).verdict == REPORT_NON_INTEGRABLE


def test_extremum_ties_only_within_the_part_of_U_that_varies():
    # U - 1 is about 1e-14, so every critical value of U ties within
    # 1e-12*max|U|; those of U - 1 are distinct (+-1.5e-15, +-1.06e-14, +-1.88e-14)
    rest = "- 1/100000000000000*sin(3*theta) + 1/100000000000000*cos(theta)"
    U, W = parse_trig_poly("1 " + rest), parse_trig_poly(rest)
    theta0 = polar.select_extremum(U).theta
    assert theta0 == pytest.approx(5.8104, abs=1e-4)
    assert W.evaluate(theta0) == max(W.evaluate(p.theta) for p in polar.critical_points(U))
    out = polar_summary(U, -3)
    assert out["theta0"] == theta0 and out["classification"] == "non_integrable"
    assert out["lambda_exact"] is False and out["lambda"] < -3


def test_near_radial_float_lambda_is_never_rounded():
    # every float lambda is -3 +- 1e-10, which rounds to the admissible -3
    text = "1 + 1/100000000000*cos(3*theta) + 1/200000000000*sin(2*theta)"
    report = analyze(f"r^-3*({text})")
    assert report.verdict == REPORT_NON_INTEGRABLE
    assert any("no table value lies below k" in note for note in report.notes)
    out = polar_summary(parse_trig_poly(text), -3)
    assert out["classification"] == "non_integrable"
    assert out["lambda_exact"] is False and isinstance(out["lambda"], float)
    assert out["lambda"] < -3 and "morales" not in out


def test_polar_summary_sweep_follows_the_extremum_theorem(rng):
    # a real non-constant U with k < 0, k != -2 is not integrable, whatever
    # the table makes of the other points; a float lambda at the extremum is
    # reported as the point holds it, never as a rational reconstruction
    # (on -3 + 3*cos(4*theta), lambda = -11 is reached at theta0 = pi/4 in floats)
    Us = [parse_trig_poly("-3 + 3*cos(4*theta)")]
    for _ in range(25):
        Us.append(TrigPoly(Q(rng.randint(-3, 3)),
                           cos={m: Q(rng.randint(-4, 4), rng.randint(1, 3))
                                for m in rng.sample([1, 2, 3, 4], k=2)},
                           sin={m: Q(rng.randint(-4, 4), rng.randint(1, 3))
                                for m in rng.sample([1, 2, 3], k=1)}))
    for U in Us:
        if U.is_constant():
            continue
        extremum = polar.select_extremum(U)
        for k in (-1, -3, -4, -5, -7):
            assert analyze(Potential.polar(U, k)).verdict == REPORT_NON_INTEGRABLE, (U, k)
            out = polar_summary(U, k)
            assert out["classification"] in ("non_integrable", "multiple_point_found"), (U, k)
            assert out["theta0"] == extremum.theta
            lam = polar.eigenvalue_at(U, k, extremum.z)
            if out["classification"] == "non_integrable":
                assert out["lambda_exact"] is isinstance(lam, GaussianRational), (U, k)
            if out["lambda_exact"]:
                assert Q(out["lambda"]) <= k, (U, k)
            else:
                assert isinstance(out["lambda"], float) and out["lambda"] == lam, (U, k)
                assert out["lambda"] <= k + 1e-9 * abs(k) and "morales" not in out, (U, k)


def test_polar_summary_refuses_a_verdict_against_the_theorem(monkeypatch):
    # the view reads the report's verdict out; it never maps an unexpected one
    analyze_as_is = report.analyze

    def analyze_passes(V, k5_variant):
        rep = analyze_as_is(V, k5_variant)
        rep.verdict = report.PASSES
        return rep

    monkeypatch.setattr(report, "analyze", analyze_passes)
    with pytest.raises(polar.PolarError, match="passes_first_order_tests"):
        polar_summary(U_example(), -3)


@pytest.mark.parametrize("scale", ["1/10^13", "1", "10^20"])
def test_polar_points_ignore_the_scale_of_U(scale):
    # the critical residual and the zero test of U(theta0) are relative to U
    U = parse_trig_poly("2 - cos(2*theta) + 1/10*sin(3*theta)")
    scaled = parse_trig_poly(f"{scale}*(2 - cos(2*theta) + 1/10*sin(3*theta))")
    lams = [[complex(p.spectrum[1]) for p in find_darboux_points(Potential.polar(T, -3)).points]
            for T in (U, scaled)]
    assert len(lams[0]) == len(lams[1]) == 4
    assert all(abs(a - b) <= 1e-14 * abs(a) for a, b in zip(*lams))
    assert analyze(Potential.polar(scaled, -3)).verdict == REPORT_NON_INTEGRABLE
    assert polar_summary(scaled, -3)["theta0"] == \
        pytest.approx(polar_summary(U, -3)["theta0"], abs=1e-12)


def _angle(p):
    c0, c1 = complex(p.c[0]), complex(p.c[1])
    return math.atan2(c1.real, c0.real) % (2 * math.pi)


def test_cartesian_cross_check():
    # the point on the extremal ray passes the jet classifier with the
    # announced spectrum {k(k-1), U''/U + k}
    k = -3
    V = parse_potential("r^-3*(1 + 1/10*cos(2*theta))")
    th = polar.select_extremum(V.U).theta
    p = next(p for p in find_darboux_points(V).points if abs(_angle(p) - th) < 1e-12)
    assert p.spectrum == (gr(k * (k - 1)), gr(Q(-37, 11))) and not p.multiple
    ref = classify(V, p.c)
    assert abs(complex(ref.spectrum[0]) - k * (k - 1)) < 1e-8
    assert abs(complex(ref.spectrum[1]) - float(Q(-37, 11))) < 1e-8
    assert not ref.multiple


def test_cross_check_all_critical_rays():
    # every critical angle gives a Darboux point (not only the extremum),
    # with lambda = U''/U + k as the jet at the point reads it
    U = U_example()
    V = parse_potential("r^-3*(1 + 1/10*cos(2*theta))")
    points = find_darboux_points(V).points
    assert len(points) == len(polar.critical_points(U))
    for p in points:
        th = _angle(p)
        u, upp = U.evaluate(th), U.derivative().derivative().evaluate(th)
        ref = classify(V, p.c)
        assert abs(complex(ref.spectrum[1]) - (upp / u - 3)) < 1e-8
        assert abs(complex(ref.spectrum[1]) - complex(p.spectrum[1])) < 1e-8


def test_multiple_iff_second_derivative_zero():
    # U = 1 - sin^4: U' = -4 sin^3 cos has triple roots at z = +-1, where
    # U'' = 0; U = 0 at z = +-i leaves no point there
    V = parse_potential("r^-3*(5/8 + 1/2*cos(2*theta) - 1/8*cos(4*theta))")
    points = find_darboux_points(V).points
    assert [p.c for p in points] == [(gr(-1), gr(0)), (gr(1), gr(0))]
    for p in points:
        assert p.direction_multiplicity == 3 and p.multiple
        assert p.spectrum[1] == gr(-3)
        assert classify(V, p.c).multiple
        assert abs(V.U.derivative().derivative().evaluate(_angle(p))) < 1e-12


def test_exact_eigenvalue_on_a_pythagorean_direction():
    # U = 1 + cos(theta - phi) with e^{i phi} = 7/25 + 24/25 i: the maximum
    # gives lambda = -5 - 1/2 exactly, the zero of U at phi + pi no point
    V = parse_potential("r^-5*(1 + 7/25*cos(theta) + 24/25*sin(theta))")
    (p,) = find_darboux_points(V).points
    assert p.spectrum[1] == gr(Q(-11, 2)) and p.residual == 0.0
    c0, c1 = complex(p.c[0]), complex(p.c[1])
    assert abs(25 * c0 - 7 * abs(c0 + 1j * c1)) < 1e-12
    ref = classify(V, p.c)
    assert abs(complex(ref.spectrum[1]) + 5.5) < 1e-9
    out = polar_summary(V.U, -5)
    assert out["lambda"] == "-11/2" and out["lambda_exact"] is True
