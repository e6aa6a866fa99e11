"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance and time bound is asserted, not just printed.
"""

import json
import math
import random
import time
from fractions import Fraction as Q

import pytest

from homopot import monodromy as M
from homopot import morales
from homopot import orbit as O
from homopot.cli import main
from homopot.darboux import classify
from homopot.parse import parse_trig_poly
from homopot.potential import jet_at
from homopot.report import RADIAL_CANDIDATE, analyze, polar_summary
from homopot.scalars import gr
from homopot.varequ import VeExpr, build_higher_ve, sym_power_ve1, ve1_residual

from conftest import planted_potential
from test_morales import brute_force_admissible_set


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_radial_continuum_instance():
    t0 = time.perf_counter()
    rep = analyze("r^-3")
    elapsed = time.perf_counter() - t0
    assert rep.darboux.continuum
    p = rep.darboux.points[0]
    assert p.multiple and p.exact
    assert p.spectrum == (gr(12), gr(-3))          # exactly {k(k-1), k}
    assert rep.verdict == RADIAL_CANDIDATE
    assert elapsed < 1.0
    report(1, f"analyze('r^-3'): continuum of multiple points, spectrum "
              f"{{12, -3}}, verdict {rep.verdict} in {elapsed * 1000:.0f} ms")


def test_criterion_02_multiplicity_test_equivalence():
    rng = random.Random(42)
    checked = 0
    for trial in range(24):
        k = rng.choice([3, 4, 5, 6])
        V = planted_potential(rng, k, multiple=(trial % 2 == 0))
        point = classify(V, (gr(1), gr(0)))
        jet = jet_at(V, (1, 0), 1)
        (h11, h12), (_, h22) = jet.hessian()
        a11, a12, a22 = h11 - gr(k), h12, h22 - gr(k)
        det = a11 * a22 - a12 * a12
        # exact rank of hess - kI by Gaussian elimination over Q(i)
        if a11.is_zero() and a12.is_zero() and a22.is_zero():
            rank = 0
        elif not a11.is_zero():
            rank = 1 if (a22 - a12 * a12 / a11).is_zero() else 2
        elif not a12.is_zero():
            rank = 2 if not a12.is_zero() and not (a11 * a22 - a12 * a12).is_zero() else 1
        else:
            rank = 1
        lam_eq_k = point.spectrum[1] == gr(k)
        assert lam_eq_k == det.is_zero() == (rank < 2) == point.multiple, (trial, k)
        checked += 1
    assert checked >= 20
    report(2, f"three multiplicity tests agree exactly on {checked} generated "
              "potentials (rational arithmetic)")


def test_criterion_03_morales_vs_brute_force():
    t0 = time.perf_counter()
    disagreements = 0
    cases = 0
    lambdas = sorted({Q(p, q) for q in range(1, 9) for p in range(-500, 501)
                      if abs(Q(p, q).numerator) <= 500 and Q(p, q).denominator <= 8})
    for k in [k for k in range(-6, 7) if k != 0]:
        if abs(k) == 2:
            for lam in lambdas:
                cases += 1
                if not morales.admissible(k, lam).admissible:
                    disagreements += 1
            continue
        oracle = brute_force_admissible_set(k, 500, 8, i_range=10**6)
        for lam in lambdas:
            cases += 1
            if morales.admissible(k, lam).admissible != (lam in oracle):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60.0
    report(3, f"quadratic-solve verdicts equal brute-force enumeration over "
              f"i in [-10^6, 10^6] on {cases} (k, lambda) cases in {elapsed:.1f} s")


def test_criterion_04_negative_degree_eigenvalue_gap():
    # the exact sublevel set, every denominator: no table value lies below k
    for k in (-1, *range(-400, -2)):
        assert set(morales.admissible_values_at_most(k, Q(k))) == {Q(k)}, k
    for k in (-1, -3, -4, -5, -6, -7):
        # spot cross-check of the inversion with direct scans near the hits
        for q in (1, 2, 3, 8, 72):
            for p in range(k * q - 12, k * q + 1):
                lam = Q(p, q)
                if lam > k or lam.denominator > 100:
                    continue
                assert morales.admissible(k, lam).admissible == (lam == Q(k)), (k, lam)
    rng = random.Random(5)
    for _ in range(2000):
        k = rng.choice((-1, -3, -4, -5, -6, -7))
        q = rng.randint(1, 100)
        p = rng.randint(-10**4, k * q)
        lam = Q(p, q)
        if lam.denominator > 100 or abs(lam.numerator) > 10**4:
            continue
        assert morales.admissible(k, lam).admissible == (lam == Q(k)), (k, lam)
    report(4, "exact sublevel enumeration for k in [-400, -3] and k = -1, plus "
              "a randomized direct cross-scan for k in {-1,-3,-4,-5,-6,-7}: "
              "lambda = k is the only admissible value <= k")


def test_criterion_05_period_cross_validation():
    t0 = time.perf_counter()
    alphas = [Q(1, 3), Q(-1, 3), Q(1, 2), Q(-1, 2), Q(2, 5), Q(-2, 5), Q(6, 5), Q(-6, 5)]
    cases = 0
    worst = 0.0
    for alpha in alphas:
        for j in (-2, -1, 1, 2):
            c = M.period_closed_form(alpha, j)
            q = M.period_quadrature(M.LoopSpec(j), alpha, 1e-10)
            diff = abs(c.value - q.value)
            worst = max(worst, diff)
            assert diff < 1e-8, (alpha, j, diff)
            cases += 1
    hand = M.period_closed_form(Q(-1, 2), 1)
    assert abs(hand.value - (-2j * math.pi)) < 1e-12
    elapsed = time.perf_counter() - t0
    assert cases == 32 and elapsed < 30.0
    report(5, f"closed form vs quadrature agree on {cases} cases "
              f"(max |diff| = {worst:.2e}, includes -2*pi*i by hand) in {elapsed:.1f} s")


def test_criterion_06_det_vs_commutativity_grid():
    values = [Q(n, d) for d in (2, 3, 4, 5, 6) for n in range(-12, 13)
              if Q(n, d).denominator == d]
    grid = []
    for v in values:
        if M.gamma_pole_at(v):
            continue
        grid.append(v)
        if len(grid) == 20:
            break
    assert len(grid) == 20
    for a in grid:
        for b in grid:
            cls = M.commutativity_class(a, b)
            det = abs(M.det_A(a, b, 1, -1))
            if cls.verdict == M.COMMUTATIVE_POSSIBLE:
                assert cls.reason == M.REASON_ALPHA_MINUS_BETA
                assert det < 1e-10, (a, b, det)
            else:
                assert det > 1e-10, (a, b, det)
    # Gamma-pole exponents, excluded above, are tested separately
    for a in (Q(-3, 2), Q(-5, 2)):
        assert M.period_closed_form(a, 1).gamma_pole
        assert M.det_A(a, Q(1, 3), 1, -1) == 0
        assert M.commutativity_class(a, Q(1, 3)).verdict == M.COMMUTATIVE_POSSIBLE
    report(6, "det_A(.,.,1,-1) < 1e-10 exactly on the commutative_possible "
              "cells of the 20x20 grid; Gamma-pole rows vanish separately")


def test_criterion_07_g_verdict_sweep():
    for k in [k for k in range(-12, 13) if abs(k) >= 3]:
        g = M.g_verdict(0, k)
        assert g.verdict == M.NON_COMMUTATIVE, k
        assert not any(hit for _, hit in g.checklist.values()), k
    for l in (1, 2, 3):
        assert M.g_verdict(l, 1).verdict == M.NON_COMMUTATIVE
    report(7, "G_{l,k} non-commutative with all five exclusion conditions "
              "false for 3 <= |k| <= 12, and for k=1, l=1..3 (dilogarithm)")


def test_criterion_08_variational_structure():
    t0 = time.perf_counter()
    rng = random.Random(11)
    for l in (1, 2, 3):
        for k in (-5, -3, 3, 4):
            lam = Q(rng.randint(-9, 9), rng.randint(1, 6))
            sys_ = build_higher_ve(None, l, k, lam=lam)
            idx, top = sys_.top_block()
            idx2, sp = sym_power_ve1(l, k, lam=lam)
            assert idx == idx2
            n = len(idx)
            assert all(top[i][j] == sp[i][j] for i in range(n) for j in range(n)), (l, k)
            assert sys_.block_triangular_violations() == []
            name = f"d_{l}_{l + 1}"
            if l >= 2:
                assert sys_.symbol_locations(name) == [((0, 1, 0, 0), (0, 0, 0, l))]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"top block == symmetric power entrywise, block triangularity, "
              f"and d_l_(l+1) isolation for l in 1..3, k in {{-5,-3,3,4}} "
              f"({elapsed:.2f} s, exact)")


def test_criterion_09_pk_solution_check():
    for k in (3, -3, 4, -4, 5, -5, 7, -7):
        assert ve1_residual(k, VeExpr.power_solution(k)).is_zero(), k
    report(9, "(t^2-1)^(1/k) solves the first variational equation as an "
              "exact rational-function identity for k in {+-3,+-4,+-5,+-7}")


def test_criterion_10_orbit_fidelity():
    results = [O.run_scenario(cfg) for cfg in O.load_scenarios()]
    assert len(results) >= 3
    for res in results:
        assert res["max_drift"] < 1e-9, res
        if "pk_deviation" in res:
            assert res["pk_deviation"] < 1e-6, res
        if "ve_residual" in res:
            assert res["ve_residual"] < 1e-7, res
    assert any("pk_deviation" in r for r in results)
    worst_drift = max(r["max_drift"] for r in results)
    report(10, f"all shipped scenarios: drift of the first integral, which is the "
               f"time-change identity, < 1e-9 (worst {worst_drift:.1e}), level-1 VE "
               "matches (s^2-1)^(1/k) within 1e-6")


def test_criterion_11_polar_pipeline(capsys):
    code = main(["polar-analyze", "--U", "1 + 1/10*cos(2*theta)", "--k", "-3",
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    js = json.loads(out)
    assert js["classification"] == "non_integrable"
    assert js["lambda"] == "-37/11" and js["lambda_exact"] is True
    assert polar_summary(parse_trig_poly("5"), -3)["classification"] == "radial_integrable"
    assert polar_summary(parse_trig_poly("1 + 1/10*cos(2*theta)"), -2)["classification"] \
        == "degree_minus_two_integrable"
    with capsys.disabled():
        report(11, "polar-analyze CLI: witness lambda = -37/11 non-integrable; "
                   "constant U radial; k=-2 unconditionally integrable")
