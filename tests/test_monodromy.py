"""Period closed form vs contour quadrature, determinant identities, and
the commutativity classifiers."""

import cmath
import math
from fractions import Fraction as Q

import pytest

from homopot import monodromy as M


# -- Gauss-Legendre rule ----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 12, 24])
def test_gauss_legendre_is_exact_to_degree_2n_minus_2(n):
    x, w = M._gl(n)
    assert len(x) == len(w) == n and list(x) == sorted(x)
    assert abs(sum(wi * xi ** (2 * n - 2) for xi, wi in zip(x, w)) - 2 / (2 * n - 1)) < 1e-14


# -- closed form ------------------------------------------------------------------

def test_half_period_by_hand():
    # (1 - e^{-i pi}) e^{-i pi/2} Gamma(1/2) sqrt(pi) / Gamma(1) = -2 pi i
    p = M.period_closed_form(Q(-1, 2), 1)
    assert abs(p.value - (-2j * math.pi)) < 1e-13


def test_integer_alpha_vanishes():
    assert M.period_closed_form(Q(2), 5).value == 0
    assert M.period_closed_form(Q(0), 3).value == 0
    with pytest.raises(ValueError):
        M.period_closed_form(Q(-1), 1)


def test_gamma_pole_branch():
    for alpha in (Q(-3, 2), Q(-5, 2), Q(-7, 2)):
        p = M.period_closed_form(alpha, 1)
        assert p.value == 0 and p.gamma_pole


def test_j_zero_and_periodic_winding():
    assert M.period_closed_form(Q(1, 3), 0).value == 0
    # j*alpha integral: the loop closes on the base sheet and the period dies
    assert M.period_closed_form(Q(1, 3), 3).value == 0
    assert M.period_closed_form(Q(1, 3), 6).value == 0


def test_near_integer_alpha_small():
    # prefactor vanishing: periods die as alpha approaches a nonnegative
    # integer (near negative integers the Gamma(alpha+1) pole cancels the
    # prefactor zero instead, leaving the finite residue value)
    for n in (0, 1, 2, 5):
        for eps in (Q(1, 1000), Q(-1, 1000)):
            if n == 0 and eps < 0:
                continue  # alpha < 0 but far from the negative-integer poles
            val = M.period_closed_form(Q(n) + eps, 1).value
            assert abs(val) < 0.2, (n, eps)
    residue_like = M.period_closed_form(Q(-3) + Q(1, 1000), 1).value
    assert 0.1 < abs(residue_like) < 10.0


# -- quadrature -------------------------------------------------------------------

def test_winding_reversal_phase_relation():
    # P(alpha, -j) = -e^{-2 i j pi alpha} P(alpha, j)
    for alpha in (Q(1, 3), Q(-2, 5), Q(-6, 5)):
        for j in (1, 2, 3):
            pj = M.period_closed_form(alpha, j).value
            pm = M.period_closed_form(alpha, -j).value
            phase = cmath.exp(-2j * j * math.pi * float(alpha))
            assert abs(pm + phase * pj) < 1e-12 * max(1.0, abs(pj))


def test_quadrature_matches_closed_form_spot():
    for alpha, j in [(Q(-1, 2), 1), (Q(1, 3), 1), (Q(-2, 5), 2), (Q(-6, 5), -1)]:
        c = M.period_closed_form(alpha, j)
        q = M.period_quadrature(M.LoopSpec(j), alpha, 1e-10)
        assert abs(c.value - q.value) < 1e-9, (alpha, j)
        assert q.error_bound < 1e-9


def test_quadrature_high_winding():
    for alpha, j in [(Q(2, 5), 5), (Q(2, 5), -4)]:
        c = M.period_closed_form(alpha, j)
        q = M.period_quadrature(M.LoopSpec(j), alpha, 1e-10)
        assert abs(c.value - q.value) < 1e-9, (alpha, j)


def test_adaptive_rule_bisects_near_a_pole():
    # the pole at 1.01 puts rho ~ 1.2 on [0, 1], far below the period
    # pieces' ~ 4.2, so only bisection reaches tol; the estimate bounds the error
    calls = []

    def f(u):
        calls.append(u)
        return 1 / (u - 1.01)

    tol = 1e-10
    value, err = M._adaptive_gl(f, tol)
    exact = math.log(0.01 / 1.01)
    assert len(calls) > 36
    assert abs(value - exact) <= tol
    assert abs(value - exact) <= err


def test_period_pieces_take_one_rule_each(monkeypatch):
    # 36 evaluations per piece: the whole rule and its two halves, no bisection
    calls = []
    rule = M._adaptive_gl
    monkeypatch.setattr(M, "_adaptive_gl",
                        lambda f, tol: rule(lambda u: calls.append(u) or f(u), tol))
    M.period_quadrature(M.LoopSpec(2), Q(-2, 7))
    assert len(calls) == 36 * len(M.LoopSpec(2).pieces())


def test_quadrature_matches_closed_form_on_the_bench_grid():
    # every non-integer p/q, q = 3..7, -3q <= p < 2q: the obstructions
    # workload's alphas and more (gamma poles -3/2, -5/2 among them)
    for alpha in sorted({Q(p, q) for q in range(3, 8) for p in range(-3 * q, 2 * q) if p % q}):
        for j in (-2, -1, 1, 2, 3):
            c = M.period_closed_form(alpha, j)
            q = M.period_quadrature(M.LoopSpec(j), alpha, 1e-10)
            assert abs(c.value - q.value) <= q.error_bound + 1e-10, (alpha, j)
            assert q.error_bound < 1e-9, (alpha, j)


def test_quadrature_trivial_integrand():
    q = M.period_quadrature(M.LoopSpec(2), Q(0, 1), 1e-10)
    assert abs(q.value) < 1e-12


def test_quadrature_tol_floor():
    # NaN compares false with everything, so it must not slip past the floor
    for tol in (1e-13, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="1e-12 floor"):
            M.period_quadrature(M.LoopSpec(1), Q(1, 3), tol)


def test_loop_pieces_structure():
    assert len(M.LoopSpec(0).pieces()) == 2
    assert len(M.LoopSpec(1).pieces()) == 4 + 8
    assert len(M.LoopSpec(-2).pieces()) == 4 + 16


# -- determinants ------------------------------------------------------------------

def test_det_examples():
    assert abs(M.det_A(Q(1, 3), Q(4, 3), 1, -1)) < 1e-12   # alpha - beta in Z
    assert abs(M.det_A(Q(1, 3), Q(1, 2), 1, -1)) > 1e-3
    assert M.det_A(Q(1, 3), Q(1, 2), 2, 2) == 0            # identical columns


def test_det_antisymmetry_and_diagonal():
    for (a, b, j1, j2) in [(Q(1, 3), Q(2, 5), 1, -1), (Q(-1, 4), Q(3, 5), 2, 1)]:
        assert abs(M.det_A(a, b, j1, j2) + M.det_A(a, b, j2, j1)) < 1e-12
        assert abs(M.det_A(a, a, j1, j2)) < 1e-12


def test_det_expsum_crosscheck():
    for (a, b) in [(Q(1, 3), Q(2, 5)), (Q(-1, 4), Q(5, 6)), (Q(-2, 3), Q(1, 5))]:
        for (j1, j2) in [(1, -1), (2, 1), (-2, 3)]:
            lhs = M.det_A(a, b, j1, j2)
            rhs = M.det_A_expsum(a, b, j1, j2)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), (a, b, j1, j2)


def test_det_sin_product_form():
    # det(1,-1) is proportional to sin(pi a) sin(pi b) sin(pi(b-a)); same zeros
    for (a, b) in [(Q(1, 3), Q(2, 3)), (Q(1, 4), Q(3, 4)), (Q(1, 5), Q(2, 5))]:
        sines = (math.sin(math.pi * float(a)) * math.sin(math.pi * float(b))
                 * math.sin(math.pi * float(b - a)))
        d = abs(M.det_A(a, b, 1, -1))
        assert (d < 1e-10) == (abs(sines) < 1e-12), (a, b)


# -- commutativity -----------------------------------------------------------------

def test_commutativity_trichotomy():
    c = M.commutativity_class(Q(1, 3), Q(4, 3))
    assert c.verdict == M.COMMUTATIVE_POSSIBLE and c.reason == M.REASON_ALPHA_MINUS_BETA
    c = M.commutativity_class(Q(-5, 2), Q(1, 3))
    assert c.verdict == M.COMMUTATIVE_POSSIBLE and c.reason == M.REASON_POLE_ALPHA
    c = M.commutativity_class(Q(1, 3), Q(-7, 2))
    assert c.verdict == M.COMMUTATIVE_POSSIBLE and c.reason == M.REASON_POLE_BETA
    c = M.commutativity_class(Q(1, 3), Q(1, 2))
    assert c.verdict == M.NON_COMMUTATIVE
    with pytest.raises(ValueError):
        M.commutativity_class(Q(2), Q(1, 3))


def test_alpha_plus_beta_integer_is_not_commutative():
    # the conjugate-cleared factorization has a spurious alpha+beta root;
    # the determinant itself does not vanish there
    c = M.commutativity_class(Q(1, 3), Q(2, 3))
    assert c.verdict == M.NON_COMMUTATIVE
    assert abs(M.det_A(Q(1, 3), Q(2, 3), 1, -1)) > 1e-3


def test_gamma_pole_periods_vanish_separately():
    # pole exponents force a zero row, det = 0 while class says pole branch
    assert M.period_closed_form(Q(-3, 2), 1).value == 0
    assert abs(M.det_A(Q(-3, 2), Q(1, 3), 1, -1)) == 0


# -- G_{l,k} -----------------------------------------------------------------------

def test_g_verdict_k3_checklist():
    g = M.g_verdict(0, 3)
    assert g.verdict == M.NON_COMMUTATIVE
    values = {name: val for name, (val, hit) in g.checklist.items()}
    assert values["alpha_integer"] == Q(1, 3)
    assert values["beta_integer"] == Q(-4, 3)
    assert values["gamma_pole_beta"] == Q(-1, 6)
    assert values["gamma_pole_alpha"] == Q(-11, 6)
    assert values["alpha_minus_beta_integer"] == Q(5, 3)
    assert not any(hit for _, hit in g.checklist.values())


def test_g_verdict_examples():
    assert M.g_verdict(2, -5).verdict == M.NON_COMMUTATIVE
    g = M.g_verdict(1, 1)
    assert g.verdict == M.NON_COMMUTATIVE and g.reason == "dilogarithm"


def test_g_verdict_domain():
    for k in (-2, -1, 0, 2):
        with pytest.raises(ValueError):
            M.g_verdict(0, k)
    with pytest.raises(ValueError):
        M.g_verdict(0, 1)
    with pytest.raises(ValueError):
        M.g_verdict(-1, 3)


def test_g_verdict_independent_of_l():
    a = M.g_verdict(0, 7)
    b = M.g_verdict(5, 7)
    assert a.verdict == b.verdict and a.checklist == b.checklist
