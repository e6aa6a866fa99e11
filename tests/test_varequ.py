"""Monomial bases, symbolic VE residuals, and the structure of the
linearized higher variational systems."""

import hashlib
import json
from fractions import Fraction as Q
from math import comb, factorial
from pathlib import Path

import pytest

from homopot.darboux import find_darboux_points, normalize
from homopot.parse import parse_potential
from homopot.potential import jet_at
from homopot.varequ import (Coef, VeExpr, _lambda_coef, build_higher_ve,
                            monomial_basis, first_order_matrix, stratum_size,
                            sym_power_ve1, ve1_residual)

DATA = Path(__file__).parent / "data"


def test_basis_counts():
    assert len(monomial_basis(1)) == 4
    assert sum(1 for i in monomial_basis(2) if sum(i) == 2) == 10 == comb(5, 3)
    assert sum(1 for i in monomial_basis(3) if sum(i) == 3) == 20 == comb(6, 3)
    assert stratum_size(2) == 10
    with pytest.raises(ValueError):
        monomial_basis(0)


def test_basis_graded_lex():
    b = monomial_basis(2)
    orders = [sum(i) for i in b]
    assert orders == sorted(orders)
    stratum1 = [i for i in b if sum(i) == 1]
    assert stratum1 == sorted(stratum1)


@pytest.mark.parametrize("k", [3, -3, 4, -4, 5, -5, 7, -7])
def test_pk_qk_residuals(k):
    assert ve1_residual(k, VeExpr.power_solution(k)).is_zero()
    assert ve1_residual(k, VeExpr.second_solution(k)).is_zero()


def test_nonsolution_residual():
    r = ve1_residual(3, VeExpr.polynomial(3, [0, 1]))  # X = t
    assert not r.is_zero()
    assert r.terms == {(1, Q(0), 0): Q(3)}  # k(k-1) t - k t = 3 t


def test_eigenvalue_variant():
    # P_k solves the lambda = k variant only; generic lambda leaves a residual
    r = ve1_residual(3, VeExpr.power_solution(3), eigenvalue=Q(7))
    assert not r.is_zero()


def test_level_one_is_ve1_pair():
    sys1 = build_higher_ve(None, 1, 3, lam=Q(5))
    # dX1' = k(k-1) phi^{k-2} X1; X1' = dX1; same with lambda on the normal part
    c = sys1.coefficient((1, 0, 0, 0), (0, 0, 1, 0))
    assert c == Coef.rational(6, 1)
    c = sys1.coefficient((0, 1, 0, 0), (0, 0, 0, 1))
    assert c == Coef.rational(5, 1)
    assert sys1.coefficient((0, 0, 1, 0), (1, 0, 0, 0)) == Coef.rational(1)
    assert sys1.coefficient((0, 0, 0, 1), (0, 1, 0, 0)) == Coef.rational(1)
    assert len(sys1.transitions) == 4


def test_symbolic_lambda():
    sys1 = build_higher_ve(None, 1, 3, lam=None)
    c = sys1.coefficient((0, 1, 0, 0), (0, 0, 0, 1))
    assert c.syms == ("lam",)


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("k", [-5, -3, 3, 4])
def test_top_block_is_symmetric_power(l, k, rng):
    lam = Q(rng.randint(-9, 9), rng.randint(1, 5))
    sys_ = build_higher_ve(None, l, k, lam=lam)
    idx, top = sys_.top_block()
    idx2, sp = sym_power_ve1(l, k, lam=lam)
    assert idx == idx2
    n = len(idx)
    assert all(top[i][j] == sp[i][j] for i in range(n) for j in range(n))


def test_top_block_sym_power_weight_two():
    # the radial odd-degree case carries k0 = 2 weights; same oracle must hold
    for l in (1, 2, 3):
        sys_ = build_higher_ve(None, l, -3, lam=Q(-3), k0=2)
        idx, top = sys_.top_block()
        idx2, sp = sym_power_ve1(l, -3, lam=Q(-3), k0=2)
        assert idx == idx2
        n = len(idx)
        assert all(top[i][j] == sp[i][j] for i in range(n) for j in range(n)), l


def test_block_triangularity(rng):
    for l in (1, 2, 3):
        sys_ = build_higher_ve(None, l, -3, lam=Q(-3))
        assert sys_.block_triangular_violations() == []


def test_free_symbol_isolation():
    # d_{l,l+1} appears only in the order-1 normal-component equation
    for l in (2, 3):
        sys_ = build_higher_ve(None, l, -3, lam=Q(-3))
        name = f"d_{l}_{l + 1}"
        locs = sys_.symbol_locations(name)
        assert locs == [((0, 1, 0, 0), (0, 0, 0, l))]
        # and lower-level systems never see it
        for smaller in range(1, l):
            assert build_higher_ve(None, smaller, -3, lam=Q(-3)).symbol_locations(name) == []


def test_radial_level2_tail_values():
    # tail coefficients are the order-3 derivatives of r^-3 at (1, 0)
    jet = jet_at(parse_potential("r^-3"), (1, 0), 2)
    sys_ = build_higher_ve(jet, 2, -3, lam=Q(-3))
    assert sys_.d_values is not None
    # d_{2,j} = partial^3 V / dq1^{3-j} dq2^j at (1,0): (-60, 0, 15, 0)
    assert sys_.d_values["d_2_0"] == complex(-60)
    assert sys_.d_values["d_2_1"] == complex(0)
    assert sys_.d_values["d_2_2"] == complex(15)
    assert sys_.d_values["d_2_3"] == complex(0)
    # Euler recurrence cross-check: d_{2,j} = (k-2) d_{1,j} at the normal form
    assert sys_.d_values["d_2_0"] == (-3 - 2) * sys_.d_values["d_1_0"]
    assert sys_.d_values["d_2_2"] == (-3 - 2) * sys_.d_values["d_1_2"]


def test_tail_shape_matches_formula():
    # ddot X1 tail term i=2,j=0: coefficient d_{2,0}/2! * phi^{k0(k-3)}
    sys_ = build_higher_ve(None, 2, -3, lam=Q(-3))
    tail = sys_.coefficient((1, 0, 0, 0), (0, 0, 2, 0))
    assert tail == Coef.rational(Q(1, 2), 1 * (-3 - 1 - 2), ("d_2_0",))
    tail_mixed = sys_.coefficient((1, 0, 0, 0), (0, 0, 1, 1))
    assert tail_mixed == Coef.rational(Q(1, 1), -6, ("d_2_1",))
    norm_tail = sys_.coefficient((0, 1, 0, 0), (0, 0, 0, 2))
    assert norm_tail == Coef.rational(Q(1, 2), -6, ("d_2_3",))


def test_force_sign_flip():
    plus = build_higher_ve(None, 1, 3, lam=Q(3))
    minus = build_higher_ve(None, 1, 3, lam=Q(3), force_sign=-1)
    cp = plus.coefficient((1, 0, 0, 0), (0, 0, 1, 0))
    cm = minus.coefficient((1, 0, 0, 0), (0, 0, 1, 0))
    assert cp == cm.scale(-1)
    # trivial transitions are unaffected
    assert plus.coefficient((0, 0, 1, 0), (1, 0, 0, 0)) == \
        minus.coefficient((0, 0, 1, 0), (1, 0, 0, 0))


def test_jet_normalization_guard():
    jet = jet_at(parse_potential("q1^2*q2"), (1, 1), 2)
    with pytest.raises(ValueError, match="normalized"):
        build_higher_ve(jet, 2, 3, lam=Q(0))


def test_level_is_checked_before_the_jet():
    # a jet of order -1 has no row d[0] to validate
    jet = jet_at(parse_potential("q1^3"), (1, 0), -1)
    for level in (-1, -3, 0):
        with pytest.raises(ValueError, match="level must be >= 1"):
            build_higher_ve(jet, level, 3)


def test_euler_consistency_polynomial_vs_recurrence(rng):
    # tails built from jets of a normalized polynomial match the Euler
    # recurrence d_{i,j} = (k-i) d_{i-1,j} (exactly, in rational arithmetic)
    V = parse_potential("q1^4 + 1/3*q1^2*q2^2 - 2*q2^4 + q1*q2^3")
    jet = jet_at(V, (1, 0), 3)
    k = 4
    for i in range(1, 4):
        for j in range(i + 1):
            assert jet.d[i][j] == jet.d[i - 1][j] * (k - i)


def test_json_schema():
    jet = jet_at(parse_potential("r^-3"), (1, 0), 2)
    sys_ = build_higher_ve(jet, 2, -3, lam=Q(-3))
    js = sys_.to_json()
    assert js["level"] == 2 and js["k"] == -3 and js["lambda"] == "-3"
    assert all(set(e) == {"from", "to", "coef", "phi_exp", "d_symbols"}
               for e in js["entries"])
    assert [tuple(i) for i in js["indices"]] == sys_.indices


def test_first_order_matrix_layout():
    M = first_order_matrix(3, Q(5), k0=2)
    assert M[0][2] == Coef.rational(6, 2)
    assert M[1][3] == Coef.rational(5, 2)
    assert M[2][0] == Coef.rational(1)
    assert M[3][1] == Coef.rational(1)


def _enumerate_then_drop(l, k, lam=None, k0=1, force_sign=1):
    """Reference transitions: form every tail term (i, j) with 2 <= i <= l,
    then drop each one whose target lies above level l.  No (source,
    target) key is formed twice, so each transition is one term."""
    lam_q = None if lam is None else Q(lam)
    indices = monomial_basis(l)
    pos = {idx: p for p, idx in enumerate(indices)}
    transitions = {}

    def add(src, tgt, coef):
        if coef.is_zero() or sum(tgt) > l:
            return
        key = (pos[src], pos[tgt])
        assert key not in transitions, (src, tgt)
        transitions[key] = coef

    e_hom = k0 * (k - 2)
    for idx in indices:
        n1, n2, n3, n4 = idx
        if n3:
            add(idx, (n1 + 1, n2, n3 - 1, n4), Coef.rational(n3))
        if n4:
            add(idx, (n1, n2 + 1, n3, n4 - 1), Coef.rational(n4))
        if n1:
            base = (n1 - 1, n2, n3, n4)
            add(idx, (base[0], base[1], base[2] + 1, base[3]),
                Coef.rational(n1 * k * (k - 1) * force_sign, e_hom))
            for i in range(2, l + 1):
                for j in range(i + 1):
                    c = Coef.rational(Q(n1 * force_sign, factorial(i - j) * factorial(j)),
                                      k0 * (k - 1 - i), (f"d_{i}_{j}",))
                    add(idx, (base[0], base[1], base[2] + i - j, base[3] + j), c)
        if n2:
            base = (n1, n2 - 1, n3, n4)
            add(idx, (base[0], base[1], base[2], base[3] + 1),
                _lambda_coef(lam_q, e_hom, force_sign).scale(n2))
            for i in range(2, l + 1):
                for j in range(i + 1):
                    c = Coef.rational(Q(n2 * force_sign, factorial(i - j) * factorial(j)),
                                      k0 * (k - 1 - i), (f"d_{i}_{j + 1}",))
                    add(idx, (base[0], base[1], base[2] + i - j, base[3] + j), c)
    return transitions


@pytest.mark.parametrize("k", [-3, -1, 3, 4, 7])
@pytest.mark.parametrize("k0", [1, 2])
@pytest.mark.parametrize("force_sign", [1, -1])
@pytest.mark.parametrize("lam", [None, Q(-5, 3)])
def test_transitions_match_enumerate_then_drop(k, k0, force_sign, lam):
    for l in range(1, 8):
        _assert_matches_reference(l, k, lam, k0, force_sign)


@pytest.mark.parametrize("force_sign", [1, -1])
def test_zero_linear_coefficients_are_left_out_as_before(force_sign):
    # k = 1 zeroes k(k-1) and lambda = 0 the normal one: no transition for either
    for l in range(1, 5):
        _assert_matches_reference(l, 1, Q(0), 1, force_sign)


def _assert_matches_reference(l, k, lam, k0, force_sign):
    got = build_higher_ve(None, l, k, lam=lam, k0=k0, force_sign=force_sign)
    ref = _enumerate_then_drop(l, k, lam=lam, k0=k0, force_sign=force_sign)
    assert list(got.transitions) == list(ref), l
    for key, coef in ref.items():
        assert got.transitions[key] == coef, key


def _digest(obj) -> str:
    return hashlib.sha256(obj.encode()).hexdigest()


def test_level_seven_systems_are_pinned():
    # digests recorded from the enumerate-then-drop builder, never recomputed
    radial = build_higher_ve(None, 7, -3, lam=Q(-3))
    assert len(radial.transitions) == 2772
    assert _digest(json.dumps(radial.to_json(), sort_keys=True)) == \
        "cef9fb557fcfcd044bd805a3652cc3ce74ee0e0793267722d1485ebbadc952ce"
    # the system ve-build makes for the polar corpus potential; to_json
    # carries no d_values, so the jet's values are pinned on their own
    V = parse_potential((DATA / "corpus" / "04_polar_wave.pot").read_text())
    # ve-build's choice: the first non-isotropic point, exact ones first
    point = min((p for p in find_darboux_points(V).points if not p.isotropic),
                key=lambda p: not p.exact)
    Vn, c = normalize(V, point)
    polar = build_higher_ve(jet_at(Vn, c, 7), 7, V.degree, lam=point.spectrum[1].re)
    assert polar.lam == Q(-37, 11)
    assert _digest(json.dumps(polar.to_json(), sort_keys=True)) == \
        "9371f928232d4ab8a72ce011da86dfd30f678134409fba0f03ad52dd5249aa18"
    assert _digest(repr(sorted(polar.d_values.items()))) == \
        "1899ec119eece473f557c1c4b1ea54ad3cef383bd78c693ebd0424aac7303b54"
