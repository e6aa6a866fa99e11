"""Eigenvalue-table membership: spot values, witness soundness, and the
independent enumeration oracle."""

import dataclasses
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homopot import morales


def test_table_rows_counts():
    assert len(morales.table_rows(7)) == 2
    assert len(morales.table_rows(-3)) == 6
    rows = morales.table_rows(-2)
    assert len(rows) == 3 and any(r.all_c for r in rows)
    assert len(morales.table_rows(5)) == 4
    assert len(morales.table_rows(-5)) == 4
    with pytest.raises(ValueError):
        morales.table_rows(0)


def test_k5_variant_rows():
    printed = morales.table_rows(5, morales.K5_PRINTED)
    tenj = morales.table_rows(5, morales.K5_TENJ)
    # printed: -9/8 + (4+6i)^2/8 -> A = 36/8; variant: (4+10i)^2 -> A = 100/8
    assert printed[-1].A == Q(9, 2)
    assert tenj[-1].A == Q(25, 2)
    assert printed[-1].C == tenj[-1].C == Q(7, 8)


@pytest.mark.parametrize("k", [3, -3, 5, 7])
def test_unknown_k5_variant_is_refused_for_every_k(k):
    with pytest.raises(ValueError, match="unknown k5 variant 'nonsense'"):
        morales.table_rows(k, "nonsense")
    with pytest.raises(ValueError, match="unknown k5 variant 'nonsense'"):
        morales.admissible(k, 0, "nonsense")


def test_table_rows_are_built_once_and_frozen():
    rows = morales.table_rows(-3)
    assert morales.table_rows(-3) is rows
    assert morales.table_rows(5, morales.K5_TENJ) is morales.table_rows(5, morales.K5_TENJ)
    assert morales.table_rows(5, morales.K5_TENJ) is not morales.table_rows(5)
    assert isinstance(rows, tuple)
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].C = Q(1)
    assert rows[0].C == Q(0)
    assert morales.admissible(-3, Q(0)).admissible


def test_admissible_examples():
    v = morales.admissible(3, Q(6))
    assert v.admissible and v.witness == ("family 1", 1)
    v = morales.admissible(-1, Q(-1))
    assert v.admissible and v.witness[1] == -1
    v = morales.admissible(3, Q(-3))
    assert not v.admissible
    assert len(v.certificate) == 6     # every applicable row covered
    v = morales.admissible(-2, Q(17, 3))
    assert v.admissible


def test_rejects_floats():
    with pytest.raises(TypeError):
        morales.admissible(3, -3.0)


@pytest.mark.parametrize("k", [-7, -5, -4, -3, -1, 1, 3, 4, 5, 6])
def test_universal_members(k):
    # lambda in {0, k, k(k-1)} is admissible for every nonzero k
    assert morales.admissible(k, Q(0)).admissible
    assert morales.admissible(k, Q(k)).admissible
    assert morales.admissible(k, Q(k * (k - 1))).admissible


@given(st.integers(-6, 6).filter(lambda k: k != 0), st.integers(-200, 200))
def test_witness_soundness(k, i):
    # any row evaluated at any integer is admissible, with an exact witness
    for row in morales.table_rows(k):
        if row.all_c:
            continue
        lam = row.value(i)
        v = morales.admissible(k, lam)
        assert v.admissible
        wrow = next(r for r in morales.table_rows(k) if r.row_id == v.witness[0])
        assert wrow.value(v.witness[1]) == lam


def row_numerators(row, i):
    """row.value at every integer of the array i as numerators over one
    common denominator, in vectorized integer arithmetic."""
    den = int(np.lcm(np.lcm(row.A.denominator, row.B.denominator), row.C.denominator))
    a, b, c = (np.int64(x * den) for x in (row.A, row.B, row.C))
    return a * i * i + b * i + c, den


def brute_force_admissible_set(k: int, num_cap: int, den_cap: int,
                               i_range: int = 10**6,
                               k5_variant: str = morales.K5_PRINTED) -> set:
    """Independent oracle: enumerate every i in [-i_range, i_range] for every
    row with vectorized integer arithmetic and keep the small rationals."""
    out = set()
    i = np.arange(-i_range, i_range + 1, dtype=np.int64)
    for row in morales.table_rows(k, k5_variant):
        if row.all_c:
            continue
        num, den = row_numerators(row, i)
        mask = np.abs(num) <= den * num_cap * den_cap
        for n in num[mask]:
            lam = Q(int(n), den)
            if abs(lam.numerator) <= num_cap and lam.denominator <= den_cap:
                out.add(lam)
    return out


def test_enumeration_equivalence_small():
    # reduced-size version of the acceptance criterion
    cases = [(k, morales.K5_PRINTED) for k in (-5, -4, -3, -1, 1, 3, 4, 5)]
    for k, variant in cases + [(5, morales.K5_TENJ)]:
        oracle = brute_force_admissible_set(k, 60, 8, i_range=10**4, k5_variant=variant)
        for p in range(-60, 61):
            for q in range(1, 9):
                lam = Q(p, q)
                if abs(lam.numerator) > 60 or lam.denominator > 8:
                    continue
                assert morales.admissible(k, lam, variant).admissible == (lam in oracle), \
                    (k, variant, lam)


@pytest.mark.parametrize("k", [-5, -3, -1, 1, 4, 5])
def test_values_at_most_match_brute_force(k):
    # lambda <= bound is tau^2 <= 8 bound + (k-2)^2: bounds below, at and
    # above the vertex -(k-2)^2/8 of every row
    i = np.arange(-2000, 2001, dtype=np.int64)
    rows = {row.row_id: row for row in morales.table_rows(k)}
    vertex = Q(-(k - 2) ** 2, 8)
    for bound in (vertex - Q(1, 3), vertex, vertex + Q(1, 8), Q(k), Q(0), Q(73, 3), Q(400)):
        expect = set()
        for row in rows.values():
            num, den = row_numerators(row, i)
            below = num * bound.denominator <= bound.numerator * den
            expect.update(Q(int(n), den) for n in num[below])
        got = morales.admissible_values_at_most(k, bound)
        assert set(got) == expect, (k, bound)
        assert all(rows[row_id].value(j) == lam for lam, (row_id, j) in got.items())
        if 8 * bound + (k - 2) ** 2 < 0:
            assert got == {}


def test_reconstruct_rational():
    assert morales.reconstruct_rational(-3.0000000001, 64) == Q(-3)
    assert morales.reconstruct_rational(-3.3636363636, 64) == Q(-37, 11)
    assert morales.reconstruct_rational(3.141592653589793, 64) is None
    assert morales.reconstruct_rational(float("nan"), 64) is None


def test_gap_scan_monotone_selection():
    # the negative-degree gap: the only admissible lambda <= k is k itself,
    # at every denominator (the k = -3 sporadic rows c and d have 200)
    for k in (-1, *range(-400, -2)):
        assert set(morales.admissible_values_at_most(k, Q(k))) == {Q(k)}, k


def test_denominator_divisibility_lemma():
    # a reduced p/q can only be admissible if q divides a row denominator:
    # A i^2 + B i + C = p/q forces q | lcm of the row's coefficient denominators
    for k in (-3, -5, 4):
        rows = [r for r in morales.table_rows(k) if not r.all_c]
        dens = set()
        for r in rows:
            dens.add(np.lcm(np.lcm(r.A.denominator, r.B.denominator), r.C.denominator))
        for lam in (Q(1, 7), Q(-22, 7), Q(5, 11), Q(-1, 13)):
            assert all(int(d) % lam.denominator for d in dens)
            assert not morales.admissible(k, lam).admissible


def test_admissible_values_at_most():
    vals = morales.admissible_values_at_most(-3, Q(-3))
    assert set(vals) == {Q(-3)}
    vals = morales.admissible_values_at_most(3, Q(0))
    assert Q(0) in vals and all(v <= 0 for v in vals)
