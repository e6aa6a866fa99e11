"""Admissible Hessian eigenvalues at Darboux points (the integrability table).

For a potential of degree k and eigenvalue lambda, meromorphic
integrability forces (k, lambda) into a fixed table: two quadratic
families in an integer parameter i valid for every nonzero k, sporadic
rows for |k| in {3,4,5}, and everything for k = +-2.  Membership is
decided exactly over the rationals by solving each row's quadratic.

The published k=5 row breaks the (10/3 + 10i)^2 pattern of its sibling
and reads (4 + 6i)^2; both variants ship, selected by k5_variant
("printed" keeps the published value, "tenj" uses (4 + 10i)^2).

`eigenvalue_verdict` is the one place a Hessian eigenvalue is decided
against the table, for `analyze`, `batch` and `polar-analyze` alike: an
exact lambda goes to the table, a float one is inadmissible when it is
clearly non-real, else it is reconstructed as a small-denominator
rational for the table or stays indeterminate.  For |k| = 2 the all-of-C
row admits every float or non-real lambda without either test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .scalars import GaussianRational, rational_sqrt

Q = Fraction

K5_PRINTED = "printed"
K5_TENJ = "tenj"

MAX_DENOMINATOR = 1000  # the cap when a float eigenvalue is reconstructed

ST_ADMISSIBLE = "admissible"
ST_INADMISSIBLE = "inadmissible"
ST_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class TableRow:
    """lambda(i) = A i^2 + B i + C for integer i (or all of C when all_c)."""

    row_id: str
    A: Fraction = Q(0)
    B: Fraction = Q(0)
    C: Fraction = Q(0)
    all_c: bool = False
    formula: str = ""

    def value(self, i: int) -> Fraction:
        return self.A * i * i + self.B * i + self.C

    def to_json(self) -> dict:
        if self.all_c:
            return {"row": self.row_id, "lambda": "C", "formula": self.formula}
        return {"row": self.row_id, "A": str(self.A), "B": str(self.B),
                "C": str(self.C), "formula": self.formula}


def _square_row(row_id: str, base: Fraction, coef: Fraction,
                offset: Fraction, step: Fraction, formula: str) -> TableRow:
    # base + coef*(offset + step*i)^2, expanded
    return TableRow(row_id,
                    A=coef * step * step,
                    B=2 * coef * offset * step,
                    C=base + coef * offset * offset,
                    formula=formula)


_SPORADIC = {
    -5: [
        _square_row("k=-5 sporadic a", Q(-49, 8), Q(1, 8), Q(10, 3), Q(10),
                    "-49/8 + (10/3 + 10i)^2/8"),
        _square_row("k=-5 sporadic b", Q(-49, 8), Q(1, 8), Q(4), Q(10),
                    "-49/8 + (4 + 10i)^2/8"),
    ],
    -4: [
        _square_row("k=-4 sporadic", Q(-9, 2), Q(1, 2), Q(4, 3), Q(4),
                    "-9/2 + (4/3 + 4i)^2/2"),
    ],
    -3: [
        _square_row("k=-3 sporadic a", Q(-25, 8), Q(1, 8), Q(2), Q(6),
                    "-25/8 + (2 + 6i)^2/8"),
        _square_row("k=-3 sporadic b", Q(-25, 8), Q(1, 8), Q(3, 2), Q(6),
                    "-25/8 + (3/2 + 6i)^2/8"),
        _square_row("k=-3 sporadic c", Q(-25, 8), Q(1, 8), Q(6, 5), Q(6),
                    "-25/8 + (6/5 + 6i)^2/8"),
        _square_row("k=-3 sporadic d", Q(-25, 8), Q(1, 8), Q(12, 5), Q(6),
                    "-25/8 + (12/5 + 6i)^2/8"),
    ],
    3: [
        _square_row("k=3 sporadic a", Q(-1, 8), Q(1, 8), Q(2), Q(6),
                    "-1/8 + (2 + 6i)^2/8"),
        _square_row("k=3 sporadic b", Q(-1, 8), Q(1, 8), Q(3, 2), Q(6),
                    "-1/8 + (3/2 + 6i)^2/8"),
        _square_row("k=3 sporadic c", Q(-1, 8), Q(1, 8), Q(6, 5), Q(6),
                    "-1/8 + (6/5 + 6i)^2/8"),
        _square_row("k=3 sporadic d", Q(-1, 8), Q(1, 8), Q(12, 5), Q(6),
                    "-1/8 + (12/5 + 6i)^2/8"),
    ],
    4: [
        _square_row("k=4 sporadic", Q(-1, 2), Q(1, 2), Q(4, 3), Q(4),
                    "-1/2 + (4/3 + 4i)^2/2"),
    ],
}


def _k5_rows(variant: str):
    rows = [_square_row("k=5 sporadic a", Q(-9, 8), Q(1, 8), Q(10, 3), Q(10),
                        "-9/8 + (10/3 + 10i)^2/8")]
    if variant == K5_PRINTED:
        rows.append(_square_row("k=5 sporadic b (printed)", Q(-9, 8), Q(1, 8), Q(4), Q(6),
                                "-9/8 + (4 + 6i)^2/8"))
    elif variant == K5_TENJ:
        rows.append(_square_row("k=5 sporadic b (tenj)", Q(-9, 8), Q(1, 8), Q(4), Q(10),
                                "-9/8 + (4 + 10i)^2/8"))
    else:
        raise ValueError(f"unknown k5 variant {variant!r}")
    return rows


@cache
def table_rows(k: int, k5_variant: str = K5_PRINTED) -> tuple:
    """Every table row applicable to degree k, built once per (k, variant)
    and shared: a tuple of frozen rows, so no caller can change it."""
    if k == 0:
        raise ValueError("degree k = 0 has no table")
    rows = [
        TableRow("family 1", A=Q(k * k, 2), B=Q(k * (k - 2), 2), C=Q(0),
                 formula="i*k*(i*k + k - 2)/2"),
        TableRow("family 2", A=Q(k * k, 2), B=Q(k * k, 2), C=Q(k - 1, 2),
                 formula="(i*k + k - 1)*(i*k + 1)/2"),
    ]
    if abs(k) == 2:
        rows.append(TableRow(f"k={k} all of C", all_c=True, formula="C"))
    if k == 5:
        rows.extend(_k5_rows(k5_variant))
    elif k in _SPORADIC:
        rows.extend(_SPORADIC[k])
    return tuple(rows)


@dataclass
class MoralesVerdict:
    admissible: bool
    k: int
    lam: Fraction
    witness: Optional[tuple] = None       # (row_id, i) re-evaluating to lam
    certificate: Optional[list] = None    # per-row discriminant data

    def to_json(self) -> dict:
        out = {"k": self.k, "lambda": str(self.lam), "admissible": self.admissible}
        if self.witness is not None:
            out["witness"] = {"row": self.witness[0], "i": self.witness[1]}
        if self.certificate is not None:
            out["certificate"] = [{"row": c["row"], "discriminant": str(c["discriminant"])}
                                  for c in self.certificate]
        return out


def _solve_row(row: TableRow, lam: Fraction):
    """Integer solutions of row.value(i) = lam plus the discriminant."""
    disc = row.B * row.B - 4 * row.A * (row.C - lam)
    sols = []
    root = rational_sqrt(disc)
    if root is not None:
        for sgn in (1, -1) if root != 0 else (1,):
            i = (-row.B + sgn * root) / (2 * row.A)
            if i.denominator == 1:
                sols.append(int(i))
    return sols, disc


def admissible(k: int, lam, k5_variant: str = K5_PRINTED) -> MoralesVerdict:
    """Exact membership of (k, lambda) in the table.

    lam must be an exact rational; floats go through
    reconstruct_rational first.
    """
    if k == 0:
        raise ValueError("degree k = 0 has no table")
    if isinstance(lam, float):
        raise TypeError("lam must be exact; use reconstruct_rational for floats")
    lam = Q(lam)
    certificate = []
    for row in table_rows(k, k5_variant):
        if row.all_c:
            return MoralesVerdict(True, k, lam, witness=(row.row_id, 0))
        sols, disc = _solve_row(row, lam)
        if sols:
            i = sols[0]
            assert row.value(i) == lam
            return MoralesVerdict(True, k, lam, witness=(row.row_id, i))
        certificate.append({"row": row.row_id, "discriminant": disc})
    return MoralesVerdict(False, k, lam, certificate=certificate)


def reconstruct_rational(x: float, max_denominator: int = 64,
                         tol: float = 1e-9) -> Optional[Fraction]:
    """Small-denominator rational near x, or None when indeterminate."""
    from math import isfinite
    if not isfinite(x):
        return None
    cand = Q(x).limit_denominator(max_denominator)
    if abs(x - float(cand)) < tol:
        return cand
    return None


@dataclass
class PointVerdict:
    """The table's answer for one Hessian eigenvalue."""

    status: str                     # ST_ADMISSIBLE, ST_INADMISSIBLE or ST_INDETERMINATE
    lam: object = None              # Fraction when decided exactly, else float
    morales: Optional[MoralesVerdict] = None
    reason: str = ""

    @property
    def lam_exact(self) -> bool:
        return isinstance(self.lam, Fraction)

    def to_json(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.lam is not None:
            out["lambda"] = str(self.lam) if self.lam_exact else self.lam
            out["lambda_exact"] = self.lam_exact
        if self.morales is not None:
            out["morales"] = self.morales.to_json()
        return out


def eigenvalue_verdict(k: int, lam, k5_variant: str = K5_PRINTED) -> PointVerdict:
    """Decide the Hessian eigenvalue lam of a degree-k potential against the
    table: lam is a GaussianRational when exact, else a float or complex.

    For |k| = 2 the all-of-C row admits a float or non-real lam as it is,
    never rounded; a non-real lam is not reported."""
    z = None if isinstance(lam, GaussianRational) else complex(lam)
    real = lam.is_real() if z is None else abs(z.imag) <= 1e-8 * max(1.0, abs(z))
    if abs(k) == 2 and (z is not None or not real):
        return PointVerdict(ST_ADMISSIBLE, lam=z.real if real else None,
                            reason=f"the k={k} row admits all of C")
    if not real:
        return PointVerdict(ST_INADMISSIBLE,
                            reason="non-real Hessian eigenvalue (table rows are real)")
    if z is None:
        lam_q, reason = lam.re, "exact rational eigenvalue"
    else:
        lam_q = reconstruct_rational(z.real, MAX_DENOMINATOR)
        if lam_q is None:
            return PointVerdict(ST_INDETERMINATE, lam=z.real,
                                reason="eigenvalue not recognizably rational")
        reason = f"rational reconstruction of {z.real!r}"
    verdict = admissible(k, lam_q, k5_variant)
    return PointVerdict(ST_ADMISSIBLE if verdict.admissible else ST_INADMISSIBLE,
                        lam=lam_q, morales=verdict, reason=reason)


def admissible_values_at_most(k: int, bound: Fraction,
                              k5_variant: str = K5_PRINTED) -> dict:
    """All admissible lambda <= bound, as {lambda: (row_id, i)}.

    Each row is a positive-leading-coefficient quadratic in i, so its
    sublevel set {lambda(i) <= bound} is a finite integer interval,
    enumerated exactly.
    """
    if abs(k) == 2:
        raise ValueError("k = +-2 admits every lambda; no finite enumeration")
    out = {}
    for row in table_rows(k, k5_variant):
        # solve A i^2 + B i + (C - bound) <= 0 exactly
        disc = row.B * row.B - 4 * row.A * (row.C - Q(bound))
        if disc < 0:
            continue
        from math import floor, ceil, sqrt
        r = sqrt(float(disc))
        lo = (-float(row.B) - r) / (2 * float(row.A))
        hi = (-float(row.B) + r) / (2 * float(row.A))
        for i in range(floor(lo) - 2, ceil(hi) + 3):  # float guard margin
            val = row.value(i)
            if val <= bound and val not in out:
                out[val] = (row.row_id, i)
    return out

