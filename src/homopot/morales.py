"""Admissible Hessian eigenvalues at Darboux points (the integrability table).

For a potential of degree k and eigenvalue lambda, meromorphic
integrability forces (k, lambda) into a fixed table: two families in an
integer parameter i valid for every nonzero k, sporadic rows for |k| in
{3,4,5}, and everything for k = +-2.  Every row but the last has one
square form, lambda = (tau^2 - (k-2)^2)/8 with tau = a + b*i on an
arithmetic progression, so membership takes one exact square root per
lambda, tau = +-sqrt(8 lambda + (k-2)^2), and asks of each row whether
(tau - a)/b is an integer.

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
from functools import cache, cached_property
from math import isfinite, isqrt
from typing import Optional

from .scalars import GaussianRational, is_real, rational_sqrt

Q = Fraction

K5_PRINTED = "printed"
K5_TENJ = "tenj"

MAX_DENOMINATOR = 1000  # the cap when a float eigenvalue is reconstructed
RECONSTRUCT_TOL = 1e-9  # how near a float must lie to its reconstruction

ST_ADMISSIBLE = "admissible"
ST_INADMISSIBLE = "inadmissible"
ST_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class TableRow:
    """lambda(i) = (tau^2 - (k-2)^2)/8 with tau = a + b i for integer i
    (or all of C when all_c); A, B, C read it as A i^2 + B i + C."""

    row_id: str
    k: int
    a: Fraction = Q(0)
    b: Fraction = Q(0)
    formula: str = ""
    all_c: bool = False

    def value(self, i: int) -> Fraction:
        return ((self.a + self.b * i) ** 2 - (self.k - 2) ** 2) / 8

    @cached_property
    def discriminant_scale(self) -> Fraction:
        """b^2/16: the discriminant of A i^2 + B i + C = lambda is this
        times t = 8 lambda + (k-2)^2."""
        return self.b * self.b / 16

    @property
    def A(self) -> Fraction:
        return self.b * self.b / 8

    @property
    def B(self) -> Fraction:
        return self.a * self.b / 4

    @property
    def C(self) -> Fraction:
        return (self.a * self.a - (self.k - 2) ** 2) / 8

    def to_json(self) -> dict:
        if self.all_c:
            return {"row": self.row_id, "lambda": "C", "formula": self.formula}
        return {"row": self.row_id, "A": str(self.A), "B": str(self.B),
                "C": str(self.C), "formula": self.formula}


# a printed (o + s i)^2/8 row is tau = o + s i; a printed (o + s i)^2/2 row
# (k = +-4) is tau = 2o + 2s i
_SPORADIC = {
    -5: (TableRow("k=-5 sporadic a", -5, Q(10, 3), Q(10), "-49/8 + (10/3 + 10i)^2/8"),
         TableRow("k=-5 sporadic b", -5, Q(4), Q(10), "-49/8 + (4 + 10i)^2/8")),
    -4: (TableRow("k=-4 sporadic", -4, Q(8, 3), Q(8), "-9/2 + (4/3 + 4i)^2/2"),),
    -3: (TableRow("k=-3 sporadic a", -3, Q(2), Q(6), "-25/8 + (2 + 6i)^2/8"),
         TableRow("k=-3 sporadic b", -3, Q(3, 2), Q(6), "-25/8 + (3/2 + 6i)^2/8"),
         TableRow("k=-3 sporadic c", -3, Q(6, 5), Q(6), "-25/8 + (6/5 + 6i)^2/8"),
         TableRow("k=-3 sporadic d", -3, Q(12, 5), Q(6), "-25/8 + (12/5 + 6i)^2/8")),
    3: (TableRow("k=3 sporadic a", 3, Q(2), Q(6), "-1/8 + (2 + 6i)^2/8"),
        TableRow("k=3 sporadic b", 3, Q(3, 2), Q(6), "-1/8 + (3/2 + 6i)^2/8"),
        TableRow("k=3 sporadic c", 3, Q(6, 5), Q(6), "-1/8 + (6/5 + 6i)^2/8"),
        TableRow("k=3 sporadic d", 3, Q(12, 5), Q(6), "-1/8 + (12/5 + 6i)^2/8")),
    4: (TableRow("k=4 sporadic", 4, Q(8, 3), Q(8), "-1/2 + (4/3 + 4i)^2/2"),),
    5: (TableRow("k=5 sporadic a", 5, Q(10, 3), Q(10), "-9/8 + (10/3 + 10i)^2/8"),),
}

_K5_B = {
    K5_PRINTED: TableRow("k=5 sporadic b (printed)", 5, Q(4), Q(6), "-9/8 + (4 + 6i)^2/8"),
    K5_TENJ: TableRow("k=5 sporadic b (tenj)", 5, Q(4), Q(10), "-9/8 + (4 + 10i)^2/8"),
}


def check_k5_variant(k5_variant: str):
    """Refuse a k5_variant that names no shipped k = 5 row, whatever k is."""
    if k5_variant not in _K5_B:
        raise ValueError(f"unknown k5 variant {k5_variant!r}")


@cache
def table_rows(k: int, k5_variant: str = K5_PRINTED) -> tuple:
    """Every table row applicable to degree k, built once per (k, variant)
    and shared: a tuple of frozen rows, so no caller can change it."""
    if k == 0:
        raise ValueError("degree k = 0 has no table")
    check_k5_variant(k5_variant)
    rows = [
        TableRow("family 1", k, Q(k - 2), Q(2 * k), "i*k*(i*k + k - 2)/2"),
        TableRow("family 2", k, Q(k), Q(2 * k), "(i*k + k - 1)*(i*k + 1)/2"),
    ]
    if abs(k) == 2:
        rows.append(TableRow(f"k={k} all of C", k, formula="C", all_c=True))
    rows.extend(_SPORADIC.get(k, ()))
    if k == 5:
        rows.append(_K5_B[k5_variant])
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


def admissible(k: int, lam, k5_variant: str = K5_PRINTED) -> MoralesVerdict:
    """Exact membership of (k, lambda) in the table.

    lam must be an exact rational; floats go through
    reconstruct_rational first.  With t = 8 lam + (k-2)^2, a row admits
    lam when tau = sqrt(t) is rational and (+-tau - a)/b is an integer; the
    witness is the larger such i.  An inadmissible verdict carries each
    row's discriminant b^2 t/16 of A i^2 + B i + C = lam.
    """
    rows = table_rows(k, k5_variant)
    if isinstance(lam, float):
        raise TypeError("lam must be exact; use reconstruct_rational for floats")
    lam = Q(lam)
    t = 8 * lam + (k - 2) ** 2
    tau = rational_sqrt(t)
    certificate = []
    for row in rows:
        if row.all_c:
            return MoralesVerdict(True, k, lam, witness=(row.row_id, 0))
        if tau is not None:
            sols = [i for i in ((tau - row.a) / row.b, (-tau - row.a) / row.b)
                    if i.denominator == 1]
            if sols:
                i = int(max(sols))
                assert row.value(i) == lam
                return MoralesVerdict(True, k, lam, witness=(row.row_id, i))
        certificate.append({"row": row.row_id, "discriminant": row.discriminant_scale * t})
    return MoralesVerdict(False, k, lam, certificate=certificate)


def reconstruct_rational(x: float, max_denominator: int = 64) -> Optional[Fraction]:
    """Small-denominator rational near x, or None when indeterminate."""
    if not isfinite(x):
        return None
    cand = Q(x).limit_denominator(max_denominator)
    if abs(x - float(cand)) < RECONSTRUCT_TOL:
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
    real = is_real(lam)
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

    lambda <= bound holds exactly when tau^2 <= T = 8 bound + (k-2)^2, so
    each row's i form the integer interval around its vertex -a/b on
    which |a + b i| <= sqrt(T), found exactly from isqrt(floor(T)).
    """
    if abs(k) == 2:
        raise ValueError("k = +-2 admits every lambda; no finite enumeration")
    rows = table_rows(k, k5_variant)
    T = 8 * Q(bound) + (k - 2) ** 2
    out = {}
    if T < 0:
        return out
    R = isqrt(T.numerator // T.denominator)   # R <= sqrt(T) < R + 1

    def last(a, b):
        # the largest i with a + b i <= sqrt(T); for b >= 1 the start
        # overshoots it by at most one
        i = (R + 1 - a) // b
        return i - 1 if a + b * i > 0 and (a + b * i) ** 2 > T else i

    for row in rows:
        a, b = (row.a, row.b) if row.b > 0 else (-row.a, -row.b)
        for i in range(-last(-a, b), last(a, b) + 1):
            out.setdefault(row.value(i), (row.row_id, i))
    return out
