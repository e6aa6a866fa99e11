"""Polar geometry of V = r^k U(theta) and the verdict at its extremal point.

Every critical point theta0 of U with U(theta0) != 0 gives a Darboux
point of V with spectrum {k(k-1), U''(theta0)/U(theta0) + k}.  A
`TrigPoly` T of top frequency M holds its Laurent coefficients in
z = e^{i theta}, so T = P(z)/z^M for the polynomial P = `T.z_poly()`.
The critical points are the roots of z^M U' on the unit circle, with
their exact multiplicities, and U and U'' share M, so
lambda = k + P_U''(z)/P_U(z) is exact whenever z is in Q(i), at any
angle.  Choosing the extremum by the sign pattern of max U / min U
guarantees U(theta0) != 0 and a second eigenvalue <= k, from which
`analyze_polar` decides r^k U for every k < 0; `report.analyze` applies
the same theorem.  Degree -2 is unconditionally integrable."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .morales import K5_PRINTED, ST_INADMISSIBLE, PointVerdict, eigenvalue_verdict
from .potential import PotentialError, TrigPoly
from .scalars import GaussianRational, is_exact, to_complex
from .upoly import roots

RADIAL_INTEGRABLE = "radial_integrable"
DEGREE_MINUS_TWO = "degree_minus_two_integrable"
NON_INTEGRABLE = "non_integrable"
MULTIPLE_POINT = "multiple_point_found"

CRITICAL_RESIDUAL_TOL = 1e-10


class PolarError(PotentialError):
    pass


class CriticalPoint(NamedTuple):
    """A critical angle theta of U with z = e^{i theta} and the multiplicity
    m of z as a root of z^M U'."""

    theta: float
    z: object                 # GaussianRational (exact) or complex
    multiplicity: int


def critical_points(U: TrigPoly) -> list:
    """The critical points of U in [0, 2pi), sorted by angle: the roots z
    of z^M U' on the unit circle, exactly on it when z is in Q(i)."""
    if not is_exact(U.coeffs.values()):
        raise PolarError("critical points require exact coefficients")
    if not U.is_real():
        raise PolarError("U must have real coefficients")
    dU = U.derivative()
    if dU.is_constant():
        raise PolarError("U is constant: every angle is critical (radial case)")
    out = []
    for root in roots(dU.z_poly()):
        z = root.value
        if not (z.norm2() == 1 if root.exact else abs(abs(z) - 1.0) <= 1e-8):
            continue
        if not root.exact:
            z = z / abs(z)
        theta = cmath.phase(to_complex(z)) % (2 * math.pi)
        if not root.exact and abs(dU.evaluate(theta)) > CRITICAL_RESIDUAL_TOL * dU.norm1():
            raise PolarError(f"critical point residual too large at theta={theta}")
        out.append(CriticalPoint(theta, z, root.multiplicity))
    return sorted(out, key=lambda p: p.theta)


def value_at(T: TrigPoly, z):
    """T(theta) at z = e^{i theta} on the unit circle, from z^M T: exact
    when z is in Q(i), else a float; real when T is."""
    w = T.z_poly()(z) / z ** T.max_frequency()
    return w if isinstance(w, GaussianRational) else w.real


def eigenvalue_at(U: TrigPoly, k: int, z):
    """lambda = U''(theta)/U(theta) + k at z = e^{i theta}; U and U'' share
    the factor z^M, so lambda is exact when z is in Q(i)."""
    lam = k + U.derivative().derivative().z_poly()(z) / U.z_poly()(z)
    return lam if isinstance(lam, GaussianRational) else lam.real


def select_extremum(U: TrigPoly) -> CriticalPoint:
    """The critical point theta0 by the three-case sign rule; ties break to
    the smallest angle.  Ties are within 1e-12 max |U - c0| on the values
    of U - c0, the part of U that varies, whatever the size of c0.

    Guarantees U(theta0) != 0, U'(theta0) = 0 and U''(theta0)/U(theta0) <= 0.
    """
    if U.is_constant():
        raise PolarError("U is constant (radial case)")
    crits = critical_points(U)
    rest = TrigPoly._laurent({j: v for j, v in U.coeffs.items() if j})
    values = [rest.evaluate(p.theta) for p in crits]
    wmax, wmin = max(values), min(values)
    c0 = to_complex(U.const).real
    vmax, vmin = c0 + wmax, c0 + wmin
    tol = 1e-12 * max(abs(vmax), abs(vmin))  # relative: the rule ignores the scale of U
    # max U >= min U >= 0 or max U > 0 > min U: the maximum; 0 >= max U: the minimum
    target = wmax if vmin >= -tol or vmax >= tol else wmin
    tie = 1e-12 * max(abs(wmax), abs(wmin))
    return next(p for p, v in zip(crits, values) if abs(v - target) <= tie)


@dataclass
class PolarVerdict:
    classification: str
    k: int
    theta0: Optional[float] = None
    point: object = None              # morales.PointVerdict at theta0
    note: str = ""

    def to_json(self) -> dict:
        out = {"classification": self.classification, "k": self.k, "note": self.note}
        if self.theta0 is not None:
            out["theta0"] = self.theta0
        if self.point is not None:
            point = self.point.to_json()
            if self.classification == MULTIPLE_POINT:
                point.pop("morales", None)  # the theorem decides a multiple point, not the table
            out.update((key, point[key]) for key in ("lambda", "lambda_exact", "morales")
                       if key in point)
        return out


def analyze_polar(U: TrigPoly, k: int, k5_variant: str = K5_PRINTED) -> PolarVerdict:
    """Integrability verdict for V = r^k U(theta) with k < 0.

    At the extremum, lambda = k + U''/U <= k, with equality exactly at a
    multiple root of z^M U'.  For k != -2 no table value lies below k, so a
    simple root is not integrable.  Every row is lambda = (tau^2 - (k-2)^2)/8
    with tau on a progression a + b Z, so lambda <= k holds exactly when
    tau^2 <= 8k + (k-2)^2 = (k+2)^2.  Within that bound lie only
    tau = +-(k+2) on family 1 (k - 2 + 2k Z) and, when k = -1, on family 2
    (the odd multiples of k); both give lambda = k.  The nearest tau of each
    sporadic progression, 2, 3/2, 6/5, 12/5 (k = -3), 8/3 (k = -4) and
    10/3, 4 (k = -5), exceeds |k+2|.  An exact lambda, or that of a
    multiple root, still goes to the table; a float lambda at a simple root
    is reported, never rounded.
    """
    if k >= 0:
        raise PolarError("the polar classification applies to negative degrees only")
    if not U.is_real():
        raise PolarError("U must have real coefficients")
    if k == -2:
        return PolarVerdict(DEGREE_MINUS_TWO, k,
                            note="every planar homogeneous potential of degree -2 "
                                 "is meromorphically integrable")
    if U.is_constant():
        if U.const.is_zero():
            raise PolarError("U is identically zero")
        return PolarVerdict(RADIAL_INTEGRABLE, k,
                            note="rotation-invariant potential; the angular momentum "
                                 "is a first integral")
    theta0, z0, m = select_extremum(U)
    lam = eigenvalue_at(U, k, z0)
    if m > 1:
        return PolarVerdict(MULTIPLE_POINT, k, theta0, eigenvalue_verdict(k, lam, k5_variant),
                            "U''(theta0) = 0: multiple Darboux point; only the "
                            "rotation-invariant potential is integrable with one")
    point = (eigenvalue_verdict(k, lam, k5_variant) if isinstance(lam, GaussianRational) else
             PointVerdict(ST_INADMISSIBLE, lam=lam, reason="lambda < k at a simple extremum of U"))
    return PolarVerdict(NON_INTEGRABLE, k, theta0, point,
                        "Hessian eigenvalue at the extremal Darboux point is not in the "
                        "admissibility table")
