"""Polar geometry of V = r^k U(theta): critical points and the extremum.

Every critical point theta0 of U with U(theta0) != 0 gives a Darboux
point of V with spectrum {k(k-1), U''(theta0)/U(theta0) + k}.  A
`TrigPoly` T of top frequency M holds its Laurent coefficients in
z = e^{i theta}, so T = P(z)/z^M for the polynomial P = `T.z_poly()`.
The critical points are the roots of z^M U' on the unit circle, with
their exact multiplicities, and U and U'' share M, so
lambda = k + P_U''(z)/P_U(z) is exact whenever z is in Q(i), at any
angle.

Choosing the extremum by the sign pattern of max U / min U guarantees
U(theta0) != 0 and lambda = k + U''/U <= k there, with equality exactly
at a multiple root of z^M U'.  For k < 0, k != -2 no table value lies
below k: every row is lambda = (tau^2 - (k-2)^2)/8 with tau on a
progression a + b Z, so lambda <= k holds exactly when
tau^2 <= (k+2)^2.  Within that bound lie only tau = +-(k+2) on family 1
(k - 2 + 2k Z) and, when k = -1, on family 2 (the odd multiples of k);
both give lambda = k.  The nearest tau of each sporadic progression, 2,
3/2, 6/5, 12/5 (k = -3), 8/3 (k = -4) and 10/3, 4 (k = -5), exceeds
|k+2|.  So a simple extremum makes r^k U non-integrable: `report.analyze`
decides every k < 0 by this theorem, and `report.polar_summary` reads its
verdict out at theta0.  Degree -2 is unconditionally integrable."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .potential import PotentialError, TrigPoly
from .scalars import GaussianRational, is_exact
from .upoly import roots

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
        theta = cmath.phase(complex(z)) % (2 * math.pi)
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
    c0 = complex(U.const).real
    vmax, vmin = c0 + wmax, c0 + wmin
    tol = 1e-12 * max(abs(vmax), abs(vmin))  # relative: the rule ignores the scale of U
    # max U >= min U >= 0 or max U > 0 > min U: the maximum; 0 >= max U: the minimum
    target = wmax if vmin >= -tol or vmax >= tol else wmin
    tie = 1e-12 * max(abs(wmax), abs(wmin))
    return next(p for p, v in zip(crits, values) if abs(v - target) <= tie)
