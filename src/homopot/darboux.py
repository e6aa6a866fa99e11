"""Darboux points: location, classification, and normalization.

A Darboux point of a degree-k potential V solves grad V(c) = k c.  The
solver projectivizes first: the Darboux directions d are the roots
(1, s) of the direction polynomial W, and (0, 1) when grad V(0, 1) is
a multiple of it.  Each direction is classified from one jet at d: with
grad V(d) = mu d and rho = k/mu, the point is c = gamma d with
gamma^(k-2) = rho on the principal branch, and Hess V(c) = rho Hess V(d).
So the Hessian spectrum {k(k-1), lambda} and the multiple-point test
come from d alone, and are exact whenever d is, even when gamma (and so
c) is irrational; floats enter only for irrational directions and the
polar kind.  A point is multiple exactly when lambda = k, equivalently
when det(Hess - k I) vanishes, equivalently when the Jacobian of
q -> grad V(q) - kq drops rank.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .potential import (Potential, PotentialError, SingularPointError, jet_at,
                        transform, rotation_to_axis, POLYNOMIAL, RATIONAL, RADIAL, POLAR)
from .scalars import GaussianRational, rational_nth_root, scalar_is_zero, to_complex
from .upoly import UPoly, roots

RESIDUAL_TOL = 1e-10
MULTIPLE_DET_TOL = 1e-9


class DarbouxError(PotentialError):
    pass


@dataclass
class DarbouxPoint:
    """A solution of grad V(c) = kc with its spectral data."""

    c: tuple
    spectrum: tuple               # (k(k-1), lambda)
    multiple: bool
    isotropic: bool
    direction_multiplicity: int = 1
    lambda_cap: object = None     # Lambda(c): real lambda, else -inf
    exact: bool = True
    residual: float = 0.0
    degenerate_direction: Optional[tuple] = None

    @property
    def eigenvalue(self):
        return self.spectrum[1]

    def to_json(self) -> dict:
        lam = self.spectrum[1]
        return {
            "c": [_scalar_json(t) for t in self.c],
            "spectrum": [_scalar_json(self.spectrum[0]), _scalar_json(lam)],
            "multiple": self.multiple,
            "isotropic": self.isotropic,
            "direction_multiplicity": self.direction_multiplicity,
            "lambda_cap": ("-inf" if self.lambda_cap == float("-inf")
                           else _scalar_json(self.lambda_cap)),
            "exact": self.exact,
            "residual": self.residual,
        }


def _scalar_json(v):
    if isinstance(v, GaussianRational):
        return str(v) if v.im != 0 else str(v.re)
    if isinstance(v, (int, Fraction)):
        return str(v)
    z = complex(v)
    if z.imag == 0:
        return z.real
    return {"re": z.real, "im": z.imag}


@dataclass
class DarbouxSet:
    points: list
    continuum: bool = False
    degenerate_directions: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "continuum": self.continuum,
            "points": [p.to_json() for p in self.points],
            "degenerate_directions": [[_scalar_json(t) for t in d]
                                      for d in self.degenerate_directions],
        }


def _check_analysis_degree(V: Potential):
    if V.degree in (0, 2):
        raise DarbouxError(f"degree k={V.degree} is excluded from the analysis")


def direction_polynomial(V: Potential) -> UPoly:
    """W(s) = numerator of s*d1V(1,s) - d2V(1,s); roots are directions (1,s)."""
    if V.kind not in (POLYNOMIAL, RATIONAL):
        raise DarbouxError("direction polynomial requires a polynomial or rational potential")
    _check_analysis_degree(V)
    if V.kind == POLYNOMIAL:
        p1 = V.poly.partial(0).restrict_line()
        p2 = V.poly.partial(1).restrict_line()
        s = UPoly([GaussianRational(0), GaussianRational(1)])
        return s * p1 - p2
    # rational kind: grad V = (P' Q - P Q')/Q^2; the common Q^2 drops out
    g1 = _grad_component_numer(V.num, V.den, 0)
    g2 = _grad_component_numer(V.num, V.den, 1)
    s = UPoly([GaussianRational(0), GaussianRational(1)])
    return s * g1 - g2


def _grad_component_numer(num, den, axis) -> UPoly:
    """Numerator of dV/dq_axis for V = num/den, restricted to (1, s)."""
    a = num.partial(axis).restrict_line() * den.restrict_line()
    b = num.restrict_line() * den.partial(axis).restrict_line()
    return a - b


def _principal_scaling(rho, m: int):
    """gamma with gamma^m = rho, principal branch; exact when possible.

    Other branches give rotation-equivalent Darboux points and are not
    enumerated.  A negative real rho keeps the principal (complex) root,
    also when its float imaginary part is -0.0.
    """
    if m == 0:
        raise DarbouxError("degree k=2 has no radial scaling")
    if isinstance(rho, GaussianRational):
        if m in (1, -1):
            return rho if m == 1 else GaussianRational(1) / rho
        if m in (2, -2):
            base = rho if m == 2 else GaussianRational(1) / rho
            sq = base.sqrt_exact()  # the exact branch agrees with the principal root
            if sq is not None:
                return sq
        if rho.is_real() and rho.re > 0:
            base = rho.re if m > 0 else Fraction(1) / rho.re
            ex = rational_nth_root(base, abs(m))
            if ex is not None:
                return GaussianRational(ex)
    z = to_complex(rho) + 0j  # -0.0 + 0.0 = 0.0: the log takes arg pi, not -pi
    if z == 0:
        raise DarbouxError("zero scaling candidate")
    return cmath.exp(cmath.log(z) / m)


DEGENERATE = "degenerate"


def _classify_direction(V: Potential, d, multiplicity: int = 1,
                        residual_tol: float = RESIDUAL_TOL, on_point: bool = False):
    """The Darboux point on the direction d, classified from one jet at d.

    With grad V(d) = mu d and rho = k/mu, the point is c = gamma d with
    gamma^(k-2) = rho, and Hess V(c) = rho Hess V(d).  So lambda and the
    multiple-point test are exact whenever d is; gamma only places c.
    With on_point, d is the point itself: mu must be k, and gamma = 1.

    Returns DEGENERATE when |mu| <= 1e-12 (no finite point on d), and
    None when d is exact and grad V(d) is not a multiple of d.
    """
    k = V.degree
    jet = jet_at(V, d, 1)
    exact = jet.exact
    d0, d1 = jet.base_point
    g1, g2 = jet.gradient()
    if on_point:
        mu = GaussianRational(k)  # rho = gamma = 1
    else:
        mu = g2 / d1 if scalar_is_zero(d0) else g1 / d0  # d is (1, s) or (0, 1)
    r1, r2 = g1 - mu * d0, g2 - mu * d1  # grad V(c) - kc = gamma^(k-1) (r1, r2)
    if exact and not (r1.is_zero() and r2.is_zero()):
        return None
    if scalar_is_zero(mu, 1e-12):
        return DEGENERATE
    rho = k / mu
    gamma = _principal_scaling(rho, k - 2)
    c = (gamma * d0, gamma * d1)
    if exact:
        residual = 0.0
    else:
        residual = abs(to_complex(gamma)) ** (k - 1) * max(abs(r1), abs(r2))
        scale = max(1.0, abs(k) * max(abs(to_complex(c[0])), abs(to_complex(c[1]))))
        if residual > residual_tol * scale:
            raise DarbouxError(f"{c} is not a Darboux point (residual {residual:.2e})")

    (h11, h12), (_, h22) = jet.hessian()
    h11, h12, h22 = rho * h11, rho * h12, rho * h22
    kk1 = k * (k - 1)
    lam = h11 + h22 - kk1  # trace minus the forced eigenvalue
    det = (h11 - k) * (h22 - k) - h12 * h12
    if exact:
        multiple = det.is_zero()
        lam_cap = lam.re if lam.is_real() else float("-inf")
    else:
        scale = max(1.0, abs(h11), abs(h12), abs(h22)) ** 2
        multiple = abs(det) < MULTIPLE_DET_TOL * scale
        lam_real = abs(lam.imag) < 1e-9 * max(1.0, abs(lam))
        lam_cap = lam.real if lam_real else float("-inf")

    iso = scalar_is_zero(d0 * d0 + d1 * d1, 1e-10)
    return DarbouxPoint(
        c=c, spectrum=(GaussianRational(kk1) if exact else complex(kk1), lam),
        # spectrum {k(k-1), k(k-1)} (k != 2) at an isotropic point: never multiple
        multiple=multiple and not iso, isotropic=iso,
        direction_multiplicity=multiplicity, lambda_cap=lam_cap,
        exact=all(isinstance(t, GaussianRational) for t in c), residual=residual)


def classify(V: Potential, c, direction_multiplicity: int = 1,
             residual_tol: float = RESIDUAL_TOL) -> DarbouxPoint:
    """Hessian spectrum and multiplicity flags at a (verified) Darboux point."""
    _check_analysis_degree(V)
    p = _classify_direction(V, c, direction_multiplicity, residual_tol, on_point=True)
    if p is None:
        raise DarbouxError(f"{c} is not a Darboux point: grad V(c) != kc")
    return p


def _is_radial_polynomial(V: Potential):
    """The exact radial coefficient a when V == a*(q1^2+q2^2)^(k/2), else None."""
    if V.kind != POLYNOMIAL or V.degree % 2 != 0 or V.degree < 2:
        return None
    m = V.degree // 2
    from math import comb
    lead = V.poly.terms.get((V.degree, 0))
    if lead is None:
        return None
    expected = {}
    for t in range(m + 1):
        expected[(2 * (m - t), 2 * t)] = lead * comb(m, t)
    return lead if expected == V.poly.terms else None


def find_darboux_points(V: Potential, residual_tol: float = RESIDUAL_TOL) -> DarbouxSet:
    """All Darboux points of V (one representative for radial continuums)."""
    _check_analysis_degree(V)
    one = GaussianRational(1)
    if V.kind == RADIAL:
        # a * gamma^(k-2) = 1 picks the circle radius of the Darboux continuum
        point = _classify_direction(V, (one, GaussianRational(0)))
        return DarbouxSet(points=[point], continuum=True)
    if V.kind == POLAR:
        return _polar_darboux_points(V, residual_tol)

    W = direction_polynomial(V)
    if W.is_zero():
        a = _is_radial_polynomial(V)
        if a is not None:
            return find_darboux_points(Potential.radial(a, V.degree))
        raise DarbouxError(
            "every direction solves the direction equation but the potential "
            "is not radial: degenerate input")

    points = []
    degenerate = []
    try:
        directions = [((one if r.exact else 1.0 + 0j, r.value), r.multiplicity)
                      for r in roots(W)]
        # the direction (0, 1) escapes the (1, s) chart: one more candidate
        directions.append(((GaussianRational(0), one), 1))
        for d, m in directions:
            try:
                p = _classify_direction(V, d, m, residual_tol)
            except SingularPointError:
                continue  # on the denominator's zero set: not a direction
            if p is DEGENERATE:
                degenerate.append(d)
            elif p is not None:
                points.append(p)
    except OverflowError as exc:
        raise DarbouxError(f"a Darboux direction is beyond double precision: {exc}") from exc

    points.sort(key=_point_sort_key)
    return DarbouxSet(points=points, continuum=False, degenerate_directions=degenerate)


def _polar_darboux_points(V: Potential, residual_tol: float = RESIDUAL_TOL) -> DarbouxSet:
    from .polar import critical_points
    if V.U.is_constant():
        return find_darboux_points(Potential.radial(V.U.const, V.degree))
    k = V.degree
    pts = []
    for theta in critical_points(V.U):
        u = V.U.evaluate(theta)
        if abs(complex(u)) < 1e-12:
            continue  # U(theta0)=0 gives no finite Darboux point on this ray
        radius = complex(u) ** (1.0 / (2 - k))
        import math
        c = (radius * math.cos(theta), radius * math.sin(theta))
        pts.append(classify(V, c, residual_tol=residual_tol))
    pts.sort(key=_point_sort_key)
    return DarbouxSet(points=pts, continuum=False)


def _point_sort_key(p: DarbouxPoint):
    z0, z1 = to_complex(p.c[0]), to_complex(p.c[1])
    return (round(z0.real, 10), round(z0.imag, 10), round(z1.real, 10), round(z1.imag, 10))


def normalize(V: Potential, point) -> tuple:
    """Rotate-and-rescale so the Darboux point sits at (1, 0) with V = 1.

    Returns (V', (1,0)); the jet of V' at the new point starts
    1 + k q1 + k(k-1) q1^2/2 + lambda q2^2/2 + O(q^3).
    """
    _check_analysis_degree(V)
    c = point.c if isinstance(point, DarbouxPoint) else tuple(point)
    R, gamma = rotation_to_axis(c[0], c[1])
    scale = gamma ** (V.degree - 2)
    Vn = transform(V, R, scale)
    new_c = (GaussianRational(1), GaussianRational(0)) if isinstance(gamma, GaussianRational) else (1.0 + 0j, 0j)
    # re-verify: the normalized point must still solve the Darboux equations
    classify(Vn, new_c)
    return Vn, new_c
