"""Darboux points: location, classification, and normalization.

A Darboux point of a degree-k potential V solves grad V(c) = k c.  On
the line (1, s), grad V = (g1, g2)/Q(1, s)^2 for V = P/Q (Q = 1 for a
polynomial), so the Darboux directions are the roots of the direction
polynomial W = s g1 - g2, with exact multiplicities m.  Each one is
classified from W alone: grad V(1, s) = mu (1, s) with
mu = g1(s)/Q(1, s)^2, the point is c = gamma (1, s) with
gamma^(k-2) = k/mu (principal branch), and the Hessian at c has the
spectrum {k(k-1), lambda} with lambda = k - k W'(s)/g1(s), because
Hess V(1, s) has the eigenvalue mu (1 - W'(s)/g1(s)) on (-s, 1).  So the
point is multiple (lambda = k) exactly when m >= 2, unless s^2 = -1
(isotropic).  The direction (0, 1) is the root t = 0 of -t^n W(1/t),
n = deg P + deg Q, of multiplicity n - deg W, with
lambda = k + k W_(n-1)/(g2)_(n-1).  W == 0 means V is rotation-invariant.
A root that W shares with q = Q(1, s) is a pole direction, not a Darboux
one (a factor of q of multiplicity e divides W to the power e - 1): every
such root is divided out of W exactly before `roots` runs, while W and W'
themselves still give lambda and the direction (0, 1).

For the polar kind V = r^k U(theta), grad V(d) = k U d + U' d_perp on
the unit direction d = (Re z, Im z), z = e^{i theta}.  The Darboux
directions are the roots z of z^M U' on the unit circle (`polar`), with
exact multiplicities m: mu = k U(theta), lambda = k + U''/U, and the
point is multiple exactly when m >= 2 (never isotropic).

lambda and the multiple test are exact whenever the direction is, even
when gamma (and so c) is irrational; floats enter only for irrational
directions.  gamma is `scalars.principal_root(k/mu, k - 2)`, exact when
it lies in Q(i); a point whose c, lambda or residual is not finite in
doubles is a DarbouxError.  No jet is taken: `classify` reads the
spectrum off the jet at a given point, for `normalize` and as a
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .polar import critical_points, eigenvalue_at, value_at
from .potential import (POLYNOMIAL, Potential, PotentialError, TrigPoly, jet_at, transform,
                        rotation_to_axis)
from .scalars import (GaussianRational, is_exact, is_finite, is_real, point_text, principal_root,
                      scalar_is_zero)
from .upoly import UPoly, coprime_mod_p, roots

RESIDUAL_TOL = 1e-10
MULTIPLE_DET_TOL = 1e-9  # float c in `classify` only
_ZERO, _ONE = GaussianRational(0), GaussianRational(1)


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
    residual: float = 0.0

    @property
    def exact(self) -> bool:
        return is_exact(self.c)

    @property
    def lambda_cap(self):
        """Lambda(c): lambda when `scalars.is_real` calls it real, else -inf."""
        lam = self.spectrum[1]
        if not is_real(lam):
            return float("-inf")
        return lam.re if isinstance(lam, GaussianRational) else complex(lam).real

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
    if isinstance(v, (GaussianRational, int, Fraction)):
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


def _line_numerators(V: Potential):
    """(g1, g2, q, e): grad V(1, s) = (g1(s), g2(s)) / q(s)^2.

    For V = P/Q, p = P(1, s), q = Q(1, s) and e = deg Q; a polynomial is
    P/1.  By Euler's identity P_1 + s P_2 = deg P p on the line, and
    P_2(1, s) = p', so g2 = p' q - p q' and g1 = k p q - s g2; for a
    polynomial (q = 1) that is g2 = p' and g1 = k p - s p'.  Before the
    restriction to (1, s), g1 and g2 are homogeneous of degree n - 1
    with n = k + 2e.
    """
    if V.U is not None:
        raise DarbouxError("direction polynomial requires a polynomial or rational potential")
    _check_analysis_degree(V)
    p, q = V.num.restrict_line(), V.den.restrict_line()
    if V.kind == POLYNOMIAL:
        g2, kpq = p.derivative(), p * V.degree
    else:
        g2, kpq = p.derivative() * q - p * q.derivative(), p * q * V.degree
    return kpq - _times_s(g2), g2, q, V.den.degree


def _times_s(p: UPoly) -> UPoly:
    """s p, as a shift of the coefficients."""
    return UPoly([_ZERO, *p.coeffs])


def direction_polynomial(V: Potential) -> UPoly:
    """W(s) = numerator of s*d1V(1,s) - d2V(1,s); roots are directions (1,s)."""
    g1, g2, _, _ = _line_numerators(V)
    return _times_s(g1) - g2


def _coeff(p: UPoly, j: int):
    return p.coeffs[j] if j < len(p.coeffs) else GaussianRational(0)


def _point(k: int, c, lam, multiple: bool, iso: bool, m: int, residual: float) -> DarbouxPoint:
    """The point c with Hessian spectrum {k(k-1), lambda}, once c, lambda
    and the residual |grad V(c) - kc| are finite and the residual passes."""
    if not is_finite((*c, lam, residual)):
        raise DarbouxError("a Darboux point or its eigenvalue is beyond double range")
    if residual:
        scale = max(1.0, abs(k) * max(abs(complex(c[0])), abs(complex(c[1]))))
        if residual > RESIDUAL_TOL * scale:
            raise DarbouxError(f"{point_text(c)} is not a Darboux point (residual {residual:.2e})")
    kk1 = k * (k - 1)
    spectrum = (GaussianRational(kk1) if isinstance(lam, GaussianRational) else complex(kk1), lam)
    return DarbouxPoint(c=c, spectrum=spectrum, multiple=multiple, isotropic=iso,
                        direction_multiplicity=m, residual=residual)


def _point_on(k: int, d, mu, lam, m: int, multiple: bool, iso: bool = False,
              defect: Optional[float] = None) -> DarbouxPoint:
    """The Darboux point c = gamma d on a direction d with grad V(d) = mu d.

    gamma^(k-2) = k/mu on the principal branch; other branches give
    rotation-equivalent points and are not enumerated.  For a float
    direction, defect = |grad V(d) - mu d| gives the residual
    |grad V(c) - kc| = |gamma|^(k-1) defect.
    """
    rho = k / mu
    if scalar_is_zero(rho):
        raise DarbouxError("zero scaling candidate")
    try:
        gamma = principal_root(rho, k - 2)
    except OverflowError as exc:
        raise DarbouxError(f"no scaling gamma in double range: {exc}") from exc
    residual = 0.0 if defect is None else abs(complex(gamma)) ** (k - 1) * defect
    return _point(k, (gamma * d[0], gamma * d[1]), lam, multiple, iso, m, residual)


def classify(V: Potential, c) -> DarbouxPoint:
    """Hessian spectrum and multiplicity flags at a Darboux point c, from
    the jet at c."""
    _check_analysis_degree(V)
    k = V.degree
    jet = jet_at(V, c, 1)
    c0, c1 = jet.base_point
    g1, g2 = jet.gradient()
    r1, r2 = g1 - k * c0, g2 - k * c1
    (h11, h12), (_, h22) = jet.hessian()
    lam = h11 + h22 - k * (k - 1)  # trace minus the forced eigenvalue
    det = (h11 - k) * (h22 - k) - h12 * h12
    if jet.exact:
        if not (r1.is_zero() and r2.is_zero()):
            raise DarbouxError(f"{point_text(c)} is not a Darboux point: grad V(c) != kc")
        residual, multiple = 0.0, det.is_zero()
    else:
        residual = max(abs(r1), abs(r2))
        multiple = abs(det) < MULTIPLE_DET_TOL * max(1.0, abs(h11), abs(h12), abs(h22)) ** 2
    iso = scalar_is_zero(c0 * c0 + c1 * c1, 1e-10)
    # spectrum {k(k-1), k(k-1)} (k != 2) at an isotropic point: never multiple
    return _point(k, (c0, c1), lam, multiple and not iso, iso, 1, residual)


def _newton_point(k: int, W: UPoly, dW: UPoly, q: UPoly, g1: UPoly, s: complex,
                  m: int) -> DarbouxPoint:
    """The point on the float direction (1, s), a root of W of multiplicity
    m, whose float residual failed.  |W(s)| in doubles cannot fall below its
    rounding floor, about 2^-52 sum |W_j s^j|, and s is only as accurate as
    that; so only a failing root pays for one exact Newton step
    S - m W(S)/W'(S) from S = s, rounded to a complex s, with q, mu and
    lambda taken there and the residual from W exact at it.  When g1 or q
    rounds to 0 there, s is beyond double precision and no point is
    returned."""
    S = GaussianRational(s.real, s.imag)
    dWS = dW(S)
    if not dWS.is_zero():
        s = complex(S - m * W(S) / dWS)
        S = GaussianRational(s.real, s.imag)
    qs, g = q(s), g1(s)
    if not (qs and g):
        raise DarbouxError(f"the Darboux direction (1, {s}) is beyond double precision: "
                           f"{'g1' if qs else 'q'} rounds to 0 there")
    return _point_on(k, (1.0 + 0j, s), g / (qs * qs), k - k * dW(s) / g, m, m > 1,
                     defect=abs(complex(W(S))) / abs(qs) ** 2)


def _off_poles(W: UPoly, q: UPoly) -> UPoly:
    """W with every root it shares with q = Q(1, s) divided out, exactly:
    there Q = 0, so such a root is a pole direction, not a Darboux one.  A q
    that `coprime_mod_p` certifies coprime to W costs no exact gcd."""
    while q.degree > 0 and not coprime_mod_p(W, q):
        g = W.gcd(q)
        if g.degree == 0:
            break
        W = W // g
    return W


def _radial_coefficient(V: Potential):
    """a with V = a (q1^2+q2^2)^(k/2) for a rotation-invariant V = P/Q, read
    off as p(0): in lowest terms with q = Q(1, s) monic, p(s)/q(s) is
    a (1+s^2)^(k/2) or a/(1+s^2)^(-k/2), so q(0) = 1.  k is even, since
    r^k = V/a is rational."""
    return V.num.line.coeffs[0]


def find_darboux_points(V: Potential) -> DarbouxSet:
    """All Darboux points of V (one representative for radial continuums)."""
    _check_analysis_degree(V)
    k = V.degree
    try:
        if V.U is not None:
            return _polar_darboux_points(V.U, k)

        g1, g2, q, e = _line_numerators(V)
        W = _times_s(g1) - g2
        if W.is_zero():  # grad V(q) is a multiple of q everywhere: V = a r^k
            return _polar_darboux_points(TrigPoly(_radial_coefficient(V)), k)
        dW = W.derivative()
        points, degenerate = [], []
        for r in roots(_off_poles(W, q)):
            s, m = r.value, r.multiplicity
            qs = q(s)
            d = (_ONE if r.exact else 1.0 + 0j, s)
            mu = g1(s) / (qs * qs)
            if scalar_is_zero(mu, 1e-12):
                degenerate.append(d)  # no finite point on d
                continue
            iso = r.exact and (s * s + 1).is_zero()
            point = partial(_point_on, k, d, mu, k - k * dW(s) / g1(s), m, m > 1 and not iso, iso)
            if r.exact:
                points.append(point())
                continue
            try:
                points.append(point(abs(W(s)) / abs(qs) ** 2))
            except DarbouxError:
                points.append(_newton_point(k, W, dW, q, g1, s, m))
        # (0, 1) is the root t = 0 of -t^n W(1/t), n = k + 2e, read off exactly
        n = k + 2 * e
        q0, top = _coeff(q, e), _coeff(g2, n - 1)
        if W.degree < n and not q0.is_zero():
            if top.is_zero():
                degenerate.append((_ZERO, _ONE))
            else:
                m = n - W.degree
                lam = k + k * _coeff(W, n - 1) / top
                points.append(_point_on(k, (_ZERO, _ONE), top / (q0 * q0), lam, m, m > 1))
        points.sort(key=_point_sort_key)
    except (OverflowError, ZeroDivisionError) as exc:  # a float q(s) or g1(s) rounds to 0
        raise DarbouxError(f"a Darboux direction is beyond double precision: {exc}") from exc
    return DarbouxSet(points=points, continuum=False, degenerate_directions=degenerate)


def _polar_darboux_points(U: TrigPoly, k: int) -> DarbouxSet:
    """V = r^k U(theta): grad V(d) = k U(theta) d + U'(theta) d_perp on the
    unit direction d = (Re z, Im z), z = e^{i theta}, so each root z of
    z^M U' of multiplicity m gives mu = k U(theta), lambda = k + U''/U and
    a point that is multiple exactly when m >= 2."""
    if U.is_constant():
        # grad V(1, 0) = k a (1, 0), and a gamma^(k-2) = 1 picks the circle radius
        point = _point_on(k, (_ONE, _ZERO), U.const * k, GaussianRational(k), 1, True)
        return DarbouxSet(points=[point], continuum=True)
    dU = U.derivative()
    points, zero_tol = [], 1e-12 * U.norm1()
    for theta, z, m in critical_points(U):
        u = value_at(U, z)
        if scalar_is_zero(u, zero_tol):
            continue  # U(theta) = 0 gives no finite Darboux point on this ray
        exact = isinstance(z, GaussianRational)
        d = (GaussianRational(z.re), GaussianRational(z.im)) if exact else (z.real, z.imag)
        defect = None if exact else abs(dU.evaluate(theta))
        points.append(_point_on(k, d, k * u, eigenvalue_at(U, k, z), m, m > 1, defect=defect))
    points.sort(key=_point_sort_key)
    return DarbouxSet(points=points, continuum=False)


def _point_sort_key(p: DarbouxPoint):
    z0, z1 = complex(p.c[0]), complex(p.c[1])
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
