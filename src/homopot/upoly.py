"""Univariate polynomials over Q(i) with hybrid exact/numeric root finding.

Root extraction follows a fixed ladder: exact rational roots first
(divisor candidates plus exact deflation), exact quadratic formula when
the discriminant has an exact square root in Q(i), and Aberth-Ehrlich
simultaneous iteration for whatever is left.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .scalars import GaussianRational, to_complex

ABERTH_TOL = 1e-13
ABERTH_MAX_ITER = 200
CLUSTER_RADIUS = 1e-8


class UPoly:
    """Dense univariate polynomial, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            x = GaussianRational(x)
        acc = GaussianRational(0) if isinstance(x, GaussianRational) else 0j
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, GaussianRational) else to_complex(c))
        return acc

    def derivative(self) -> "UPoly":
        return UPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        other = other if isinstance(other, UPoly) else UPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else GaussianRational(0)
            b = other.coeffs[i] if i < len(other.coeffs) else GaussianRational(0)
            out.append(a + b)
        return UPoly(out)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, UPoly) else UPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            g = GaussianRational.coerce(other) if not isinstance(other, GaussianRational) else other
            return UPoly([c * g for c in self.coeffs])
        out = [GaussianRational(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def deflate(self, root: GaussianRational) -> "UPoly":
        """Exact synthetic division by (x - root); remainder must vanish."""
        out = []
        acc = GaussianRational(0)
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        if not rem.is_zero():
            raise ValueError("deflation by a non-root")
        out.reverse()
        # out currently holds the Horner sequence shifted by one
        return UPoly(out)

    def __repr__(self):
        return "UPoly([" + ", ".join(str(c) for c in self.coeffs) + "])"


@dataclass
class Root:
    value: object            # GaussianRational (exact) or complex
    multiplicity: int
    exact: bool

    def as_complex(self) -> complex:
        return to_complex(self.value)


def _divisors(n: int, cap: int = 4000):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
            if len(out) > cap:
                return None  # too many candidates, skip the exact stage
        d += 1
    return sorted(set(out))


def _axis_root_candidates(p: UPoly):
    """Candidate roots on the rational and imaginary axes.

    For real coefficients this is the classical p/q list; for Gaussian
    coefficients the norm bound N(root numerator) | N(a0) restricts
    axis-aligned candidates the same way.  Off-axis Gaussian roots are
    left to the quadratic formula or the numeric stage.
    """
    from math import lcm

    real = all(c.im == 0 for c in p.coeffs)
    den = lcm(*[lcm(c.re.denominator, c.im.denominator) for c in p.coeffs])
    ints = [(int(c.re * den), int(c.im * den)) for c in p.coeffs]
    lo = next(i for i, v in enumerate(ints) if v != (0, 0))
    n0 = ints[lo][0] ** 2 + ints[lo][1] ** 2
    nn = ints[-1][0] ** 2 + ints[-1][1] ** 2
    if real:
        ps, qs = _divisors(ints[lo][0]), _divisors(ints[-1][0])
    else:
        ps = _divisors(n0, cap=400)
        qs = _divisors(nn, cap=400)
    if ps is None or qs is None:
        return []
    cands = []
    seen = set()

    def push(g: GaussianRational):
        key = (g.re, g.im)
        if key not in seen:
            seen.add(key)
            cands.append(g)

    for pp in ps:
        for qq in qs:
            if not real:
                # axis candidates need pp^2 | N(a0) and qq^2 | N(an)
                if n0 % (pp * pp) or nn % (qq * qq):
                    continue
            f = Fraction(pp, qq)
            push(GaussianRational(f))
            push(GaussianRational(-f))
            if not real:
                push(GaussianRational(0, f))
                push(GaussianRational(0, -f))
    if lo > 0:
        push(GaussianRational(0))
    return cands


def _extract_exact_roots(p: UPoly):
    """Peel off axis-aligned exact roots; returns (roots, quotient)."""
    roots = []
    for g in _axis_root_candidates(p):
        while p.degree >= 1 and p(g).is_zero():
            p = p.deflate(g)
            roots.append(g)
    return roots, p


def _quadratic_exact(p: UPoly):
    """Exact roots of a quadratic when the discriminant has a root in Q(i)."""
    c, b, a = p.coeffs[0], p.coeffs[1], p.coeffs[2]
    disc = b * b - GaussianRational(4) * a * c
    sq = disc.sqrt_exact()
    if sq is None:
        return None
    two_a = GaussianRational(2) * a
    return [(-b + sq) / two_a, (-b - sq) / two_a]


def aberth_roots(coeffs_complex):
    """All roots of a complex-coefficient polynomial by Aberth-Ehrlich.

    coeffs are low-to-high; leading coefficient must be nonzero.
    """
    cs = [complex(c) for c in coeffs_complex]
    n = len(cs) - 1
    if n <= 0:
        return []
    if n == 1:
        return [-cs[0] / cs[1]]
    lead = cs[-1]
    monic = [c / lead for c in cs]

    def poly_and_deriv(z):
        pv = monic[-1]
        dv = 0j
        for c in reversed(monic[:-1]):
            dv = dv * z + pv
            pv = pv * z + c
        return pv, dv

    # Cauchy-style radius, slightly perturbed start angles to break symmetry
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    zs = [radius * cmath.exp(2j * cmath.pi * (k + 0.35) / n + 0.41j) for k in range(n)]

    for _ in range(ABERTH_MAX_ITER):
        moved = 0.0
        new = list(zs)
        for i in range(n):
            pv, dv = poly_and_deriv(zs[i])
            if pv == 0:
                continue
            if dv == 0:
                new[i] = zs[i] * (1 + 1e-6) + 1e-6
                moved = max(moved, 1.0)
                continue
            ratio = pv / dv
            rep = sum(1 / (zs[i] - zs[j]) for j in range(n) if j != i)
            denom = 1 - ratio * rep
            step = ratio / denom if denom != 0 else ratio
            new[i] = zs[i] - step
            moved = max(moved, abs(step))
        zs = new
        if moved < ABERTH_TOL:
            break

    # Newton polish
    for i in range(n):
        z = zs[i]
        for _ in range(8):
            pv, dv = poly_and_deriv(z)
            if dv == 0 or abs(pv) < 1e-300:
                break
            z = z - pv / dv
        zs[i] = z
    return zs


def _cluster(points, radius: float):
    clusters = []
    for z in points:
        for cl in clusters:
            if abs(z - cl[0]) < radius:
                cl.append(z)
                break
        else:
            clusters.append([z])
    return clusters


def roots(p: UPoly):
    """Roots with multiplicities; exact where the ladder allows."""
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    exact_list, rest = _extract_exact_roots(p)
    out = {}
    for g in exact_list:
        key = (g.re, g.im)
        if key in out:
            out[key].multiplicity += 1
        else:
            out[key] = Root(g, 1, True)
    result = list(out.values())

    if rest.degree == 2:
        pair = _quadratic_exact(rest)
        if pair is not None:
            if pair[0] == pair[1]:
                result.append(Root(pair[0], 2, True))
            else:
                for g in pair:
                    result.append(Root(g, 1, True))
            return _sorted_roots(result)
    if rest.degree >= 1:
        zs = aberth_roots([to_complex(c) for c in rest.coeffs])
        for cl in _cluster(zs, CLUSTER_RADIUS):
            center = sum(cl) / len(cl)
            result.append(Root(center, len(cl), False))
    return _sorted_roots(result)


def _sorted_roots(rs):
    return sorted(rs, key=lambda r: (round(r.as_complex().real, 12), round(r.as_complex().imag, 12)))
