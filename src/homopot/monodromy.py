"""Period integrals of (t^2-1)^alpha over figure loops, and the
commutativity obstructions built from them.

The loop gamma_j starts at t = 0, turns j times counter-clockwise around
+1 on a radius-1/2 circle, returns, then turns j times clockwise around
-1; the branch at the base point is fixed by (t^2-1)^alpha|_0 = e^{i pi
alpha}.  Closed form:

    int_{gamma_j} (t^2-1)^a dt
        = (1 - e^{2 i j pi a}) e^{i pi a} Gamma(a+1) sqrt(pi) / Gamma(a+3/2)

valid for every real a by analytic continuation; it vanishes identically
when Gamma(a+3/2) sits at a pole (a in {-3/2, -5/2, ...}), which the
commutativity classifier treats as its own branch.  The quadrature path
below is an independent numerical route to the same numbers: it walks
the loop piece by piece and continues the branch of (t^2-1)^alpha along
it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Q = Fraction

NON_COMMUTATIVE = "non_commutative"
COMMUTATIVE_POSSIBLE = "commutative_possible"


# -- exact phase helpers --------------------------------------------------

def _cis_pi(x: Fraction) -> complex:
    """e^{i pi x} with exact values at quarter multiples."""
    x = Q(x) % 2
    table = {Q(0): 1 + 0j, Q(1, 2): 1j, Q(1): -1 + 0j, Q(3, 2): -1j}
    if x in table:
        return table[x]
    return cmath.exp(1j * math.pi * float(x))


def _is_nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def gamma_pole_at(alpha: Fraction) -> bool:
    """True when Gamma(alpha + 3/2) is at a pole (alpha in -3/2 - N)."""
    return _is_nonpos_int(Q(alpha) + Q(3, 2))


# -- period values ---------------------------------------------------------

@dataclass
class PeriodValue:
    alpha: Fraction
    j: int
    value: complex
    method: str                       # "closed_form" | "quadrature"
    error_bound: Optional[float] = None
    gamma_pole: bool = False

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "j": self.j,
            "value": [self.value.real, self.value.imag],
            "method": self.method,
            "error_bound": self.error_bound,
            "gamma_pole": self.gamma_pole,
        }


def period_closed_form(alpha, j: int) -> PeriodValue:
    """The Gamma-function closed form of the loop period."""
    alpha = Q(alpha)
    if alpha.denominator == 1:
        if alpha < 0:
            raise ValueError(
                "negative integer alpha: Gamma(alpha+1) pole is outside the "
                "closed form's domain")
        return PeriodValue(alpha, j, 0j, "closed_form")
    if gamma_pole_at(alpha):
        # denominator pole dominates: the analytic continuation vanishes
        return PeriodValue(alpha, j, 0j, "closed_form", gamma_pole=True)
    two_ja = (2 * j * alpha) % 2
    if two_ja == 0:
        return PeriodValue(alpha, j, 0j, "closed_form")
    pref = 1 - _cis_pi(two_ja)
    phase = _cis_pi(alpha % 2)
    g1 = math.gamma(float(alpha + 1))
    g2 = math.gamma(float(alpha + Q(3, 2)))
    value = pref * phase * g1 * math.sqrt(math.pi) / g2
    return PeriodValue(alpha, j, value, "closed_form")


# -- quadrature along the concrete loop ------------------------------------

_RADIUS = 0.5  # of the circles around +-1


@dataclass
class LoopSpec:
    """Geometry of gamma_j: base point 0, radius-1/2 circles around +-1."""

    j: int

    def pieces(self):
        """The smooth pieces of the loop in order, each a function
        u -> (t(u), t'(u)) on u in [0, 1]: segments on the real axis and
        quarter arcs, four per turn, so no piece turns t - 1 or t + 1 by pi
        or more."""
        j, r = self.j, _RADIUS

        def segment(a, b):
            a, d = complex(a), complex(b) - complex(a)
            return lambda u: (a + d * u, d)

        def arc(center, a0, da):
            def point(u):
                e = r * cmath.exp(1j * (a0 + da * u))
                return center + e, 1j * da * e
            return point

        def arcs(center, start_angle, turns):
            # one full turn = 4 quarter arcs; sign of `turns` = orientation
            da = math.copysign(math.pi / 2, turns)
            return [arc(center, start_angle + q * da, da) for q in range(4 * abs(turns))]

        if j == 0:
            return [segment(0.0, 1 - r), segment(1 - r, 0.0)]
        return [segment(0.0, 1 - r),
                *arcs(1.0, math.pi, j),           # j ccw turns around +1
                segment(1 - r, 0.0), segment(0.0, -1 + r),
                *arcs(-1.0, 0.0, -j),             # j cw turns around -1
                segment(-1 + r, 0.0)]


@functools.cache
def _gl(n: int):
    """Gauss-Legendre nodes (ascending) and weights of order n on [-1, 1].

    Each node is a root of the Legendre polynomial P_n, found by Newton's
    method on the three-term recurrence from cos(pi (i + 3/4) / (n + 1/2));
    its weight is 2 / ((1 - x^2) P_n'(x)^2).
    """
    nodes, weights = [], []
    for i in reversed(range(n)):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def _adaptive_gl(f, tol: float):
    """(integral of f over [0, 1], error estimate): the 12-point
    Gauss-Legendre rule, bisecting each interval whose halves differ from
    it by tol or more, down to depth 24.

    On a loop piece the integrand is analytic inside the Bernstein ellipse
    of [0, 1] with rho ~ 4.2: on a quarter arc the nearest branch point
    lies ln 4 off the arc's angle at one endpoint, and a segment has
    rho = 3 + sqrt 8.  The n-point rule's error is about rho^(-2n), some
    1e-15 for n = 12 (Trefethen, SIAM Rev. 50, 2008), so a period piece
    takes 36 evaluations and the bisection is only the safety net.
    """
    x, w = _gl(12)

    def rule(a, b):
        mid, half = (a + b) / 2, (b - a) / 2
        acc = 0j
        for xi, wi in zip(x, w):
            acc += wi * f(mid + half * xi)
        return acc * half

    def adapt(a, b, whole, depth):
        m = (a + b) / 2
        left, right = rule(a, m), rule(m, b)
        err = abs(whole - left - right)
        if err < tol or depth >= 24:
            return left + right, err
        vl, el = adapt(a, m, left, depth + 1)
        vr, er = adapt(m, b, right, depth + 1)
        return vl + vr, el + er

    return adapt(0.0, 1.0, rule(0.0, 1.0), 0)


def period_quadrature(spec: LoopSpec, alpha, tol: float = 1e-10) -> PeriodValue:
    """Numerical analytic continuation of the period along the loop, by the
    12-point Gauss-Legendre rule of `_adaptive_gl` on each piece.

    (t^2-1)^alpha = exp(alpha (log|t-1| + log|t+1| + i (th1 + th2))) with
    th1, th2 the arguments of t-1 and t+1, continued from (pi, 0) at t = 0
    over each piece t from t0 as th + phase((t -+ 1)/(t0 -+ 1)), which holds
    because no piece turns either factor by pi or more.
    """
    alpha = Q(alpha)
    if not tol >= 1e-12:  # NaN too: it would bisect every piece to depth 24
        raise ValueError(f"tol {tol} is not at or above the 1e-12 floor of the quadrature")
    pieces = spec.pieces()
    alpha_f = float(alpha)
    piece_tol = tol / max(1, len(pieces)) / 4
    th1, th2 = math.pi, 0.0
    total = 0j
    err = 0.0
    for piece in pieces:
        t0 = piece(0.0)[0]

        def args(tv):
            return (th1 + cmath.phase((tv - 1) / (t0 - 1)),
                    th2 + cmath.phase((tv + 1) / (t0 + 1)))

        def f(u):
            tv, dt = piece(u)
            a1, a2 = args(tv)
            mag = alpha_f * math.log(abs((tv - 1) * (tv + 1)))
            return cmath.exp(mag + 1j * alpha_f * (a1 + a2)) * dt

        v, e = _adaptive_gl(f, piece_tol)
        total += v
        err += e
        th1, th2 = args(piece(1.0)[0])
    # loop closure on the Riemann surface: arg(t-1) gains 2 pi j, arg(t+1) loses it
    closure = max(abs(th1 - math.pi - 2 * math.pi * spec.j),
                  abs(th2 + 2 * math.pi * spec.j))
    if closure > 1e-9:
        raise ArithmeticError(f"branch tracking failed to close the loop ({closure:.2e})")
    return PeriodValue(alpha, spec.j, total, "quadrature", error_bound=err)


# -- determinant of the period matrix ----------------------------------------

def det_A(alpha, beta, j1: int, j2: int) -> complex:
    """det [[P(alpha,j1), P(alpha,j2)], [P(beta,j1), P(beta,j2)]]."""
    a1 = period_closed_form(alpha, j1).value
    a2 = period_closed_form(alpha, j2).value
    b1 = period_closed_form(beta, j1).value
    b2 = period_closed_form(beta, j2).value
    return a1 * b2 - a2 * b1


def det_A_expsum(alpha, beta, j1: int, j2: int) -> complex:
    """The same determinant via the Gamma-prefactor times exponential sum."""
    alpha, beta = Q(alpha), Q(beta)
    if alpha.denominator == 1 or beta.denominator == 1:
        raise ValueError("exponential-sum form needs non-integer exponents")
    if gamma_pole_at(alpha) or gamma_pole_at(beta):
        return 0j
    pref = (_cis_pi((alpha + beta) % 2) * math.gamma(float(alpha + 1))
            * math.pi * math.gamma(float(beta + 1))
            / (math.gamma(float(alpha + Q(3, 2)))
               * math.gamma(float(beta + Q(3, 2)))))

    def e(x):
        return _cis_pi((2 * x) % 2)

    s = (e(j2 * alpha) + e(j1 * beta) - e(j2 * beta) - e(j1 * alpha)
         + e(j1 * alpha + j2 * beta) - e(j1 * beta + j2 * alpha))
    return pref * s


# -- commutativity classification of the iterated integral -------------------

REASON_ALPHA_MINUS_BETA = "alpha_minus_beta_integer"
REASON_POLE_ALPHA = "gamma_pole_alpha"
REASON_POLE_BETA = "gamma_pole_beta"


@dataclass
class CommutativityClass:
    verdict: str
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


def commutativity_class(alpha, beta) -> CommutativityClass:
    """Monodromy commutativity for the double integral of (t^2-1)^alpha
    against (t^2-1)^beta; requires non-integer rational exponents."""
    alpha, beta = Q(alpha), Q(beta)
    if alpha.denominator == 1 or beta.denominator == 1:
        raise ValueError("commutativity classification requires alpha, beta not in Z")
    if (alpha - beta).denominator == 1:
        return CommutativityClass(COMMUTATIVE_POSSIBLE, REASON_ALPHA_MINUS_BETA)
    if gamma_pole_at(alpha):
        return CommutativityClass(COMMUTATIVE_POSSIBLE, REASON_POLE_ALPHA)
    if gamma_pole_at(beta):
        return CommutativityClass(COMMUTATIVE_POSSIBLE, REASON_POLE_BETA)
    return CommutativityClass(NON_COMMUTATIVE)


# -- commutativity verdict for the variational-equation integrals ------------

@dataclass
class GVerdict:
    l: int
    k: int
    verdict: str
    reason: str
    checklist: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "l": self.l, "k": self.k, "verdict": self.verdict,
            "reason": self.reason,
            "checklist": {name: {"value": str(val), "triggered": hit}
                          for name, (val, hit) in self.checklist.items()},
        }


def g_verdict(l: int, k: int) -> GVerdict:
    """Commutativity verdict for the iterated integral with exponents
    alpha = 1/k, beta = -(k+1)/k.

    For |k| > 2 all five exclusion conditions fail and the monodromy is
    non-commutative; k = 1 (with l >= 1) is non-commutative through the
    dilogarithmic primitive instead.
    """
    if l < 0:
        raise ValueError("level l must be >= 0")
    if k in (-2, -1, 0, 2):
        raise ValueError(f"k = {k} is outside the verdict's domain")
    if k == 1 and l == 0:
        raise ValueError("k = 1 requires level l >= 1")
    alpha = Q(1, k)
    beta = Q(-(k + 1), k)
    checks = {
        "alpha_integer": alpha,                      # 1/k in Z
        "beta_integer": beta,                        # -(k+1)/k in Z
        "gamma_pole_beta": -Q(3, 2) - beta,          # (k+1)/k - 3/2 in N
        "gamma_pole_alpha": -Q(3, 2) - alpha,        # -3/2 - 1/k in N
        "alpha_minus_beta_integer": alpha - beta,    # (k+2)/k in Z
    }
    checklist = {}
    for name, val in checks.items():
        if name in ("alpha_integer", "beta_integer", "alpha_minus_beta_integer"):
            hit = val.denominator == 1
        else:
            hit = val.denominator == 1 and val >= 0
        checklist[name] = (val, hit)

    if k == 1:
        return GVerdict(l, k, NON_COMMUTATIVE, "dilogarithm", checklist)
    return GVerdict(l, k, NON_COMMUTATIVE, "all five exclusion conditions fail", checklist)
