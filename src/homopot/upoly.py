"""Univariate polynomials over the scalars (see scalars.py), and the roots
of exact ones with multiplicities: `gcd`, `monic`, `divmod` and `roots`
need Q(i) coefficients, while sums, products, derivatives and evaluation
also take complex ones.  Evaluation at a float point converts the
coefficients to complex once per polynomial, not once per call.

``roots`` takes one path.  Yun's square-free decomposition splits p
exactly into factors f_m whose roots have multiplicity m; a p whose image
mod the prime P = 2^61 - 31 is coprime to its derivative is certified
square-free there and skips Yun.  That image takes each coefficient
(a + b i)/d to (a + I b)/d in F_P, with I^2 = -1 there; the same
certificate, `coprime_mod_p`, spares `darboux` an exact gcd of W and Q(1, s).  Aberth-Ehrlich
iteration finds the roots of each f_m in floats.  A root of f_m in Q(i)
is u/q with q dividing L, the lcm of the denominators d of the monic
f_m's coefficients: L f_m has Gaussian-integer coefficients and leading
coefficient L.  So each float root z has the candidate round(L*z)/L
and, should L*z be too far off for that, the continued-fraction
convergents of its parts whose denominators divide L.  A candidate
becomes the exact root when f_m vanishes there exactly; otherwise z
stays a float.  Aberth runs on f_m(2^e t)
scaled to roots of modulus about 1, so coefficients far beyond double
precision do not overflow it.  The real and the purely imaginary roots
of a real f_m are returned exactly on their axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm, ldexp

from .scalars import GaussianRational

ABERTH_TOL = 1e-13
ABERTH_MAX_ITER = 200


class UPoly:
    """Dense univariate polynomial, coefficients low to high.  `coeffs` is
    never changed after construction, so the complex copy that evaluation
    at a float point takes is made once and kept."""

    __slots__ = ("coeffs", "_complex")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, (GaussianRational, complex)) else GaussianRational(c)
              for c in coeffs]
        while cs and not cs[-1]:
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
        if isinstance(x, GaussianRational):
            acc, cs = GaussianRational(0), self.coeffs
        else:
            try:
                cs = self._complex
            except AttributeError:
                cs = self._complex = [complex(c) for c in self.coeffs]
            acc = 0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UPoly":
        return UPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        a, b = self.coeffs, (other if isinstance(other, UPoly) else UPoly([other])).coeffs
        if len(a) < len(b):
            a, b = b, a
        return UPoly([x + y for x, y in zip(a, b)] + a[len(b):])

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, UPoly) else UPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            g = other if isinstance(other, (GaussianRational, complex)) else GaussianRational(other)
            return UPoly([c * g for c in self.coeffs])
        out = [GaussianRational(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UPoly"):
        """Exact quotient and remainder over Q(i)."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        inv = GaussianRational(1) / other.coeffs[-1]
        quot = [GaussianRational(0)] * max(len(rem) - other.degree, 0)
        for k in reversed(range(len(quot))):
            c = rem[k + other.degree] * inv
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return UPoly(quot), UPoly(rem[:other.degree])

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[0]

    def monic(self) -> "UPoly":
        return self * (GaussianRational(1) / self.coeffs[-1])

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic greatest common divisor, by Euclid's algorithm.

        Each remainder is made monic, which keeps the coefficients small.
        """
        a, b = self.monic(), other
        while not b.is_zero():
            b = b.monic()
            a, b = b, divmod(a, b)[1]
        return a

    def __repr__(self):
        return "UPoly([" + ", ".join(str(c) for c in self.coeffs) + "])"


@dataclass
class Root:
    value: object            # GaussianRational (exact) or complex
    multiplicity: int

    @property
    def exact(self) -> bool:
        return isinstance(self.value, GaussianRational)


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
            # relative, so that roots much smaller than 1 are resolved too
            moved = max(moved, abs(step) / abs(new[i]) if new[i] else 1.0)
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


def square_free_factors(p: UPoly):
    """[(f, m)] with p = lc(p) * prod f^m, m increasing.

    Each f is monic, square-free and of positive degree, and the f are
    pairwise coprime, so every root of f has multiplicity exactly m in p.
    The root 0, of multiplicity v, is split off first, so that Yun does
    not loop v times over it; a p whose image mod P is square-free is
    square-free itself and skips Yun.
    """
    v = next(j for j, c in enumerate(p.coeffs) if not c.is_zero())
    rest = UPoly(p.coeffs[v:])
    out = ([(rest.monic(), 1)] if rest.degree > 0 and coprime_mod_p(rest, rest.derivative())
           else _yun(rest))
    if v:  # s^v goes back into the factor of multiplicity v
        with_s = [(UPoly([0] + f.coeffs), m) for f, m in out if m == v] or [(UPoly([0, 1]), v)]
        out = sorted([(f, m) for f, m in out if m != v] + with_s, key=lambda fm: fm[1])
    return out


def _yun(p: UPoly):
    """Yun's square-free decomposition of p, as for square_free_factors."""
    dp = p.derivative()
    a = p.gcd(dp)
    b = p // a
    d = dp // a - b.derivative()
    out = []
    m = 1
    while b.degree > 0:
        f = b.gcd(d)
        if f.degree > 0:
            out.append((f, m))
        b = b // f
        d = d // f - b.derivative()
        m += 1
    return out


# -- the coprimality certificate mod P -----------------------------------------
# P = 2^61 - 31 is prime and P = 1 mod 4, so i maps to a square root of -1
# in F_P and one prime serves real and Gaussian coefficients alike.

P = 2**61 - 31
I_MOD_P = 583529827753931384  # I_MOD_P^2 = -1 mod P


def _mod_p(c: GaussianRational):
    """The image (a + I_MOD_P b)/d of c = (a + b i)/d in F_P, or None when
    P divides d, that is, a denominator of c's parts."""
    if c.d % P == 0:
        return None
    return (c.a + I_MOD_P * c.b) * pow(c.d, -1, P) % P


def _rem_mod_p(a: list, b: list) -> list:
    """The remainder of a by b in F_P[x]; lists low to high, b[-1] != 0."""
    a = list(a)
    inv = pow(b[-1], -1, P)
    for k in reversed(range(len(a) - len(b) + 1)):
        c = a[k + len(b) - 1] * inv % P
        if c:
            for j, bj in enumerate(b):
                a[k + j] = (a[k + j] - c * bj) % P
    del a[len(b) - 1:]
    while a and not a[-1]:
        a.pop()
    return a


def coprime_mod_p(a: UPoly, b: UPoly) -> bool:
    """True when the images of a and b in F_P[x] keep their degrees and are
    coprime there.

    A common factor of a and b over Q(i) would then have an image of the
    same positive degree dividing both images, so a and b are coprime over
    Q(i); p is square-free when p and p' are.  False says nothing.
    """
    a, b = [_mod_p(c) for c in a.coeffs], [_mod_p(c) for c in b.coeffs]
    if None in a or None in b or not (a and a[-1] and b and b[-1]):
        return False
    while b:
        a, b = b, _rem_mod_p(a, b)
    return len(a) == 1


def _log2(c: GaussianRational) -> int:
    """About log2 |c| (within 2), from the exact bit lengths of c != 0."""
    return max(x.numerator.bit_length() - x.denominator.bit_length()
               for x in (c.re, c.im) if x)


def _scaled_aberth_roots(f: UPoly):
    """Roots of the monic f by Aberth on g(t) = f(2^e t) / 2^(e n).

    2^e is Fujiwara's root bound to within a small factor, so g has
    coefficients and roots of modulus at most a few units, whatever the
    size of f's coefficients.  The roots are scaled back exactly; one
    beyond double precision raises OverflowError.
    """
    n = f.degree
    e = max((-(-_log2(c) // (n - j)) for j, c in enumerate(f.coeffs[:-1]) if c), default=0)
    g = []
    for j, c in enumerate(f.coeffs):  # c 2^s = (a + b i)/d, each part rounded once
        s = e * (j - n)
        a, b, d = (c.a << s, c.b << s, c.d) if s >= 0 else (c.a, c.b, c.d << -s)
        g.append(complex(a / d, b / d))
    return [complex(ldexp(t.real, e), ldexp(t.imag, e)) for t in aberth_roots(g)]


def _unpaired_onto(zs, flip, onto):
    """zs with onto(z) for each z whose nearest root to flip(z) is z itself."""
    out = []
    for i, z in enumerate(zs):
        nearest = min(range(len(zs)), key=lambda j: abs(zs[j] - flip(z)))
        out.append(onto(z) if nearest == i else z)
    return out


def _real_factor_roots(f: UPoly):
    """Roots of a real square-free f, the real and the purely imaginary
    ones without rounding residue off their axis.

    The roots are closed under conjugation, so one with no conjugate
    partner is real.  The purely imaginary ones are among the roots of
    h = gcd(f(s), f(-s)), which are closed under z -> -conj(z); one with
    no partner under that map is imaginary.  A float pre-test spares the
    gcd when no root lies near the imaginary axis.
    """
    zs = _scaled_aberth_roots(f)
    if any(abs(z.real) < 1e-6 * abs(z.imag) for z in zs):
        h = f.gcd(UPoly([-c if j % 2 else c for j, c in enumerate(f.coeffs)]))
        if h.degree > 0:
            whole = h.degree == f.degree
            hs = _unpaired_onto(zs if whole else _scaled_aberth_roots(h),
                                lambda z: -z.conjugate(), lambda z: complex(0.0, z.imag))
            zs = hs if whole else hs + _scaled_aberth_roots(f // h)
    return _unpaired_onto(zs, complex.conjugate, lambda z: complex(z.real, 0.0))


_CF_MAX_DEN = 10**7  # beyond it 1/(2q^2) is below double precision near 1


def _convergent(x: float, lead: int):
    """(u, q): the last continued-fraction convergent u/q of x with q | lead,
    the expansion taken in floats while q <= _CF_MAX_DEN."""
    u, u0, q, q0 = 1, 0, 0, 1
    while True:  # the first convergent, floor(x)/1, always qualifies
        a = floor(x)
        u, u0, q, q0 = a * u + u0, u, a * q + q0, q
        if q > _CF_MAX_DEN:
            return best
        if lead % q == 0:
            best = u, q
        x -= a
        if x * _CF_MAX_DEN < 1:  # the next partial quotient puts q past the cap
            return best
        x = 1 / x


def _candidates(lead: int, z: complex):
    """Points (re + im i)/den that may be the Q(i) root z stands for.

    A root u/q has q | lead, so lead*z lies near a Gaussian integer: the
    first candidate is round(lead*z)/lead, unless lead*z is hopelessly far
    from one (tested in integers, so that no lead overflows).  Once
    lead*|z - u/q| passes 1/2 that candidate misses, so the second takes
    for each part of z its last convergent with a denominator dividing
    lead: by Legendre's theorem u/q is a convergent of z whenever
    |z - u/q| < 1/(2q^2)."""
    (a, p), (b, q) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    m = max(p, q)  # p and q are powers of two: lead*z = (a + b i) / m
    a, b = a * (m // p) * lead, b * (m // q) * lead
    near_re, near_im = (2 * a + m) // (2 * m), (2 * b + m) // (2 * m)
    dr, di = a - near_re * m, b - near_im * m
    if 10**12 * (dr * dr + di * di) <= max(m * m, a * a + b * b):
        yield near_re, near_im, lead
    tol = 1e-9 * max(1.0, abs(z.real), abs(z.imag))
    if lead > 0.5 / tol:  # else a convergent within tol of z is the first candidate
        (u, q), (v, r) = _convergent(z.real, lead), _convergent(z.imag, lead)
        if abs(z.real - u / q) <= tol and abs(z.imag - v / r) <= tol:
            den = lcm(q, r)
            yield u * (den // q), v * (den // r), den


def _exact_candidate(f: UPoly, lead: int, f_mod_p, z: complex):
    """The first of the `_candidates` of z where f vanishes exactly, or None.

    f_mod_p, the images of f's coefficients in F_P (None when P divides
    lead or a denominator), is evaluated at each candidate first: a
    nonzero value proves it is not a root, where the test on lead*z can
    reject nothing once lead passes 2^53."""
    if not cmath.isfinite(z):
        return None
    for re, im, den in _candidates(lead, z):
        if f_mod_p is not None:
            x, acc = (re + I_MOD_P * im) * pow(den, -1, P) % P, 0
            for c in reversed(f_mod_p):
                acc = (acc * x + c) % P
            if acc:
                continue
        cand = GaussianRational.from_ints(re, im, den)
        if f(cand).is_zero():
            return cand
    return None


def roots(p: UPoly):
    """Roots with exact multiplicities; a root is exact when it lies in Q(i)."""
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    result = []
    for f, m in square_free_factors(p):
        lead = lcm(*(c.d for c in f.coeffs))
        real = all(c.is_real() for c in f.coeffs)
        zs = _real_factor_roots(f) if real else _scaled_aberth_roots(f)
        f_mod_p = [_mod_p(c) for c in f.coeffs]
        if None in f_mod_p or lead % P == 0:
            f_mod_p = None
        for z in zs:
            g = _exact_candidate(f, lead, f_mod_p, z)
            result.append(Root(z if g is None else g, m))
    return _sorted_roots(result)


def _sorted_roots(rs):
    return sorted(rs, key=lambda r: (round(complex(r.value).real, 12),
                                     round(complex(r.value).imag, 12)))
