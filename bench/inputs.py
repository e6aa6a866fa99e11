"""Seeded input generators for the benchmark workloads.

Every generator takes the seed and returns plain data (strings, dicts,
fractions rendered as text), so the same seed gives byte-identical inputs
and the program under test receives nothing but those inputs.  Nothing
here imports homopot or sympy.

Cost-driving properties (kind, degree, coefficient-size band) are
stratified: their counts are fixed per workload and only the concrete
coefficients, term patterns and order depend on the seed.  That keeps
two seeds comparable, which the run-to-run spread bounds rely on.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

DEGREES = range(3, 17)
RANDOM_PER_DEGREE = 9          # per degree: 6 real, 3 Gaussian
REPEATS = 2                    # copies of each planted/rational/radial/polar/invalid shape
BIG_EXPONENT = 12              # integer magnitudes up to ~1e12
BIG_GAUSS_NORM_EXPONENT = 5    # Gaussian norms up to ~1e5
BAND_WIDTH = 0.2               # decades spanned by one input's coefficients

BASELINE_INPUTS = [
    ("baseline-q1^2*q2", "q1^2*q2"),
    ("baseline-harmonic3", "q1^3 - 3*q1*q2^2"),
    ("baseline-deg12-4term", "q1^12 + 3*q1^7*q2^5 - 2*q1^3*q2^9 + 5*q2^12"),
]

# Inputs that expose known defects of the exact root ladder and of the
# float eigenvalue path; they stay in analyze-bigcoef whatever the seed.
BIGCOEF_NAMED_INPUTS = [
    ("named-bigcoef-quintic", "123456789*q1^5 + 987654321*q2^5 + 7*q1^2*q2^3"),
    ("named-gaussian-hang", "(100002 + 2*i)/(100003*q2)"),
    ("named-tiny-lambda", "q1^2*q2^3 + 100000000000*q2^5"),
]


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"homopot-bench/{workload}/{seed}")


# -- coefficient samplers ------------------------------------------------------


def small_fraction(rng: random.Random, num_cap: int = 9, den_cap: int = 5) -> Fraction:
    return Fraction(rng.randint(-num_cap, num_cap), rng.randint(1, den_cap))


class SmallCoefs:
    """Small rationals, as in the test suite's random potentials (or small
    integers with den_cap=1)."""

    def __init__(self, den_cap: int = 5):
        self.den_cap = den_cap

    def real(self, rng):
        return small_fraction(rng, den_cap=self.den_cap)

    def gaussian(self, rng):
        return small_fraction(rng, den_cap=self.den_cap), small_fraction(rng, den_cap=self.den_cap)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % p == 0 for p in small):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _magnitude(rng, exponent: float) -> int:
    """Log-uniform within BAND_WIDTH decades below 10^exponent."""
    return max(1, round(10 ** rng.uniform(max(exponent - BAND_WIDTH, 0.0), exponent)))


class PrimeCoefs:
    """Signed primes of magnitude about 10^exponent.

    The exact rung of the root ladder enumerates the divisors of the
    direction polynomial's end coefficients, which for a polynomial are
    the coefficients of q1^(k-1) q2 and q1 q2^(k-1).  With those always
    present and prime, its cost is set by the magnitude band (trial
    division up to the square root), which is stratified, and not by the
    heavy-tailed divisor count of random integers, which no run of ~100
    inputs samples steadily.
    """

    def __init__(self, exponent: float):
        self.exponent = exponent

    def real(self, rng):
        sign = rng.choice((-1, 1))
        n = max(_magnitude(rng, self.exponent), 2)
        while not is_prime(n):
            n += 1
        return Fraction(n * sign)


class GaussCoefs:
    """Gaussian integers (and, for real terms, integers) of norm about
    10^exponent."""

    def __init__(self, exponent: float):
        self.exponent = exponent

    def real(self, rng):
        return Fraction(round(math.sqrt(_magnitude(rng, self.exponent))) * rng.choice((-1, 1)))

    def gaussian(self, rng):
        r = math.sqrt(_magnitude(rng, self.exponent))
        angle = rng.uniform(0, 2 * math.pi)
        re, im = round(r * math.cos(angle)), round(r * math.sin(angle))
        if re == 0 and im == 0:
            re = 1
        return Fraction(re), Fraction(im)


def band_of_exponent(exponent: float) -> str:
    top = math.ceil(exponent)
    lo = (top - 1) // 3 * 3
    return f"1e{lo}-1e{lo + 3}"


# -- rendering ------------------------------------------------------------------


def _coef_text(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return f"({re})" if re < 0 else f"{re}"
    sign = "+" if im > 0 else "-"
    return f"({re} {sign} {abs(im)}*i)"


def _monomial_text(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append("q1" if a == 1 else f"q1^{a}")
    if b:
        parts.append("q2" if b == 1 else f"q2^{b}")
    return "*".join(parts)


def poly_text(terms: dict) -> str:
    """Render {(a, b): (re, im)} as a sum the grammar accepts."""
    out = []
    for (a, b), (re, im) in sorted(terms.items(), reverse=True):
        mono = _monomial_text(a, b)
        coef = _coef_text(re, im)
        out.append(f"{coef}*{mono}" if mono else coef)
    return " + ".join(out)


def poly_json(degree: int, terms: dict) -> dict:
    """The potential JSON form (as written by potential_to_json)."""
    def scalar(re, im):
        return str(re) if im == 0 else {"re": str(re), "im": str(im)}
    return {"kind": "polynomial", "degree": degree,
            "terms": {f"{a},{b}": scalar(re, im)
                      for (a, b), (re, im) in sorted(terms.items(), reverse=True)}}


def json_terms(obj: dict) -> dict:
    """{(a, b): (re, im)} from a polynomial potential's JSON form."""
    terms = {}
    for key, v in obj["terms"].items():
        a, b = (int(t) for t in key.split(","))
        terms[(a, b)] = ((Fraction(v), Fraction(0)) if isinstance(v, str)
                         else (Fraction(v["re"]), Fraction(v["im"])))
    return terms


# -- potentials -----------------------------------------------------------------


def random_terms(rng, degree: int, coefs, gaussian: bool, keep=()) -> dict:
    """Random coefficients; each term is dropped with probability 1/4
    unless its monomial is in keep."""
    terms = {}
    for j in range(degree + 1):
        if rng.random() < 0.25 and (degree - j, j) not in keep:
            continue
        if gaussian and rng.random() < 0.5:
            re, im = coefs.gaussian(rng)
        else:
            re, im = coefs.real(rng), Fraction(0)
        if re or im:
            terms[(degree - j, j)] = (re, im)
    if not terms:
        terms[(degree, 0)] = (Fraction(1), Fraction(0))
    return terms


def planted_terms(rng, degree: int, multiple: bool, coefs) -> tuple:
    """Terms with (1, 0) as an exact Darboux point, and its eigenvalue.

    The coefficient of q1^k is 1 and that of q1^(k-1) q2 is 0, so the
    point is c = (1, 0) and lambda = 2 * coeff(q1^(k-2) q2^2), forced to
    k for a multiple point.
    """
    k = degree
    terms = {(k, 0): (Fraction(1), Fraction(0))}
    lam_half = Fraction(k, 2) if multiple else coefs.real(rng)
    if lam_half:
        terms[(k - 2, 2)] = (lam_half, Fraction(0))
    for j in range(3, k + 1):
        if rng.random() < 0.6:
            v = coefs.real(rng)
            if v:
                terms[(k - j, j)] = (v, Fraction(0))
    return terms, 2 * lam_half


def _item(name, text, kind, degree, band, *, gaussian=False, source="random",
          planted=None, expect="report", json_form=None):
    item = {"name": name, "text": text, "kind": kind, "degree": degree,
            "band": band, "gaussian": gaussian, "source": source,
            "expect": expect}
    if planted is not None:
        item["planted"] = planted
    if json_form is not None:
        item["json"] = json_form
    return item


def _band_exponents(rng, n: int, top: float) -> list:
    """n exponents, one in each of n equal strata of (0, top].

    Which input gets which stratum is a fixed design, the same for every
    seed, so the cost structure of a run (band against degree) does not
    move with the seed; the seed only jitters each exponent inside its
    stratum.
    """
    design = list(range(n))
    random.Random(f"homopot-bench/design/{n}").shuffle(design)
    return [top * (design[j] + rng.random()) / n for j in range(n)]


def _divisor_count(n: int) -> int:
    n, count, d = abs(n), 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def candidate_count(degree: int, terms: dict) -> int:
    """Rational-root candidates p/q of the direction polynomial W(s).

    W = s dV/dq1(1, s) - dV/dq2(1, s); cleared of denominators, a rational
    root p/q has p dividing its lowest and q its leading coefficient, so
    there are 2 d(lowest) d(leading) signed candidates.  Checking them
    costs most of the time of small-coefficient inputs, so this property
    is stratified (real coefficients only).
    """
    k = degree

    def c(i, j):
        return terms.get((i, j), (Fraction(0), Fraction(0)))[0]
    W = [(k - j + 1) * c(k - j + 1, j - 1) - (j + 1) * c(k - j - 1, j + 1)
         for j in range(k + 1)]
    while W and W[-1] == 0:
        W.pop()
    if not W:
        return 0
    den = math.lcm(*(w.denominator for w in W))
    ints = [int(w * den) for w in W]
    low = next(v for v in ints if v)
    return 2 * _divisor_count(low) * _divisor_count(ints[-1])


CANDIDATE_STRATA = 6           # per degree, of the real small-coefficient polynomials
_CANDIDATE_SAMPLE = {}


def _candidate_sample(degree: int, draw) -> list:
    """Sorted candidate counts of a fixed sample of the generator `draw`
    at this degree: the population the strata are cut from."""
    sample = _CANDIDATE_SAMPLE.get((degree, draw.__name__))
    if sample is None:
        rng = random.Random(f"homopot-bench/candidates/{degree}/{draw.__name__}")
        sample = sorted(candidate_count(degree, draw(rng, degree)) for _ in range(300))
        _CANDIDATE_SAMPLE[(degree, draw.__name__)] = sample
    return sample


def stratified_draw(rng, degree: int, stratum: int, draw):
    """Draw terms until their candidate count lies in the given one of
    CANDIDATE_STRATA equal-probability strata of the population (at most
    200 tries; then the closest draw is kept)."""
    sample = _candidate_sample(degree, draw)
    lo, hi = stratum / CANDIDATE_STRATA, (stratum + 1) / CANDIDATE_STRATA
    best = None
    for _ in range(200):
        terms = draw(rng, degree)
        count = candidate_count(degree, terms)
        rank = (bisect.bisect_left(sample, count) + bisect.bisect_right(sample, count)) / (2 * len(sample))
        if lo <= rank < hi or (stratum == CANDIDATE_STRATA - 1 and rank >= hi):
            return terms
        gap = min(abs(rank - lo), abs(rank - hi))
        if best is None or gap < best[0]:
            best = (gap, terms)
    return best[1]


def _small_real_poly(rng, degree):
    return random_terms(rng, degree, SmallCoefs(), False)


def _random_polys(rng, big: bool, json_share: int) -> list:
    """RANDOM_PER_DEGREE polynomials per degree, a third of them Gaussian.

    For analyze-bigcoef the real ones get one stratum each of the
    magnitude range (84 strata over 12 decades, so the 3-decade band
    labels are fixed) and the Gaussian ones one stratum each of the norm
    range.
    """
    plan = [(d, r) for d in DEGREES for r in range(RANDOM_PER_DEGREE)]
    n_gauss = sum(1 for _, r in plan if r % 3 == 2)
    exps = iter(_band_exponents(rng, len(plan) - n_gauss, BIG_EXPONENT))
    gexps = iter(_band_exponents(rng, n_gauss, BIG_GAUSS_NORM_EXPONENT))
    out = []
    for n, (d, r) in enumerate(plan):
        gaussian = r % 3 == 2
        keep = ()
        if not big:
            coefs, band = SmallCoefs(), "small"
            if not gaussian:
                # r runs over 0, 1, 3, 4, 6, 7 for the real ones
                stratum = (r - r // 3) % CANDIDATE_STRATA
                terms = stratified_draw(rng, d, stratum, _small_real_poly)
        elif gaussian:
            coefs = GaussCoefs(next(gexps))
            band = f"gauss-norm-1e0-1e{BIG_GAUSS_NORM_EXPONENT}"
        else:
            coefs = PrimeCoefs(next(exps))
            band = band_of_exponent(coefs.exponent)
            keep = ((d - 1, 1), (1, d - 1))     # the direction polynomial's ends
        if big or gaussian:
            terms = random_terms(rng, d, coefs, gaussian, keep)
        json_form = poly_json(d, terms) if json_share and n % json_share == 0 else None
        out.append(_item(f"poly-d{d:02d}-{r}", poly_text(terms), "polynomial", d, band,
                         gaussian=gaussian, json_form=json_form))
    return out


def _planted(rng) -> list:
    out = []
    for d in DEGREES:
        for r in range(REPEATS):
            multiple = (d + r) % 3 == 0
            terms, lam = planted_terms(rng, d, multiple, SmallCoefs())
            out.append(_item(f"planted-d{d:02d}-{r}", poly_text(terms), "polynomial", d,
                             "small", source="planted",
                             planted={"c": ["1", "0"], "lambda": str(lam),
                                      "multiple": multiple}))
    return out


# (numerator degree, denominator degree): k = difference, never 0 or 2
_RATIONAL_SHAPES = [(4, 1), (5, 2), (3, 2), (5, 1), (1, 4), (2, 3), (1, 2), (6, 2)]


def _rationals(rng) -> list:
    """P/Q with small integer coefficients: the direction polynomial
    multiplies P and Q coefficients, and fractions or large values there
    put the divisor search of the exact rung in charge (see README.md)."""
    out = []
    for r in range(REPEATS):
        for n, (dn, dd) in enumerate(_RATIONAL_SHAPES):
            gaussian = n % 4 == 2
            num = random_terms(rng, dn, SmallCoefs(den_cap=1), gaussian)
            den = random_terms(rng, dd, SmallCoefs(den_cap=1), False)
            text = f"({poly_text(num)})/({poly_text(den)})"
            out.append(_item(f"rational-k{dn - dd}-{n}-{r}", text, "rational", dn - dd,
                             "small", gaussian=gaussian))
    return out


_RADIAL_DEGREES = [-5, -3, -1, 3]
_POLAR_DEGREES = [-7, -5, -4, -3, -3, -1]


def _radials(rng) -> list:
    out = []
    for r in range(REPEATS):
        for n, k in enumerate(_RADIAL_DEGREES):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            out.append(_item(f"radial-k{k}-{n}-{r}", f"{a}*r^{k}", "radial", k, "small"))
    return out


def _polars(rng) -> list:
    out = []
    for r in range(REPEATS):
        for n, k in enumerate(_POLAR_DEGREES):
            m1, m2 = rng.choice((1, 2, 3)), rng.choice((2, 4, 5))
            a = Fraction(rng.randint(1, 9), rng.randint(10, 30))
            b = Fraction(rng.randint(1, 9), rng.randint(30, 60)) * rng.choice((-1, 1))
            sign = "-" if rng.random() < 0.5 else "+"
            text = f"r^{k}*(1 {sign} {a}*cos({m1}*theta) + ({b})*sin({m2}*theta))"
            out.append(_item(f"polar-k{k}-{n}-{r}", text, "polar", k, "small"))
    return out


def _invalid(rng) -> list:
    """Inputs the grammar accepts that must raise PotentialError."""
    out = []
    for r in range(REPEATS):
        a, b, c = (rng.randint(1, 9) for _ in range(3))
        cases = [
            ("invalid-degree0", f"{a}", 0),
            ("invalid-degree2", f"{a}*q1^2 - {b}*q1*q2 + {c}*q2^2", 2),
            ("invalid-radial2", f"{a}*r^2", 2),
            ("invalid-rational0", f"q1^{b}/({c}*q2^{b})", 0),
            ("invalid-nonhomogeneous", f"q1^3 + {a}*q2^2", None),
        ]
        out += [_item(f"{name}-{r}", text, "invalid", k, "small", source="invalid",
                      expect="error") for name, text, k in cases]
    return out


def _corpus(root: Path) -> list:
    """The corpus files with their golden summary rows."""
    base = root / "tests" / "data"
    golden = {}
    lines = (base / "golden_summary.csv").read_text().splitlines()
    for line in lines[1:]:
        f, k, n_points, n_multiple, verdict = line.split(",")
        golden[f] = {"k": int(k), "n_points": int(n_points),
                     "n_multiple": int(n_multiple), "verdict": verdict}
    out = []
    for path in sorted((base / "corpus").iterdir()):
        text = path.read_text().strip()
        json_form = None
        if path.suffix == ".json":
            json_form = json.loads(text)
            text = poly_text(json_terms(json_form))
        out.append({"name": f"corpus-{path.name}", "text": text,
                    "kind": "corpus", "degree": golden[path.name]["k"], "band": "small",
                    "gaussian": False, "source": "corpus", "expect": "report",
                    "golden": golden[path.name], **({"json": json_form} if json_form else {})})
    return out


def _baseline(names) -> list:
    return [_item(name, text, "polynomial", None, "named", source="baseline")
            for name, text in names]


def analyze_inputs(workload: str, seed: int, root: Path) -> list:
    """Inputs of analyze-mix / analyze-bigcoef / batch-dir, in seeded order."""
    big = workload == "analyze-bigcoef"
    rng = workload_rng("analyze-bigcoef" if big else "analyze-mix", seed)
    items = (_random_polys(rng, big, json_share=3 if workload == "batch-dir" else 0)
             + _planted(rng) + _rationals(rng) + _radials(rng)
             + _polars(rng) + _invalid(rng) + _corpus(root)
             + _baseline(BASELINE_INPUTS))
    if big:
        items += _baseline(BIGCOEF_NAMED_INPUTS)
    rng.shuffle(items)
    return items


# -- obstructions ---------------------------------------------------------------

VE_LEVELS = range(1, 8)
PERIOD_DENOMINATORS = range(3, 8)
PERIOD_JS = (1, 2, 3)


def _rational_roots(coeffs: list) -> list:
    """Rational roots of an integer polynomial (low to high), by the
    rational root theorem; meant for small coefficients only."""
    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]
    lo = next(i for i, c in enumerate(coeffs) if c)
    roots = [Fraction(0)] if lo else []
    for p in divisors(coeffs[lo]):
        for q in divisors(coeffs[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    roots.append(cand)
    return roots


def float_cubic(rng) -> str:
    """q1^3 + a q1^2 q2 + b q1 q2^2 + c q2^3 whose direction polynomial
    has no rational root, so every Darboux point is a float point."""
    while True:
        a, b, c = (rng.choice([v for v in range(-9, 10) if v]) for _ in range(3))
        # W(s) = s d1V(1,s) - d2V(1,s), low to high
        W = [-a, 3 - 2 * b, 2 * a - 3 * c, b]
        if not _rational_roots(W):
            return poly_text({(3, 0): (Fraction(1), Fraction(0)),
                              (2, 1): (Fraction(a), Fraction(0)),
                              (1, 2): (Fraction(b), Fraction(0)),
                              (0, 3): (Fraction(c), Fraction(0))})


def obstruction_tasks(seed: int) -> list:
    """The mixed task list of the obstructions workload, in seeded order.

    Class sizes keep every class below about half of the wall time (see
    README.md).
    """
    rng = workload_rng("obstructions", seed)
    tasks = []
    exact_text = poly_text(planted_terms(rng, 4, False, SmallCoefs())[0])
    float_text = float_cubic(rng)
    for level in VE_LEVELS:
        tasks.append({"class": "ve-build", "name": f"ve-exact-l{level}",
                      "text": exact_text, "level": level, "normalization": "exact"})
        tasks.append({"class": "ve-build", "name": f"ve-float-l{level}",
                      "text": float_text, "level": level, "normalization": "float"})
    for level in (5, 7):
        tasks.append({"class": "ve-build", "name": f"ve-radial-l{level}",
                      "text": "r^-3", "level": level, "normalization": "exact"})
    for q in PERIOD_DENOMINATORS:
        numerators = [p for p in range(-3 * q, 2 * q) if math.gcd(p, q) == 1]
        for j in PERIOD_JS:
            for p in rng.sample(numerators, 4):
                tasks.append({"class": "period", "name": f"period-{p}/{q}-j{j}",
                              "alpha": f"{p}/{q}", "j": j})
    # the sweep's cost depends on k and the bound, so those are a fixed
    # design; the seed draws the lambdas
    table_ks = (-7, -6, -5, -4, -3, -1, 1, 3, 4, 5, 6, 7)
    for n in range(30):
        k = table_ks[n % len(table_ks)]
        bound = str(20 + (n * 13) % 30 * 13)
        lams = [str(small_fraction(rng, 60, 12)) for _ in range(120)]
        tasks.append({"class": "table", "name": f"table-k{k}-{n}", "k": k,
                      "lambdas": lams, "bound": bound})
    for n in range(3):
        for rep in range(3):
            tasks.append({"class": "scenario", "name": f"scenario-{n}-{rep}", "index": n})
    rng.shuffle(tasks)
    return tasks


def _degree_band(d) -> str:
    if d is None:
        return "none"
    return "<3" if d < 3 else "3-6" if d <= 6 else "7-11" if d <= 11 else "12-16"


def shares(items: list, keys=("kind", "band", "source")) -> dict:
    """Share of each value of each property, for the run's record."""
    def share(values):
        counts = Counter(values)
        return {k: round(v / len(items), 4) for k, v in sorted(counts.items())}
    out = {key: share(str(it.get(key)) for it in items) for key in keys}
    out["degree_band"] = share(_degree_band(it.get("degree")) for it in items)
    return out
