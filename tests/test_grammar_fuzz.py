"""Seeded fuzz over both expression grammars: every input finishes in
bounded time and either returns a value or raises PotentialError, in the
parser and in `analyze`."""

import random
import time

import pytest

from homopot.potential import PotentialError
from homopot.parse import MAX_POWER_TERMS, parse_potential, parse_trig_poly
from homopot.report import analyze

N_INPUTS = 1000
TIME_LIMIT_S = 2.0

GOOD_TRIG_ARGS = ("theta", "2*theta", "3theta", "-theta", "(theta + theta)", "0*theta",
                  "4*theta - theta", "-2*theta")
BAD_TRIG_ARGS = ("theta^2", "theta*theta", "1/2*theta", "theta + 1", "0.5*theta",
                 "i*theta", "r", "theta/0", "cos(theta)", "2", "theta/2", "theta^-1",
                 "1/theta", "2*theta^1", "theta/(theta - theta)")
ZERO_INVERSIONS = ("(q1 - q1)^-1", "0^-1", "1/0", "1/(q2 - q2)", "(0)^-2")
POLAR_ZERO_INVERSIONS = ("1/(cos(theta) - cos(theta))", "1/(r - r)", "(0*r)^-1", "1/0")
# powers of a sum whose expansion may have up to MAX_POWER_TERMS = 128 terms,
# and the next exponent of each, which is refused
AT_POWER_CAP = ("(q1 + q2)^127*q1", "(q1 - 2*q2)^-127*q1^130", "r^-3*(1 + cos(theta))^63",
                "(1 + 1/2*cos(2*theta))^31", "(q1 + q2 + 1)^10")
ABOVE_POWER_CAP = ("(q1 + q2)^128*q1", "(q1 - 2*q2)^-128*q1^131", "r^-3*(1 + cos(theta))^64",
                   "(1 + 1/2*cos(2*theta))^32", "(q1 + q2 + 1)^11")


def _coef(rng) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return str(rng.randint(0, 9))
    if kind == 1:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    if kind == 2:
        return f"{rng.randint(0, 9)}.{rng.randint(0, 99)}"
    if kind == 3:
        return f"({rng.randint(-3, 3)} + {rng.randint(-3, 3)}*i)"
    if kind == 4:
        return "i"
    return f"-{rng.randint(1, 9)}"


def _cartesian(rng, d: int, depth: int) -> str:
    """A Cartesian expression that is homogeneous of degree d unless a
    random slip breaks it."""
    if rng.random() < 0.05:
        d += rng.choice((-1, 1))
    choice = rng.choices(range(6), (4, 4, 3, 2, 2, 1))[0] if depth > 0 else 0
    if choice == 0 or d < 0:
        a = rng.randint(0, max(d, 0))
        b = d - a
        if b < 0:
            return f"{_coef(rng)}*q1^{a}/q2^{-b}"
        mono = "".join(f"{v}^{e}" if e > 1 else v for v, e in (("q1", a), ("q2", b)) if e)
        sep = "" if rng.random() < 0.3 else "*"
        return f"{_coef(rng)}{sep}{mono}" if mono else _coef(rng)
    if choice == 1:
        op = rng.choice(("+", "-"))
        return f"{_cartesian(rng, d, depth - 1)} {op} {_cartesian(rng, d, depth - 1)}"
    if choice == 2:
        d1 = rng.randint(0, d)
        return f"({_cartesian(rng, d1, depth - 1)})({_cartesian(rng, d - d1, depth - 1)})"
    if choice == 3:
        e = rng.randint(1, 2)
        return f"({_cartesian(rng, d + e, depth - 1)})/({_cartesian(rng, e, depth - 1)})"
    if choice == 4:
        n = rng.choice((-2, -1, 0, 2, 3))
        if n > 0 and d % n == 0:
            return f"({_cartesian(rng, d // n, depth - 1)})^{n}"
        if n < 0:
            return f"({_cartesian(rng, 1, depth - 1)})^{n}*{_cartesian(rng, d - n, 0)}"
        return f"({_cartesian(rng, d, depth - 1)})^1"
    return f"{_cartesian(rng, d, depth - 1)} + {rng.choice(ZERO_INVERSIONS)}*{_cartesian(rng, d, 0)}"


def _trig_arg(rng) -> str:
    return rng.choice(BAD_TRIG_ARGS) if rng.random() < 0.15 else rng.choice(GOOD_TRIG_ARGS)


def _angular(rng, depth: int) -> str:
    """A trig polynomial in theta, with the occasional bad construct."""
    choice = rng.randrange(7) if depth > 0 else rng.randrange(3)
    if choice == 0:
        return _coef(rng)
    if choice in (1, 2):
        return f"{_coef(rng)}*{rng.choice(('cos', 'sin'))}({_trig_arg(rng)})"
    if choice == 3:
        op = rng.choice(("+", "-"))
        return f"{_angular(rng, depth - 1)} {op} {_angular(rng, depth - 1)}"
    if choice == 4:
        return f"({_angular(rng, depth - 1)})*({_angular(rng, depth - 1)})"
    if choice == 5:
        return f"({_angular(rng, depth - 1)})^{rng.randint(0, 3)}"
    extra = ("theta", rng.choice(POLAR_ZERO_INVERSIONS), f"1/({_angular(rng, 0)})",
             f"{_coef(rng)}/{rng.randint(1, 5)}")
    return f"{_angular(rng, depth - 1)} + {rng.choice(extra)}"


def _polar(rng) -> str:
    k = rng.choice((-7, -5, -3, -2, -1, 1, 3, 4))
    U = _angular(rng, 2)
    form = rng.randrange(5)
    if form == 0:
        return f"r^{k}*({U})"
    if form == 1:
        return f"({U})/r^{-k}" if k < 0 else f"r^{k}({U})"
    if form == 2:
        return f"{_coef(rng)}*r^{k}"
    if form == 3:
        return f"r^{k}*({U}) + r^{k + rng.choice((0, 0, 1))}*({_angular(rng, 1)})"
    return f"r^{k}*({U}) + {_cartesian(rng, 2, 0)}"   # mixed q/r input


def fuzz_inputs(seed: int, n: int) -> list:
    """n texts from both grammars, drawn from a fixed seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.45:
            out.append(_cartesian(rng, rng.randint(1, 5), 2))
        elif kind < 0.85:
            out.append(_polar(rng))
        else:
            out.append(_angular(rng, 2))
    return out


def _returns_or_raises_in_time(text: str):
    started = time.perf_counter()
    try:
        V = parse_potential(text)
    except PotentialError:
        V = None
    if "theta" in text or "r" in text:   # a polar string
        try:
            parse_trig_poly(text)
        except PotentialError:
            pass
    if V is not None:
        try:
            analyze(V)
        except PotentialError:
            pass
    elapsed = time.perf_counter() - started
    assert elapsed < TIME_LIMIT_S, (text, elapsed)


def test_every_grammar_input_returns_or_raises_potential_error():
    for text in fuzz_inputs(20261018, N_INPUTS) + list(AT_POWER_CAP + ABOVE_POWER_CAP):
        _returns_or_raises_in_time(text)


def test_power_cap_refuses_just_above_it():
    assert MAX_POWER_TERMS == 128
    for text in AT_POWER_CAP:
        try:
            parse_potential(text)
        except PotentialError as exc:
            assert "non-homogeneous" in str(exc), text
    for text in ABOVE_POWER_CAP:
        with pytest.raises(PotentialError, match="power too large"):
            parse_potential(text)


@pytest.mark.parametrize("text", [
    "(q1+q2+1)^32", "(q1+q2+1)^64", "r^-3*(1+cos(theta)+sin(2*theta))^64",
    "r^-3*(1+cos(theta))^128", "(q1+q2)^128*q1"])
def test_power_of_a_sum_parses_fast_or_is_refused_at_once(text):
    started = time.perf_counter()
    try:
        parse_potential(text)
        limit = 0.5
    except PotentialError:
        limit = 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < limit, (text, elapsed)


def test_power_of_one_term_is_not_capped():
    assert parse_potential("q1^1000").degree == 1000
    assert parse_potential("(2*i*q1*q2^-1)^300*q2^301").degree == 301
