"""Homothetic-orbit integration and floating cross-checks of the
variational machinery.

The radial profile phi(t) of the orbit q = phi^{k0} c obeys the first
integral

    (1/2) k0^2 phi^{2(k0-1)} phidot^2 + phi^{k0 k} = 1

(energy normalized so V(c) = 1, i.e. alpha = -k in the orbit equation).
With s = k0 phidot phi^{k0-1} / sqrt2 this gives s^2 = 1 - phi^{k0 k},
the time change under which the first variational equation becomes the
hypergeometric-type equation with solutions (s^2-1)^{1/k}.  That identity
is the first integral rewritten, so `Trajectory.max_drift` measures it.
Integration in physical time uses the Hamiltonian sign (force_sign = -1 in
the variational builder).

Both are integrated by Taylor series on the same steps, in psi = phi^{k0}:
psi'' = -k psi^{k-1} for every weight, s = psidot/sqrt2, and an entry
c phi^e of a variational system is c psi^{e/k0}.  Powers of a series come
from J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), and a step
ends where the last two terms of the orbit series reach STEP_TOL (Jorba
and Zou, Experimental Math. 14, 2005).
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from operator import mul
from typing import Optional

from .varequ import VariationalSystem, build_higher_ve

SQRT2 = math.sqrt(2.0)
ORDER = 20          # Taylor order of every step
# below the rounding of psi, because that of psidot is about ORDER/h larger
STEP_TOL = 1e-17


class OrbitError(RuntimeError):
    pass


@dataclass
class OrbitParams:
    k: int
    k0: int = 1
    phi0: float = 1.5
    phidot0: Optional[float] = None   # None: the positive root of the first integral
    t_span: tuple = (0.0, 5.0)
    collision_guard: float = 1e-4

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("degree k must be nonzero")
        if self.k0 not in (1, 2):
            raise ValueError("only weights k0 in {1, 2} arise here")
        if self.phi0 <= 0:
            raise ValueError("initial phi must be positive")
        if not self.t_span[0] < self.t_span[1]:
            raise ValueError("t_span must end after it starts")


def first_integral(k: int, k0: int, phi, phidot):
    """The conserved quantity; equals 1 for orbit-normalized data."""
    return 0.5 * k0**2 * phi ** (2 * (k0 - 1)) * phidot**2 + phi ** (k0 * k)


def initial_phidot(p: OrbitParams) -> float:
    rest = 1.0 - p.phi0 ** (p.k0 * p.k)
    if rest < 0:
        raise OrbitError(
            f"phi0 = {p.phi0} is outside the energy-1 region (phi^(k0 k) > 1)")
    return math.sqrt(2.0 * rest) / (p.k0 * p.phi0 ** (p.k0 - 1))


def _miller(x, p, a):
    """The next coefficient of p = x^a from the coefficients of x and those
    p already has (Miller's recurrence; needs x[0] != 0)."""
    n = len(p)
    return sum(((a + 1) * j - n) * x[j] * p[n - j] for j in range(1, n + 1)) / (n * x[0])


def _horner(c, tau):
    """Value and derivative at tau of the polynomial with coefficients c."""
    value = rate = 0.0
    for coef in reversed(c):
        rate = rate * tau + value
        value = value * tau + coef
    return value, rate


def _grid(t0: float, t1: float, n: int) -> list:
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n - 1)] + [t1]


@dataclass
class _Piecewise:
    """Dense output: step i starts at starts[i], and series[i][c] holds the
    Taylor coefficients of component c in powers of t - starts[i]."""
    starts: list = field(repr=False)
    series: list = field(repr=False)

    def _jets(self, t):
        """(value, derivative) of every component at t."""
        i = max(bisect_right(self.starts, t) - 1, 0)
        return [_horner(c, t - self.starts[i]) for c in self.series[i]]


@dataclass
class Trajectory(_Piecewise):
    """The orbit, whose one component is psi = phi^k0, with phi, phidot and
    the drift of the first integral from its value at t[0] on the samples t."""
    params: OrbitParams
    t: list = field(repr=False)
    phi: list = field(init=False, repr=False)
    phidot: list = field(init=False, repr=False)
    max_drift: float = field(init=False)

    def __post_init__(self):
        p = self.params
        self.phi, self.phidot = map(list, zip(*map(self.state_at, self.t)))
        f = [first_integral(p.k, p.k0, a, b) for a, b in zip(self.phi, self.phidot)]
        self.max_drift = max(abs(v - f[0]) for v in f)

    def state_at(self, t):
        psi, psidot = self._jets(t)[0]
        phi = psi ** (1 / self.params.k0)
        return phi, psidot / (self.params.k0 * phi ** (self.params.k0 - 1))

    def s_at(self, t):
        return self._jets(t)[0][1] / SQRT2


def integrate_orbit(p: OrbitParams) -> Trajectory:
    """Taylor integration of order ORDER, sampled at 400 points."""
    phidot0 = p.phidot0 if p.phidot0 is not None else initial_phidot(p)
    t0, t1 = map(float, p.t_span)
    t, psi, psidot = t0, p.phi0 ** p.k0, p.k0 * p.phi0 ** (p.k0 - 1) * phidot0
    guard = p.collision_guard ** p.k0 if p.k < 0 else -math.inf
    starts, series = [], []
    while t < t1:
        x, power = [psi, psidot], [psi ** (p.k - 1)]
        for n in range(ORDER - 1):
            x.append(-p.k * power[n] / ((n + 1) * (n + 2)))
            power.append(_miller(x, power, p.k - 1))
        tol = STEP_TOL * max(1.0, abs(psi))
        h = min([t1 - t] + [(tol / abs(x[j])) ** (1 / j) for j in (ORDER - 1, ORDER) if x[j]])
        psi_end, psidot_end = _horner(x, h)
        if not (t + h > t and math.isfinite(psi_end + psidot_end)):
            raise OrbitError(f"integration failed at t = {t:.6g}")
        if psi_end < guard <= psi:
            raise OrbitError(f"orbit reached the collision guard phi = {p.collision_guard} "
                             f"between t = {t:.6g} and {t + h:.6g}")
        starts.append(t)
        series.append([x])
        t, psi, psidot = t1 if h == t1 - t else t + h, psi_end, psidot_end
    return Trajectory(starts, series, p, _grid(t0, t1, 400))


# -- variational systems along the orbit ------------------------------------


@dataclass
class VeSolution(_Piecewise):
    max_residual: float

    def at(self, t):
        return [value for value, _ in self._jets(t)]


def _compile_rhs(system: VariationalSystem):
    """(src, tgt, factor, a) for each entry factor * psi^a of A."""
    table = dict(system.d_values or {})
    if system.lam is not None:
        table.setdefault("lam", complex(float(system.lam)))
    compiled = []
    for (src, tgt), coef in system.transitions.items():
        factor = complex(float(coef.q))
        for s in coef.syms:
            if s not in table:
                raise OrbitError(f"symbol {s} has no numeric value bound")
            factor *= complex(table[s])
        compiled.append((src, tgt, factor, coef.phi_exp / system.k0))
    return compiled


def integrate_ve(system: VariationalSystem, traj: Trajectory, y0) -> VeSolution:
    """Integrate dy/dt = A(phi(t)) y along the orbit by Taylor series of
    order ORDER on the orbit's steps, and measure the defect.

    The residual is max |y' - A(phi) y| / (1 + max |y|) on 60 points of the
    span, with y and y' from the step polynomials.  Every symbol of the
    system needs a value from its jet (and lambda from system.lam).
    """
    if system.level > 3:
        raise ValueError("variational integration is guarded to levels <= 3")
    rhs = _compile_rhs(system)
    y = [complex(v) for v in y0]
    if len(y) != system.dim:
        raise ValueError(f"initial condition must have dimension {system.dim}")
    series = []
    for start, end, (x,) in zip(traj.starts, traj.starts[1:] + traj.t[-1:], traj.series):
        powers = {a: [x[0] ** a] for *_, a in rhs}
        for a, power in powers.items():
            while len(power) < len(x):
                power.append(_miller(x, power, a))
        c = [[v] for v in y]
        for n in range(ORDER):
            rate = [0j] * len(c)
            for src, tgt, factor, a in rhs:
                rate[src] += factor * sum(map(mul, powers[a], reversed(c[tgt])))
            for ci, r in zip(c, rate):
                ci.append(r / (n + 1))
        series.append(c)
        y = [_horner(ci, end - start)[0] for ci in c]

    ve = VeSolution(traj.starts, series, max_residual=0.0)
    for tc in _grid(traj.t[0], traj.t[-1], 60):
        psi = traj._jets(tc)[0][0]
        jets = ve._jets(tc)
        res = [rate for _, rate in jets]
        for src, tgt, factor, a in rhs:
            res[src] -= factor * psi**a * jets[tgt][0]
        ve.max_residual = max(ve.max_residual, max(map(abs, res))
                              / (1.0 + max(abs(value) for value, _ in jets)))
    return ve


def pk_comparison(traj: Trajectory) -> float:
    """Integrate the level-1 normal equation (lambda = k, physical sign)
    from P_k-matched data and return the max relative deviation from
    (s^2-1)^{1/k}."""
    k = traj.params.k
    system = build_higher_ve(None, 1, k, lam=Fraction(k), k0=traj.params.k0, force_sign=-1)
    t0 = traj.t[0]

    def ref(t):  # (s(t)^2 - 1)^{1/k} on the principal branch
        return complex(traj.s_at(t) ** 2 - 1.0) ** (1.0 / k)

    # its derivative (2/k) s sdot (s^2 - 1)^{1/k - 1}, with sdot = psi''/sqrt2
    # and psi'' = -k psi^(k-1)
    (psi, psidot), = traj._jets(t0)
    s, sdot = psidot / SQRT2, -k * psi ** (k - 1) / SQRT2
    # index order: (0,0,0,1)=X2, (0,0,1,0)=X1, (0,1,0,0)=dX2, (1,0,0,0)=dX1
    y0 = [0j] * 4
    y0[system.position((0, 0, 0, 1))] = ref(t0)
    y0[system.position((0, 1, 0, 0))] = 2 / k * s * sdot * complex(s * s - 1.0) ** (1.0 / k - 1)
    ve = integrate_ve(system, traj, y0)
    pos = system.position((0, 0, 0, 1))
    ts = _grid(t0, traj.t[-1], 80)
    return max(abs(ve.at(t)[pos] - r) / max(1.0, abs(r)) for t, r in zip(ts, map(ref, ts)))


# -- shipped scenarios -------------------------------------------------------


def load_scenarios() -> list:
    out = []
    base = resources.files("homopot").joinpath("scenarios")
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append(json.loads(entry.read_text()))
    return out


def params_from_config(cfg: dict) -> OrbitParams:
    """Orbit parameters from the scenario keys k, phi0, k0 and t_span."""
    for key in ("rtol", "atol", "phidot_sign"):
        if key in cfg:
            raise ValueError(f"scenario key {key!r} is not accepted: the orbit "
                             "tolerances and the sign of phidot are fixed")
    return OrbitParams(
        k=int(cfg["k"]),
        k0=int(cfg.get("k0", 1)),
        phi0=float(cfg["phi0"]),
        t_span=tuple(cfg.get("t_span", (0.0, 5.0))),
    )


def run_scenario(cfg: dict) -> dict:
    """Integrate one scenario config and report all fidelity measures."""
    p = params_from_config(cfg)
    traj = integrate_orbit(p)
    out = {
        "name": cfg.get("name", f"k={p.k},k0={p.k0}"),
        "k": p.k,
        "k0": p.k0,
        "t_end": traj.t[-1],
        "max_drift": traj.max_drift,
    }
    if cfg.get("pk_check", False):
        out["pk_deviation"] = pk_comparison(traj)
    level = cfg.get("ve_level")
    if level:
        from .parse import parse_potential
        from .potential import jet_at
        V = parse_potential(cfg["potential"])
        jet = jet_at(V, (1, 0), int(level))
        lam = Fraction(cfg["lambda"]) if "lambda" in cfg else None
        system = build_higher_ve(jet, int(level), p.k, lam=lam, k0=p.k0,
                                 force_sign=-1)
        rng = random.Random(7)
        y0 = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(system.dim)]
        ve = integrate_ve(system, traj, y0)
        out["ve_level"] = int(level)
        out["ve_residual"] = ve.max_residual
    return out
