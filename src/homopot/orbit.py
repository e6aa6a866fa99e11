"""Homothetic-orbit integration and floating cross-checks of the
variational machinery.

The radial profile phi(t) of the orbit q = phi^{k0} c obeys the first
integral

    (1/2) k0^2 phi^{2(k0-1)} phidot^2 + phi^{k0 k} = 1

(energy normalized so V(c) = 1, i.e. alpha = -k in the orbit equation).
With s = k0 phidot phi^{k0-1} / sqrt2 this gives s^2 = 1 - phi^{k0 k},
the time change under which the first variational equation becomes the
hypergeometric-type equation with solutions (s^2-1)^{1/k}.  Integration
in physical time uses the Hamiltonian sign (force_sign = -1 in the
variational builder).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .varequ import VariationalSystem, build_higher_ve

SQRT2 = math.sqrt(2.0)


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


def first_integral(k: int, k0: int, phi, phidot):
    """The conserved quantity; equals 1 for orbit-normalized data."""
    return 0.5 * k0**2 * phi ** (2 * (k0 - 1)) * phidot**2 + phi ** (k0 * k)


def initial_phidot(p: OrbitParams) -> float:
    rest = 1.0 - p.phi0 ** (p.k0 * p.k)
    if rest < 0:
        raise OrbitError(
            f"phi0 = {p.phi0} is outside the energy-1 region (phi^(k0 k) > 1)")
    return math.sqrt(2.0 * rest) / (p.k0 * p.phi0 ** (p.k0 - 1))


def _acceleration(k: int, k0: int, phi: float, phidot: float) -> float:
    # from differentiating the first integral (equivalently ddot q = -grad V)
    if k0 == 1:
        return -k * phi ** (k - 1)
    return (-(k / k0) * phi ** (k0 * k - 2 * k0 + 1)
            - (k0 - 1) * phidot**2 / phi)


@dataclass
class Trajectory:
    params: OrbitParams
    t: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    drift: np.ndarray = field(repr=False)
    max_drift: float = 0.0
    sol: object = field(default=None, repr=False)

    def phi_at(self, t):
        return self.sol.sol(t)[0]

    def state_at(self, t):
        out = self.sol.sol(t)
        return out[0], out[1]

    def s_at(self, t):
        phi, phidot = self.state_at(t)
        return self.params.k0 * phidot * phi ** (self.params.k0 - 1) / SQRT2

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "phi", "phidot", "drift"])
            for row in zip(self.t, self.phi, self.phidot, self.drift):
                w.writerow([f"{v:.16e}" for v in row])


def integrate_orbit(p: OrbitParams) -> Trajectory:
    """Adaptive high-order integration (DOP853, rtol 1e-12, atol 1e-14) with
    a drift log of the first integral on 400 samples."""
    phidot0 = p.phidot0 if p.phidot0 is not None else initial_phidot(p)
    f0 = first_integral(p.k, p.k0, p.phi0, phidot0)

    def rhs(t, y):
        phi, phidot = y
        return [phidot, _acceleration(p.k, p.k0, phi, phidot)]

    events = []
    if p.k < 0:
        def collision(t, y):
            return y[0] - p.collision_guard
        collision.terminal = True
        collision.direction = -1
        events.append(collision)

    sol = solve_ivp(rhs, p.t_span, [p.phi0, phidot0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True, events=events)
    if not sol.success:
        raise OrbitError(f"integration failed: {sol.message}")
    if sol.status == 1:
        raise OrbitError(
            f"orbit reached the collision guard phi = {p.collision_guard} "
            f"at t = {sol.t_events[0][0]:.6g}")
    ts = np.linspace(p.t_span[0], sol.t[-1], 400)
    phi, phidot = sol.sol(ts)
    drift = np.abs(first_integral(p.k, p.k0, phi, phidot) - f0)
    return Trajectory(params=p, t=ts, phi=phi, phidot=phidot,
                      drift=drift, max_drift=float(drift.max()), sol=sol)


def time_change_check(traj: Trajectory) -> float:
    """max |s^2 - 1 + phi^{k0 k}| with s = k0 phidot phi^{k0-1}/sqrt2."""
    p = traj.params
    s = p.k0 * traj.phidot * traj.phi ** (p.k0 - 1) / SQRT2
    defect = np.abs(s**2 - 1.0 + traj.phi ** (p.k0 * p.k))
    return float(defect.max())


# -- variational systems along the orbit ------------------------------------


@dataclass
class VeSolution:
    t: np.ndarray
    y: np.ndarray            # shape (dim, len(t)), complex
    max_residual: float
    sol: object = field(default=None, repr=False)

    def at(self, t):
        return self.sol.sol(t)


def _compile_rhs(system: VariationalSystem):
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
        compiled.append((src, tgt, factor, coef.phi_exp))
    dim = system.dim

    def matrix(phi: complex) -> np.ndarray:
        A = np.zeros((dim, dim), dtype=complex)
        for src, tgt, factor, e in compiled:
            A[src, tgt] += factor * phi**e
        return A

    return matrix


def integrate_ve(system: VariationalSystem, traj: Trajectory, y0) -> VeSolution:
    """Integrate dy/dt = A(phi(t)) y along the orbit (DOP853, rtol 1e-10,
    atol 1e-12) and measure the defect.

    The residual is || d/dt y_interp - A(phi) y_interp || sampled at 60
    points of the span, using the integrator's dense output.  Every symbol
    of the system needs a value from its jet (and lambda from system.lam).
    """
    if system.level > 3:
        raise ValueError("variational integration is guarded to levels <= 3")
    matrix = _compile_rhs(system)
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    y0 = np.asarray(y0, dtype=complex)
    if y0.shape != (system.dim,):
        raise ValueError(f"initial condition must have dimension {system.dim}")

    def rhs(t, y):
        return matrix(traj.phi_at(t)) @ y

    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True)
    if not sol.success:
        raise OrbitError(f"variational integration failed: {sol.message}")

    ts = np.linspace(t0, t1, len(traj.t))
    ys = sol.sol(ts)
    span = t1 - t0
    h = max(1e-7, 1e-7 * span)
    check_ts = np.linspace(t0 + 2 * h, t1 - 2 * h, 60)
    ycs = sol.sol(check_ts)
    dys = (sol.sol(check_ts + h) - sol.sol(check_ts - h)) / (2 * h)
    worst = 0.0
    for phi, yc, dy in zip(traj.phi_at(check_ts), ycs.T, dys.T):
        res = dy - matrix(phi) @ yc
        worst = max(worst, float(np.max(np.abs(res)) / (1.0 + np.max(np.abs(yc)))))
    return VeSolution(t=ts, y=ys, max_residual=worst, sol=sol)


def normal_solution_reference(traj: Trajectory, t) -> complex:
    """(s(t)^2 - 1)^{1/k} on the principal branch."""
    k = traj.params.k
    s = traj.s_at(t)
    return complex(s * s - 1.0) ** (1.0 / k)


def pk_comparison(traj: Trajectory) -> float:
    """Integrate the level-1 normal equation (lambda = k, physical sign)
    from P_k-matched data and return the max relative deviation from
    (s^2-1)^{1/k}."""
    p = traj.params
    k, k0 = p.k, p.k0
    system = build_higher_ve(None, 1, k, lam=Fraction(k), k0=k0, force_sign=-1)
    t0 = float(traj.t[0])

    def ref(t):
        return normal_solution_reference(traj, t)

    h = 1e-6
    x0 = ref(t0)
    dx0 = (ref(t0 + h) - ref(t0 - h)) / (2 * h)
    # index order: (0,0,0,1)=X2, (0,0,1,0)=X1, (0,1,0,0)=dX2, (1,0,0,0)=dX1
    y0 = np.zeros(4, dtype=complex)
    y0[system.position((0, 0, 0, 1))] = x0
    y0[system.position((0, 1, 0, 0))] = dx0
    ve = integrate_ve(system, traj, y0)
    ts = np.linspace(t0, float(traj.t[-1]), 80)
    dev = 0.0
    for s, got in zip(traj.s_at(ts), ve.at(ts)[system.position((0, 0, 0, 1))]):
        # normal_solution_reference's value at s: Python's complex power,
        # not numpy's, so each value is the one a scalar call gives
        expect = complex(s * s - 1.0) ** (1.0 / k)
        dev = max(dev, abs(got - expect) / max(1.0, abs(expect)))
    return dev


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
        "t_end": float(traj.t[-1]),
        "max_drift": traj.max_drift,
        "time_change_defect": time_change_check(traj),
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
        rng = np.random.default_rng(7)
        y0 = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
        ve = integrate_ve(system, traj, y0)
        out["ve_level"] = int(level)
        out["ve_residual"] = ve.max_residual
    return out
