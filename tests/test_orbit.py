"""Orbit integration fidelity and variational cross-checks in floating point."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest

from homopot import orbit as O
from homopot.varequ import build_higher_ve


def test_drift_repulsive():
    p = O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 5.0))
    traj = O.integrate_orbit(p)
    assert traj.max_drift < 1e-9
    # phidot(0) from the first integral: (1/2) phidot^2 = 1 - phi^-3
    assert abs(traj.phidot[0] - math.sqrt(2 * (1 - 2.0**-3))) < 1e-12


def test_initial_drift_exact():
    p = O.OrbitParams(k=-3, phi0=2.0)
    phidot0 = O.initial_phidot(p)
    assert O.first_integral(-3, 1, 2.0, phidot0) == pytest.approx(1.0, abs=1e-15)


def test_cubic_turning_point():
    p = O.OrbitParams(k=3, phi0=0.5, t_span=(0.0, 1.2))
    traj = O.integrate_orbit(p)
    assert traj.max_drift < 1e-9
    assert traj.phi.max() <= 1.0 + 1e-9          # energy ceiling phi^3 <= 1
    assert traj.phidot.min() < 0 < traj.phidot.max()  # it actually turned


def test_time_change_defect():
    for cfg in ((-3, 1, 2.0, (0, 5)), (3, 1, 0.5, (0, 1.2)), (-3, 2, 1.2, (0, 2))):
        k, k0, phi0, span = cfg
        traj = O.integrate_orbit(O.OrbitParams(k=k, k0=k0, phi0=phi0, t_span=span))
        assert O.time_change_check(traj) < 1e-9, cfg


def test_collision_guard():
    # fast infall (above the normalized energy) must stop at the guard
    p = O.OrbitParams(k=-3, phi0=2.0, phidot0=-5.0, t_span=(0.0, 50.0),
                      collision_guard=0.5)
    with pytest.raises(O.OrbitError, match="collision"):
        O.integrate_orbit(p)


def test_energy_region_guard():
    with pytest.raises(O.OrbitError):
        O.initial_phidot(O.OrbitParams(k=3, phi0=1.5))  # phi^3 > 1


def test_ve_superposition():
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 3.0)))
    system = build_higher_ve(None, 1, -3, lam=Q(-3), force_sign=-1)
    y0 = np.array([0.3, -0.2, 1.0, 0.7], dtype=complex)
    a = O.integrate_ve(system, traj, y0)
    b = O.integrate_ve(system, traj, 2.5 * y0)
    assert np.max(np.abs(b.y - 2.5 * a.y)) < 1e-7
    assert a.max_residual < 1e-7


def test_zero_initial_conditions():
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 2.0)))
    system = build_higher_ve(None, 1, -3, lam=Q(-3), force_sign=-1)
    sol = O.integrate_ve(system, traj, np.zeros(4, dtype=complex))
    assert np.max(np.abs(sol.y)) == 0.0


def test_pk_match():
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 4.0)))
    assert O.pk_comparison(traj) < 1e-6


def test_tangential_solution_is_phidot():
    # time-translation symmetry: X1 = phidot solves the tangential block
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 3.0)))
    system = build_higher_ve(None, 1, -3, lam=Q(-3), force_sign=-1)
    phi0, phidot0 = traj.state_at(0.0)
    acc0 = -(-3) * phi0 ** (-4)
    y0 = np.zeros(4, dtype=complex)
    y0[system.position((0, 0, 1, 0))] = phidot0
    y0[system.position((1, 0, 0, 0))] = acc0
    sol = O.integrate_ve(system, traj, y0)
    pos = system.position((0, 0, 1, 0))
    for t in np.linspace(0.1, 2.9, 15):
        _, pd = traj.state_at(t)
        assert abs(sol.at(t)[pos] - pd) < 1e-8


def test_level2_residual():
    from homopot.parse import parse_potential
    from homopot.potential import jet_at
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 3.0)))
    jet = jet_at(parse_potential("r^-3"), (1, 0), 2)
    system = build_higher_ve(jet, 2, -3, lam=Q(-3), force_sign=-1)
    rng = np.random.default_rng(3)
    y0 = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    sol = O.integrate_ve(system, traj, y0)
    assert sol.max_residual < 1e-7


def test_scenarios_ship_and_run(tmp_path):
    cfgs = O.load_scenarios()
    assert len(cfgs) >= 3
    res = O.run_scenario(cfgs[0])
    assert res["max_drift"] < 1e-9
    traj = O.integrate_orbit(O.params_from_config(cfgs[0]))
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "t,phi,phidot,drift"


def test_unbound_symbols_are_named():
    # a structural system (no jet) leaves its d-symbols, and lambda when
    # symbolic, without a numeric value
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 1.0)))
    system = build_higher_ve(None, 2, -3, lam=Q(-3), force_sign=-1)
    with pytest.raises(O.OrbitError, match=r"symbol d_2_\d has no numeric value bound"):
        O.integrate_ve(system, traj, np.zeros(system.dim, dtype=complex))
    system = build_higher_ve(None, 1, -3, lam=None, force_sign=-1)
    with pytest.raises(O.OrbitError, match="symbol lam has no numeric value bound"):
        O.integrate_ve(system, traj, np.zeros(system.dim, dtype=complex))


@pytest.mark.parametrize("key, value", [("rtol", 1e-8), ("atol", 1e-10),
                                        ("phidot_sign", -1)])
def test_fixed_settings_are_refused_in_scenarios(key, value):
    cfg = dict(O.load_scenarios()[0], **{key: value})
    with pytest.raises(ValueError, match=f"scenario key '{key}'"):
        O.params_from_config(cfg)


def test_level_guard():
    traj = O.integrate_orbit(O.OrbitParams(k=-3, phi0=2.0, t_span=(0.0, 1.0)))
    system = build_higher_ve(None, 4, -3, lam=Q(-3), force_sign=-1)
    with pytest.raises(ValueError, match="levels"):
        O.integrate_ve(system, traj, np.zeros(system.dim, dtype=complex))


# -- the checks' grids read the dense output once, as the per-point loops did --

def _max_residual_per_point(system, traj, ve, n_check=60):
    # integrate_ve's residual, one dense-output call per point
    matrix = O._compile_rhs(system)
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    h = max(1e-7, 1e-7 * (t1 - t0))
    worst = 0.0
    for tc in np.linspace(t0 + 2 * h, t1 - 2 * h, n_check):
        yc = ve.sol.sol(tc)
        dy = (ve.sol.sol(tc + h) - ve.sol.sol(tc - h)) / (2 * h)
        res = dy - matrix(traj.phi_at(tc)) @ yc
        worst = max(worst, float(np.max(np.abs(res)) / (1.0 + np.max(np.abs(yc)))))
    return worst


def _pk_comparison_per_point(traj):
    # pk_comparison, one dense-output call per point
    p = traj.params
    system = build_higher_ve(None, 1, p.k, lam=Q(p.k), k0=p.k0, force_sign=-1)
    t0 = float(traj.t[0])

    def ref(t):
        return O.normal_solution_reference(traj, t)

    h = 1e-6
    y0 = np.zeros(4, dtype=complex)
    y0[system.position((0, 0, 0, 1))] = ref(t0)
    y0[system.position((0, 1, 0, 0))] = (ref(t0 + h) - ref(t0 - h)) / (2 * h)
    ve = O.integrate_ve(system, traj, y0)
    pos = system.position((0, 0, 0, 1))
    dev = 0.0
    for t in np.linspace(t0, float(traj.t[-1]), 80):
        expect = ref(t)
        dev = max(dev, abs(ve.at(t)[pos] - expect) / max(1.0, abs(expect)))
    return dev


@pytest.mark.parametrize("cfg", O.load_scenarios(), ids=lambda cfg: cfg["name"])
def test_check_grids_match_per_point_loops(cfg):
    from homopot.parse import parse_potential
    from homopot.potential import jet_at
    traj = O.integrate_orbit(O.params_from_config(cfg))
    k, k0 = traj.params.k, traj.params.k0
    assert O.pk_comparison(traj) == pytest.approx(_pk_comparison_per_point(traj), rel=1e-12)
    level = cfg.get("ve_level", 1)
    jet = jet_at(parse_potential(cfg["potential"]), (1, 0), level) if level > 1 else None
    system = build_higher_ve(jet, level, k, lam=Q(cfg.get("lambda", k)), k0=k0,
                             force_sign=-1)
    rng = np.random.default_rng(7)
    y0 = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    ve = O.integrate_ve(system, traj, y0)
    assert ve.max_residual == pytest.approx(
        _max_residual_per_point(system, traj, ve), rel=1e-12)
