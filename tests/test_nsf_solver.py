"""Solver checks: temperature recovery, tendencies, conservation, health."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import scenarios, sweep, thermo
from nsflab.errors import (ConfigError, DomainError, ModelViolationError, PositivityError,
                           UsageError)
from nsflab.nsf_solver import state_from_primitives
from test_step_oracle import _ref_temperature_from_energy


def scaling(a=0.0, nu=0.0, omega=0.0, lam=0.0):
    return thermo.ScalingParams(a=a, nu=nu, omega=omega, lam=lam)


def theta_of(state, config):
    return ns.recover_temperature(state.rho, state.mom, state.etot, config.gas,
                                  config.scaling.a)


def run_config(gas, transport, grid, sc, **kw):
    kw.setdefault("t_end", 1.0)
    return ns.NsfRunConfig(gas=gas, transport=transport, scaling=sc, grid=grid, **kw)


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_values(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")
    sc = scaling(nu=0.1)
    run_config(ideal, transport, grid, sc)  # baseline accepted
    for bad in (dict(cfl=0.95), dict(cfl=0.0), dict(t_end=0.0), dict(t_end=math.inf),
                dict(output_stride=0), dict(positivity_floor=(0.0, 1e-12)),
                dict(positivity_floor=(1e-12, -1.0))):
        with pytest.raises(ConfigError):
            run_config(ideal, transport, grid, sc, **bad)


def test_resolved_order_degrades_for_pure_euler(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")

    def order(a, nu, omega, lam):
        sc = scaling(a=a, nu=nu, omega=omega, lam=lam)
        return run_config(ideal, transport, grid, sc)._kernel.order

    assert order(0.0, 0.0, 0.0, 0.0) == 1
    assert order(0.0, 1e-3, 0.0, 0.0) == 2
    assert order(1e-4, 0.0, 0.0, 0.0) == 2
    assert order(0.0, 0.0, 0.0, 1e-2) == 2
    assert order(0.0, 0.0, 1e-3, 0.0) == 2


# ---------------------------------------------------------------------------
# temperature recovery


def test_recover_temperature_reference_points(ideal):
    rho = np.ones(4)
    mom = np.zeros((1, 4))
    th0 = ns.recover_temperature(rho, mom, np.full(4, 1.5), ideal, 0.0)
    assert np.allclose(th0, 1.0, rtol=1e-12)
    th1 = ns.recover_temperature(rho, mom, np.full(4, 2.5), ideal, 1.0)
    assert np.allclose(th1, 1.0, rtol=1e-12)


def test_recover_temperature_round_trip(law_a):
    rng = np.random.default_rng(7)
    n = 300
    rho = 10.0 ** rng.uniform(-2, 2, n)
    theta = 10.0 ** rng.uniform(-2, 2, n)
    u = rng.normal(0.0, 1.0, (1, n))
    for a in (0.0, 0.6):
        state = state_from_primitives(law_a, a, (rho, theta, u))
        rec = ns.recover_temperature(state.rho, state.mom, state.etot, law_a, a)
        assert np.max(np.abs(rec - theta) / theta) < 1e-11


def test_recover_temperature_reports_bad_cell(ideal):
    rho = np.ones((3, 4))
    rho[1, 2] = -0.5
    mom = np.zeros((2, 3, 4))
    etot = np.full((3, 4), 1.5)
    with pytest.raises(PositivityError) as exc:
        ns.recover_temperature(rho, mom, etot, ideal, 0.0)
    assert exc.value.where == (1, 2)
    assert "(1, 2)" in str(exc.value)

    rho = np.ones((3, 4))
    mom = np.zeros((2, 3, 4))
    mom[0, 2, 1] = 2.0  # kinetic 2.0 exceeds etot 1.5
    with pytest.raises(PositivityError) as exc:
        ns.recover_temperature(rho, mom, np.full((3, 4), 1.5), ideal, 0.0)
    assert exc.value.where == (2, 1)


# ---------------------------------------------------------------------------
# tendencies


@pytest.mark.parametrize("bc", ["periodic", "slip-wall"])
@pytest.mark.parametrize("dim", [1, 2])
def test_uniform_rest_state_is_equilibrium(ideal, transport, bc, dim):
    if dim == 1:
        grid = gf.Grid.line(2.0, 16, bc)
    else:
        grid = gf.Grid.box((2.0, 1.0), (12, 8), (bc, bc))
    shape = grid.cells
    sc = scaling(a=0.2, nu=0.05, omega=0.04, lam=0.3)
    config = run_config(ideal, transport, grid, sc)
    state = state_from_primitives(ideal, sc.a, (np.full(shape, 1.3), np.full(shape, 0.8),
                       np.zeros((dim, *shape))))
    dW = ns.rhs_nsf(state, config)
    drho, dmom, detot = dW[0], dW[1:-1], dW[-1]
    assert np.all(drho == 0.0)
    assert np.all(dmom == 0.0)
    assert np.all(detot == 0.0)


def test_damping_only_tendencies(ideal, transport):
    grid = gf.Grid.line(1.0, 24, "periodic")
    sc = scaling(lam=0.35)
    config = run_config(ideal, transport, grid, sc)
    u = np.full((1, 24), 0.4)
    state = state_from_primitives(ideal, 0.0, (np.full(24, 1.2), np.full(24, 0.9), u))
    dW = ns.rhs_nsf(state, config)
    drho, dmom, detot = dW[0], dW[1:-1], dW[-1]
    assert np.all(drho == 0.0)
    assert np.allclose(dmom, -sc.lam * u, rtol=1e-14, atol=0.0)
    assert np.allclose(detot, -sc.lam * u[0] ** 2, rtol=1e-14, atol=0.0)


def _orders(errs):
    errs = np.asarray(errs, dtype=float)
    return np.log2(errs[:-1] / errs[1:])


def test_manufactured_solution_order_1d(ideal, transport):
    x = sp.symbols("x")
    w = 2 * sp.pi
    a, nu, omega, lam = 0.4, 0.05, 0.04, 0.25
    rho_s = 1 + sp.Rational(1, 4) * sp.sin(w * x)
    u_s = sp.Rational(3, 10) * sp.cos(w * x)
    th_s = 1 + sp.Rational(1, 5) * sp.sin(w * x + sp.Rational(7, 10))
    mu_s, eta_s, kap_s = 1 + th_s, (1 + th_s) / 10, 1 + th_s ** 3
    p_s = rho_s * th_s + sp.Rational(1, 3) * a * th_s ** 4
    E_s = rho_s * u_s ** 2 / 2 + sp.Rational(3, 2) * rho_s * th_s + a * th_s ** 4
    S_s = nu * (sp.Rational(4, 3) * mu_s + eta_s) * sp.diff(u_s, x)
    q_s = -omega * kap_s * sp.diff(th_s, x)
    rhs = (
        -sp.diff(rho_s * u_s, x),
        -sp.diff(rho_s * u_s ** 2 + p_s, x) + sp.diff(S_s, x) - lam * u_s,
        -sp.diff((E_s + p_s) * u_s, x) + sp.diff(S_s * u_s - q_s, x) - lam * u_s ** 2,
    )
    f_rho, f_u, f_th = (sp.lambdify(x, e, "numpy") for e in (rho_s, u_s, th_s))
    f_rhs = [sp.lambdify(x, e, "numpy") for e in rhs]

    errs = []
    for n in (48, 96, 192):
        grid = gf.Grid.line(1.0, n, "periodic")
        config = run_config(ideal, transport, grid,
                            scaling(a=a, nu=nu, omega=omega, lam=lam))
        (xc,) = gf.cell_centers(grid)
        state = state_from_primitives(ideal, a, (f_rho(xc), f_th(xc), f_u(xc)[None]))
        force = (-f_rhs[0](xc), -f_rhs[1](xc)[None], -f_rhs[2](xc))
        dW = ns.rhs_nsf(state, config)
        dW[0] += force[0]
        dW[1:-1] += force[1]
        dW[-1] += force[2]
        drho, dmom, detot = dW[0], dW[1:-1], dW[-1]
        errs.append([gf.norm(drho, grid, 2), gf.norm(dmom[0], grid, 2),
                     gf.norm(detot, grid, 2)])
    orders = _orders(errs)
    assert np.all(orders[-1] >= 1.8), orders
    assert np.all(orders[0] >= 1.5), orders


def test_manufactured_solution_order_2d(ideal, transport):
    x, y = sp.symbols("x y")
    w = 2 * sp.pi
    a, nu, omega, lam = 0.3, 0.05, 0.03, 0.1
    rho_s = 1 + sp.Rational(1, 5) * sp.sin(w * x) * sp.cos(w * y)
    ux_s = sp.Rational(1, 4) * sp.cos(w * x) * sp.sin(w * y) + sp.Rational(1, 10)
    uy_s = -sp.Rational(1, 5) * sp.sin(w * x) * sp.cos(w * y) + sp.Rational(1, 20)
    th_s = 1 + sp.Rational(3, 20) * sp.cos(w * x) * sp.cos(w * y)
    mu_s, eta_s, kap_s = 1 + th_s, (1 + th_s) / 10, 1 + th_s ** 3
    p_s = rho_s * th_s + sp.Rational(1, 3) * a * th_s ** 4
    u = sp.Matrix([ux_s, uy_s])
    X = (x, y)
    G = sp.Matrix(2, 2, lambda i, j: sp.diff(u[i], X[j]))
    div = G[0, 0] + G[1, 1]
    I2 = sp.eye(2)
    S = nu * (mu_s * (G + G.T - sp.Rational(2, 3) * div * I2) + eta_s * div * I2)
    E_s = rho_s * (ux_s ** 2 + uy_s ** 2) / 2 + sp.Rational(3, 2) * rho_s * th_s + a * th_s ** 4
    q = [-omega * kap_s * sp.diff(th_s, xi) for xi in X]
    rhs_mass = -sum(sp.diff(rho_s * u[j], X[j]) for j in range(2))
    rhs_mom = [
        sum(-sp.diff(rho_s * u[i] * u[j] + (p_s if i == j else 0), X[j])
            + sp.diff(S[i, j], X[j]) for j in range(2)) - lam * u[i]
        for i in range(2)
    ]
    rhs_etot = sum(
        -sp.diff((E_s + p_s) * u[j], X[j])
        + sp.diff(sum(S[i, j] * u[i] for i in range(2)) - q[j], X[j])
        for j in range(2)
    ) - lam * (ux_s ** 2 + uy_s ** 2)

    lam_of = lambda e: sp.lambdify((x, y), e, "numpy")
    f_rho, f_ux, f_uy, f_th = map(lam_of, (rho_s, ux_s, uy_s, th_s))
    f_mass, f_m0, f_m1, f_etot = map(lam_of, (rhs_mass, rhs_mom[0], rhs_mom[1], rhs_etot))

    errs = []
    for n in (16, 32, 64):
        grid = gf.Grid.box((1.0, 1.0), (n, n), ("periodic", "periodic"))
        config = run_config(ideal, transport, grid,
                            scaling(a=a, nu=nu, omega=omega, lam=lam))
        XC, YC = gf.mesh(grid)
        uu = np.stack([f_ux(XC, YC), f_uy(XC, YC)])
        state = state_from_primitives(ideal, a, (f_rho(XC, YC), f_th(XC, YC), uu))
        force = (-f_mass(XC, YC),
                 -np.stack([f_m0(XC, YC), f_m1(XC, YC)]),
                 -f_etot(XC, YC))
        dW = ns.rhs_nsf(state, config)
        dW[0] += force[0]
        dW[1:-1] += force[1]
        dW[-1] += force[2]
        drho, dmom, detot = dW[0], dW[1:-1], dW[-1]
        errs.append([gf.norm(drho, grid, 2), gf.norm(dmom[0], grid, 2),
                     gf.norm(dmom[1], grid, 2), gf.norm(detot, grid, 2)])
    orders = _orders(errs)
    assert np.all(orders[-1] >= 1.8), orders
    assert np.all(orders[0] >= 1.4), orders


# ---------------------------------------------------------------------------
# time-step bound


def test_stable_dt_acoustic_closed_form(ideal, transport):
    grid = gf.Grid.line(2.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(), cfl=0.45)
    state = state_from_primitives(ideal, 0.0, (np.ones(16), np.ones(16), np.zeros((1, 16))))
    dt = ns.stable_dt(state, theta_of(state, config), config)
    expected = 0.45 * (2.0 / 16) / math.sqrt(5.0 / 3.0)
    assert abs(dt - expected) / expected < 1e-10


def test_stable_dt_diffusive_scaling(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")
    state = state_from_primitives(ideal, 0.0, (np.ones(16), np.ones(16), np.zeros((1, 16))))
    dts = []
    for nu in (5.0, 10.0):
        config = run_config(ideal, transport, grid, scaling(nu=nu), cfl=0.4)
        dts.append(ns.stable_dt(state, theta_of(state, config), config))
    dx = 1.0 / 16
    expected = 0.4 * dx * dx / (2.0 * 1 * 5.0 * transport.mu(1.0))
    assert abs(dts[0] - expected) / expected < 1e-10
    assert abs(dts[0] / dts[1] - 2.0) < 1e-10


# ---------------------------------------------------------------------------
# stepping and conservation


def test_step_preserves_equilibrium(ideal, transport):
    grid = gf.Grid.box((1.0, 1.0), (8, 8), ("slip-wall", "periodic"))
    sc = scaling(a=0.1, nu=0.02, omega=0.03, lam=0.2)
    config = run_config(ideal, transport, grid, sc)
    state = state_from_primitives(ideal, sc.a, (np.full((8, 8), 1.1), np.full((8, 8), 0.9),
                       np.zeros((2, 8, 8))))
    dt = ns.stable_dt(state, theta_of(state, config), config)
    out = ns.step(state, dt, config)
    assert np.max(np.abs(out.rho - state.rho)) <= 1e-15
    assert np.max(np.abs(out.mom - state.mom)) <= 1e-15
    assert np.max(np.abs(out.etot - state.etot)) <= 1e-15
    assert out.time == pytest.approx(dt)


@pytest.mark.parametrize("bc", ["periodic", "slip-wall"])
def test_mass_conserved_over_thousand_steps(ideal, transport, bc):
    grid = gf.Grid.line(1.0, 32, bc)
    sc = scaling(a=0.0, nu=0.01, omega=0.01, lam=0.05)
    config = run_config(ideal, transport, grid, sc, cfl=0.4)
    x = gf.cell_centers(grid)[0]
    if bc == "periodic":
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        th = 1.0 + 0.1 * np.cos(2 * np.pi * x)
        u = 0.1 * np.cos(2 * np.pi * x)
    else:
        rho = 1.0 + 0.2 * np.cos(np.pi * x)
        th = 1.0 + 0.1 * np.cos(np.pi * x)
        u = 0.1 * np.sin(np.pi * x)  # vanishes at both walls
    state = state_from_primitives(ideal, 0.0, (rho, th, u[None]))
    m0 = gf.integrate(state.rho, grid)
    stats = ns.StepStats()
    for _ in range(1000):
        dt = ns.stable_dt(state, theta_of(state, config), config)
        state = ns.step(state, dt, config, stats=stats)
    assert abs(gf.integrate(state.rho, grid) - m0) / m0 < 1e-12
    assert np.all(np.isfinite(state.etot))
    assert stats.floor_hits == 0


def test_mass_conserved_2d_mixed_boundaries(ideal, transport):
    grid = gf.Grid.box((1.0, 0.75), (16, 12), ("periodic", "slip-wall"))
    sc = scaling(a=0.1, nu=0.01, omega=0.01, lam=0.1)
    config = run_config(ideal, transport, grid, sc, cfl=0.4)
    X, Y = gf.mesh(grid)
    ky = np.pi / 0.75
    rho = 1.0 + 0.15 * np.sin(2 * np.pi * X) * np.cos(ky * Y)
    th = 1.0 + 0.1 * np.cos(2 * np.pi * X) * np.cos(ky * Y)
    u = np.stack([0.1 * np.sin(2 * np.pi * X) * np.cos(ky * Y),
                  0.05 * np.cos(2 * np.pi * X) * np.sin(ky * Y)])
    state = state_from_primitives(ideal, sc.a, (rho, th, u))
    m0 = gf.integrate(state.rho, grid)
    for _ in range(300):
        dt = ns.stable_dt(state, theta_of(state, config), config)
        state = ns.step(state, dt, config)
    assert abs(gf.integrate(state.rho, grid) - m0) / m0 < 1e-12
    assert np.all(np.isfinite(state.etot))
    sigma, total = ns.entropy_production(state, theta_of(state, config), config)
    assert np.all(sigma >= 0.0) and total >= 0.0


def test_energy_budget_residual_shrinks_with_resolution(ideal, transport):
    def budget_residual(n):
        grid = gf.Grid.line(1.0, n, "slip-wall")
        sc = scaling(a=0.0, nu=0.02, omega=0.02, lam=0.15)
        config = run_config(ideal, transport, grid, sc, t_end=0.25,
                            output_stride=4, cfl=0.35)
        x = gf.cell_centers(grid)[0]
        rho = 1.0 + 0.2 * np.cos(np.pi * x)
        th = 1.0 + 0.1 * np.cos(np.pi * x)
        u = (0.15 * np.sin(np.pi * x))[None]
        traj = ns.simulate(config, (rho, th, u))
        assert traj.healthy and not traj.aborted
        rows = np.asarray(traj.rows, dtype=float)
        return float(np.max(np.abs(rows[:, 2] + rows[:, 3] - rows[0, 2])))

    r32, r64 = budget_residual(32), budget_residual(64)
    assert r32 < 1e-4
    assert r32 / r64 >= 3.0


def test_pure_euler_degradation_runs_stably(ideal, transport):
    grid = gf.Grid.line(1.0, 64, "periodic")
    config = run_config(ideal, transport, grid, scaling(), t_end=0.3, cfl=0.45)
    assert config._kernel.order == 1
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * x)
    th = 1.0 + 0.05 * np.cos(2 * np.pi * x)
    u = (0.1 * np.sin(2 * np.pi * x))[None]
    traj = ns.simulate(config, (rho, th, u))
    assert traj.healthy and not traj.aborted
    rows = np.asarray(traj.rows, dtype=float)
    assert abs(rows[-1, 1] - rows[0, 1]) / rows[0, 1] < 1e-12
    assert rows[-1, 5] > 0.5  # density stays far from the floor


# ---------------------------------------------------------------------------
# entropy production


def test_entropy_production_uniform_is_zero(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    config = run_config(ideal, transport, grid, scaling(a=0.1, nu=0.3, omega=0.2))
    state = state_from_primitives(ideal, 0.1, (np.full(16, 1.4), np.full(16, 1.1),
                       np.zeros((1, 16))))
    sigma, total = ns.entropy_production(state, theta_of(state, config), config)
    assert np.all(sigma == 0.0)
    assert total == 0.0


def test_entropy_production_shear_closed_form(ideal, transport):
    g = 0.7
    theta0 = 0.85
    grid = gf.Grid.box((1.0, 1.0), (8, 10), ("periodic", "slip-wall"))
    config = run_config(ideal, transport, grid, scaling(nu=0.3, omega=0.2))
    _, Y = gf.mesh(grid)
    u = np.stack([g * Y, np.zeros_like(Y)])
    state = state_from_primitives(ideal, 0.0, (np.ones_like(Y), np.full_like(Y, theta0), u))
    sigma, total = ns.entropy_production(state, theta_of(state, config), config)
    expected = 0.3 * transport.mu(theta0) * g * g / theta0
    # mirror ghosts bend the linear profile in the wall layer; the closed
    # form is exact from one cell in
    assert np.allclose(sigma[:, 1:-1], expected, rtol=1e-12)
    assert np.all(sigma >= 0.0)
    assert total > 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_entropy_production_nonnegative(seed):
    rng = np.random.default_rng(seed)
    gas = thermo.ideal_gas()
    transport = thermo.default_transport()
    bc = "periodic" if seed % 2 else "slip-wall"
    grid = gf.Grid.line(1.0, 16, bc)
    config = ns.NsfRunConfig(gas=gas, transport=transport,
                             scaling=scaling(a=0.1, nu=0.4, omega=0.3, lam=0.1),
                             grid=grid, t_end=1.0)
    rho = 0.2 + rng.exponential(1.0, 16)
    theta = 0.3 + rng.exponential(1.0, 16)
    u = rng.normal(0.0, 1.0, (1, 16))
    state = state_from_primitives(gas, 0.1, (rho, theta, u))
    sigma, total = ns.entropy_production(state, theta_of(state, config), config)
    assert np.all(sigma >= 0.0)
    assert total >= 0.0


# ---------------------------------------------------------------------------
# floors and run health


def test_step_stats_health_threshold():
    s = ns.StepStats()
    s.record(1, 1000)
    assert not s.unhealthy
    s.record(2, 1000)
    assert s.unhealthy
    assert "exceeded" in s.reason
    assert s.floor_hits == 3


def test_apply_floors_counts_hits(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling())
    rho = np.full(16, 0.5)
    rho[3] = 1e-13  # below the density floor
    mom = np.zeros((1, 16))
    etot = thermo.internal_energy_density(ideal, 0.0, rho, np.full(16, 1.0))
    etot[7] = 1e-14  # below the floor-temperature energy
    W = gf.FluidState(rho, mom, etot).W
    hits = ns._floor_pass(W, config)[0]
    r2, m2, e2 = W[0], W[1:-1], W[-1]
    assert hits == 2
    assert r2[3] == 1e-12
    assert e2[7] == pytest.approx(
        thermo.internal_energy_density(ideal, 0.0, 0.5, 1e-12))
    assert np.all(m2 == mom)


def test_energy_drain_marks_run_unhealthy(ideal, transport, add_source):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(), t_end=0.05,
                        output_stride=2)
    zero = np.zeros(16)
    add_source(lambda t: (zero, zero[None], np.full(16, -60.0)))
    traj = ns.simulate(config, (np.ones(16), np.ones(16), np.zeros((1, 16))))
    assert not traj.healthy
    assert not traj.aborted
    assert traj.floor_hits > 0
    assert "floor hits" in traj.health_reason
    assert traj.times[-1] == pytest.approx(0.05)


def test_nan_forcing_aborts_run(ideal, transport, add_source):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(), t_end=0.1)
    add_source(lambda t: (np.full(16, np.nan), np.zeros((1, 16)), np.zeros(16)))
    traj = ns.simulate(config, (np.ones(16), np.ones(16), np.zeros((1, 16))))
    assert traj.aborted
    assert not traj.healthy
    assert traj.abort_state is not None
    assert "aborted at t=" in traj.health_reason
    assert len(traj.times) >= 1


def test_nan_momentum_aborts_through_stage_validation(ideal, transport, add_source):
    # the floors pass a non-finite momentum on to the first intermediate
    # stage, which is not validated; the next tendency's temperature
    # recovery is what stops the run.  An accepted state is validated
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(), t_end=0.1)
    add_source(lambda t: (np.zeros(16), np.full((1, 16), np.nan), np.zeros(16)))
    initial = (np.ones(16), np.ones(16), np.zeros((1, 16)))
    traj = ns.simulate(config, initial)
    assert traj.aborted
    assert "non-finite inputs to temperature inversion" in traj.health_reason
    state = state_from_primitives(ideal, 0.0, initial)
    with pytest.raises(PositivityError, match="non-finite values in fluid state"):
        ns.ssp_rk3(state, 0.01, lambda s: np.full_like(s.W, np.nan))


def test_ssp_rk3_validates_only_the_accepted_state(ideal, transport, count_calls):
    grid = gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic"))
    config = run_config(ideal, transport, grid, scaling(a=0.01, nu=0.02, omega=0.01))
    X, Y = gf.mesh(grid)
    state = state_from_primitives(ideal, 0.01, (1.0 + 0.1 * np.cos(np.pi * X), np.ones(grid.cells),
                                                np.stack([0.1 * np.sin(np.pi * X), 0 * Y])))
    checks = count_calls(gf.FluidState, "_check_fields")
    out = ns.step(state, 0.01, config)
    assert len(checks) == 1 and checks[0][0] is out


def test_step_leaves_its_input_state_unchanged_when_floors_fire(ideal, transport, add_source):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling())
    zero = np.zeros(16)
    add_source(lambda t: (zero, zero[None], np.full(16, -60.0)))
    state = state_from_primitives(ideal, 0.0, (np.ones(16), np.ones(16), np.zeros((1, 16))))
    before = state.W.copy()
    stats = ns.StepStats()
    out = ns.step(state, 0.05, config, stats=stats)
    assert stats.floor_hits > 0
    assert np.array_equal(state.W, before) and state.time == 0.0
    assert not np.shares_memory(out.W, state.W)


def test_simulate_names_a_zero_density_initial_cell(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(nu=0.01))
    rho = np.ones(16)
    rho[5] = 0.0
    initial = gf.FluidState(rho, np.zeros((1, 16)), np.full(16, 1.5))
    with pytest.raises(PositivityError) as exc:
        ns.simulate(config, initial)
    assert exc.value.where == (5,)


def test_simulate_rejects_oversized_floors(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(),
                        positivity_floor=(1e-4, 1e-12))
    with pytest.raises(ConfigError):
        ns.simulate(config, (np.ones(16), np.ones(16), np.zeros((1, 16))))


# ---------------------------------------------------------------------------
# trajectories and diagnostics


def test_simulate_uniform_rest_constant_diagnostics(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    sc = scaling(a=0.2, nu=0.03, omega=0.02, lam=0.1)
    config = run_config(ideal, transport, grid, sc, t_end=0.2, output_stride=3)
    initial = (np.full(16, 1.2), np.full(16, 0.9), np.zeros((1, 16)))
    traj = ns.simulate(config, initial)
    assert traj.healthy and not traj.aborted
    rows = np.asarray(traj.rows, dtype=float)
    assert len(rows) >= 3
    assert np.all(np.diff(rows[:, 0]) > 0.0)
    assert np.all(rows[:, 1] == rows[0, 1])  # mass
    assert np.all(rows[:, 2] == rows[0, 2])  # total energy
    assert np.all(rows[:, 3] == 0.0)  # damping integral
    assert np.all(rows[:, 4] == 0.0)  # entropy production integral
    assert np.all(rows[:, 5] == 1.2)
    assert np.allclose(rows[:, 6], 0.9, rtol=1e-11)
    assert np.all(rows[:, 7] == 0)
    assert traj.times[-1] == pytest.approx(0.2)


def test_simulate_recovers_each_state_temperature_once(ideal, transport, count_calls):
    # per step: three RHS stages, each inverting in one call the stacked left
    # and right face states of the one axis and, from the second stage on,
    # its stage state (the first stage reuses the accepted state's theta),
    # plus the accepted state; every one of them goes through the one
    # inversion entry, `admissible_temperature`
    calls = count_calls(thermo, "admissible_temperature")
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    sc = scaling(a=0.01, nu=0.02, omega=0.01, lam=0.1)
    config = run_config(ideal, transport, grid, sc, t_end=0.05, output_stride=1)
    x = gf.cell_centers(grid)[0]
    traj = ns.simulate(config, (1.0 + 0.1 * np.cos(np.pi * x), np.ones(16),
                                (0.1 * np.sin(np.pi * x))[None]))
    steps = len(traj.times) - 1
    assert steps > 2 and not traj.aborted
    assert len(calls) == 4 * steps + 1
    # the stages' calls take their parts as tuples: cells and faces from
    # the second stage on, the faces alone in the first
    stages = [c[2] for c in calls if isinstance(c[2], tuple)]
    assert [len(parts) for parts in stages] == [1, 2, 2] * steps


def test_simulate_2d_recovers_each_face_array_once(ideal, transport, count_calls):
    # per step: three RHS stages, each inverting in one call one stacked
    # face array per axis and, from the second stage on, its stage state,
    # plus the accepted state, all through `admissible_temperature`
    calls = count_calls(thermo, "admissible_temperature")
    grid = gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic"))
    sc = scaling(a=0.01, nu=0.02, omega=0.01, lam=0.1)
    config = run_config(ideal, transport, grid, sc, t_end=0.06, output_stride=1)
    X, Y = gf.mesh(grid)
    rho = 1.0 + 0.1 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
    u = np.stack([0.1 * np.sin(np.pi * X), 0.05 * np.sin(2 * np.pi * Y)])
    traj = ns.simulate(config, (rho, np.ones(grid.cells), u))
    steps = len(traj.times) - 1
    assert steps > 2 and not traj.aborted
    assert len(calls) == 4 * steps + 1
    stages = [c[2] for c in calls if isinstance(c[2], tuple)]
    assert [len(parts) for parts in stages] == [2, 3, 3] * steps


def test_face_states_name_the_face_without_its_side():
    # first-order faces of a 1-D strip of 4 cells and 2 ghosts on each side:
    # face k has strip cell k + 1 on its left and k + 2 on its right
    W = np.ones((3, 8))
    W[2] = 1.5
    W[0, 4] = 0.0  # left of face 3, right of face 2: the left side comes first
    with pytest.raises(PositivityError) as exc:
        ns._face_states(W, 4, 1)
    assert exc.value.where == (3,)
    W[0, 4] = 1.0
    W[0, 6] = 0.0  # the right side of the last face only
    with pytest.raises(PositivityError) as exc:
        ns._face_states(W, 4, 1)
    assert exc.value.where == (4,)
    W[0, 6] = 1.0
    W[1, 3] = 2.0  # kinetic 2.0 exceeds etot 1.5 on the left of face 2
    with pytest.raises(PositivityError) as exc:
        ns._face_states(W, 4, 1)
    assert exc.value.where == (2,)


def _reference_convective(gas, a, grid, W_g, order):
    """The convective pipeline before each face quantity was computed once,
    kept as the oracle of `ns._convective`: separate face states, kinetic
    energy, closures and fluxes per side, then the Rusanov average."""
    d = ns._GHOST_DEPTH
    dim = grid.dim
    out = np.zeros(W_g.shape[:-dim] + grid.cells)
    for ax in range(dim):
        n = grid.cells[ax]
        dx = grid.spacing[ax]
        W = gf.axis_strip(W_g, grid, ax, d)
        lo, hi = d - 1, d + n
        WL1 = W[..., lo:hi]
        WR1 = W[..., lo + 1:hi + 1]
        WLR = np.stack((WL1, WR1), axis=1)
        if order == 2:
            slope = 0.5 * (W[..., 2:] - W[..., :-2])
            WLR = np.stack((WL1 + 0.5 * slope[..., lo - 1:hi - 1],
                            WR1 - 0.5 * slope[..., lo:hi]), axis=1)
            rho = WLR[0]
            ke = 0.5 * np.sum(WLR[1:-1] ** 2, axis=0) / np.where(rho > 0.0, rho, 1.0)
            bad = (rho <= 0.0) | (WLR[-1] - ke <= 0.0)
            WLR = np.where(bad[None], np.stack((WL1, WR1), axis=1), WLR)
        rho, mom, etot = WLR[0], WLR[1:-1], WLR[-1]
        e_int = ns._internal_energy(rho, mom, etot, 1)
        if np.ndim(a) == 0:
            theta = _ref_temperature_from_energy(gas, a, rho, e_int)
        else:  # member by member along the member axis 1
            theta = np.stack([_ref_temperature_from_energy(gas, float(ak), rho[:, k], e_int[:, k])
                              for k, ak in enumerate(np.ravel(a))], axis=1)
        z = rho * theta ** -1.5
        P, dP = gas.P(z), gas.dP(z)
        p = theta ** 2.5 * P + (a / 3.0) * theta ** 4
        stab = 2.5 * P - 1.5 * z * dP
        dp_dtheta = theta ** 1.5 * stab + (4.0 * a / 3.0) * theta ** 3
        cv_total = 1.5 * stab / z + 4.0 * a * theta ** 3 / rho
        c2 = theta * dP + theta * dp_dtheta ** 2 / (rho ** 2 * cv_total)
        c = np.sqrt(np.maximum(c2, thermo._EPS))
        un = mom[ax] / rho
        FLR = np.empty((2 + dim, *un.shape))
        FLR[0] = mom[ax]
        for k in range(dim):
            FLR[1 + k] = mom[k] * un
        FLR[1 + ax] += p
        FLR[-1] = (etot + p) * un
        s = np.abs(mom[ax] / rho) + c
        smax = np.maximum(s[0], s[1])
        F = 0.5 * (FLR[:, 0] + FLR[:, 1]) - 0.5 * smax * (WLR[:, 1] - WLR[:, 0])
        dW = -(F[..., 1:] - F[..., :-1]) / dx
        out += dW.swapaxes(-1, ax - dim)
    return out


def _wavy_state(gas, a, grid, rng, members=None):
    """A smooth state with random mode amplitudes; `members` stacks that
    many of them, each at its own a, as a batch."""
    if members is not None:
        parts = [_wavy_state(gas, ak, grid, rng) for ak in np.ravel(a)]
        times = np.zeros((members,) + (1,) * grid.dim)
        return gf.FluidState.stacked(np.stack([s.W for s in parts], axis=1), times)
    X = gf.mesh(grid) if grid.dim == 2 else gf.cell_centers(grid)
    wave = np.ones(grid.cells)
    for x in X:
        wave = wave * np.cos(np.pi * rng.integers(1, 4) * x + rng.uniform(0.0, 1.0))
    u = np.stack([rng.uniform(-0.3, 0.3) * np.sin(np.pi * x) * wave for x in X])
    return state_from_primitives(gas, a, (1.0 + rng.uniform(0.1, 0.4) * wave,
                                          1.0 + rng.uniform(-0.3, 0.3) * wave, u))


ORACLE_GRIDS = {
    "line-wall": gf.Grid.line(1.0, 20),
    "box-wall": gf.Grid.box((1.0, 1.0), (12, 10)),
    "box-periodic": gf.Grid.box((1.0, 2.0), (10, 12), ("periodic", "periodic")),
    "box-mixed": gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic")),
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("gas_name,a", [("ideal", 0.0), ("ideal", 0.3), ("law_a", 0.3)])
@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_convective_matches_the_reference_pipeline_bitwise(request, name, gas_name, a, order):
    gas = request.getfixturevalue(gas_name)
    grid = ORACLE_GRIDS[name]
    state = _wavy_state(gas, a, grid, np.random.default_rng(len(name) + order))
    W_g = gf.fill_ghosts_slip(state, grid, depth=ns._GHOST_DEPTH)
    got, _ = ns._convective(gas, a, grid, W_g, order)
    want = _reference_convective(gas, a, grid, W_g, order)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gas_name", ["ideal", "law_a"])
def test_convective_matches_the_reference_pipeline_bitwise_on_a_batch(request, gas_name):
    gas = request.getfixturevalue(gas_name)
    grid = ORACLE_GRIDS["line-wall"]
    a = np.array([1e-6, 0.3, 30.0]).reshape((3, 1))
    state = _wavy_state(gas, a, grid, np.random.default_rng(3), members=3)
    W_g = gf.fill_ghosts_slip(state, grid, depth=ns._GHOST_DEPTH)
    for order in (1, 2):
        got, _ = ns._convective(gas, a, grid, W_g, order)
        want = _reference_convective(gas, a, grid, W_g, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_convective_matches_the_reference_pipeline_bitwise_where_faces_fall_back(ideal):
    # a density step from 4 to 0.1: the central slope of the first low cell
    # sends its reconstructed density below zero, so those faces take the
    # cell values, while the others keep the reconstruction
    grid = gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic"))
    X, Y = gf.mesh(grid)
    rho = np.where(X < 0.5, 4.0, 0.1) * (1.0 + 0.05 * np.cos(2 * np.pi * Y))
    u = np.stack([0.2 * np.sin(np.pi * X), 0.1 * np.sin(2 * np.pi * Y)])
    state = state_from_primitives(ideal, 0.3, (rho, np.ones(grid.cells), u))
    W_g = gf.fill_ghosts_slip(state, grid, depth=ns._GHOST_DEPTH)
    strip = gf.axis_strip(W_g, grid, 0, ns._GHOST_DEPTH)
    slope = 0.5 * (strip[0, ..., 2:] - strip[0, ..., :-2])
    bad = np.stack((strip[0, ..., 1:-2] + 0.5 * slope[..., :-1] <= 0.0,
                    strip[0, ..., 2:-1] - 0.5 * slope[..., 1:] <= 0.0))  # (side, ..., face)
    assert bad.any() and not bad.all()
    WLR, _ = ns._face_states(strip, grid.cells[0], 2)
    first = np.stack((strip[..., 1:-2], strip[..., 2:-1]), axis=1)
    assert np.array_equal(WLR[:, bad], first[:, bad])
    got, _ = ns._convective(ideal, 0.3, grid, W_g, 2)
    want = _reference_convective(ideal, 0.3, grid, W_g, 2)
    assert got.tobytes() == want.tobytes()


def _raised(fn, *args):
    """(type, message, where) of what fn(*args) raises."""
    with pytest.raises((DomainError, PositivityError)) as exc:
        fn(*args)
    return type(exc.value), str(exc.value), getattr(exc.value, "where", None)


def test_convective_raises_what_separate_recoveries_raise_first(ideal):
    # the cells and every axis's faces are inverted in one call; what fails
    # raises what recovering them one at a time raises first
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    state = state_from_primitives(ideal, 0.3, (np.ones(8), np.ones(8), np.zeros((1, 8))))
    W_g = gf.fill_ghosts_slip(state, grid, depth=ns._GHOST_DEPTH)
    W_g[0, 5] = 0.0  # no density in ghost-frame cell 5: faces 3 and 4 fail their check
    e_int = state.etot.copy()
    e_int[6] = np.nan  # the cells' energy is not finite, and comes first
    cells = (state.rho, e_int)
    nan_first = (DomainError, "non-finite inputs to temperature inversion", None)
    assert _raised(ns._convective, ideal, 0.3, grid, W_g, 2, cells) == nan_first
    kind, message, where = _raised(ns._convective, ideal, 0.3, grid, W_g, 2)
    assert kind is PositivityError and "non-positive density" in message and where == (4,)
    assert (kind, message, where) == _raised(_reference_convective, ideal, 0.3, grid, W_g, 2)
    # 2-D: a non-finite x-ghost reaches only the faces of axis 0, and a
    # y-ghost without density only those of axis 1, which come second
    box = gf.Grid.box((1.0, 1.0), (9, 8), ("slip-wall", "periodic"))
    state = state_from_primitives(ideal, 0.3, (np.ones(box.cells), np.ones(box.cells),
                                               np.zeros((2, *box.cells))))
    W_g = gf.fill_ghosts_slip(state, box, depth=ns._GHOST_DEPTH)
    W_g[1, 0, 3] = np.nan
    W_g[0, 3, 1] = 0.0
    got = _raised(ns._convective, ideal, 0.3, box, W_g, 2)
    assert got == nan_first == _raised(_reference_convective, ideal, 0.3, box, W_g, 2)


def test_recover_in_order_checks_what_the_faces_have_not_proven(ideal):
    # the failure path inverts and evaluates each axis's faces with a
    # stage's own calls: a non-finite face raises the inversion's
    # DomainError, and a law with c_v <= 0 the closures' ModelViolationError
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    for a in (0.0, 0.3, np.array([[0.1], [0.2]])):
        members = (2,) if np.ndim(a) else ()
        time = np.zeros((*members, 1)) if members else 0.0
        for comp, value in itertools.product((0, -1), (math.nan, math.inf)):  # rho, etot
            W = np.ones((3, *members, 8))
            W[1], W[-1] = 0.0, 1.5
            W[(comp,) + (1,) * (W.ndim - 1)] = value
            W_g = gf.fill_ghosts_slip(gf.FluidState.stage(W, time), grid,
                                      depth=ns._GHOST_DEPTH)
            for order in (1, 2):
                with pytest.raises(DomainError,
                                   match="non-finite inputs to temperature inversion"):
                    ns._recover_in_order(ideal, a, grid, W_g, order, None)
    unstable = thermo.GasModel(
        name="bad",
        P=lambda z: np.asarray(z, float) ** 3,
        dP=lambda z: 3.0 * np.asarray(z, float) ** 2,
    )
    # e = 10 and 15 have roots where the radiation term grows, but c_v < 0 there
    for e_bad in (10.0, 15.0):
        state = gf.FluidState(np.ones(8), np.zeros((1, 8)), np.full(8, e_bad))
        W_g = gf.fill_ghosts_slip(state, grid, depth=ns._GHOST_DEPTH)
        with pytest.raises(ModelViolationError, match="c_v <= 0"):
            ns._recover_in_order(unstable, 0.1, grid, W_g, 2, (state.rho, state.etot))


@pytest.mark.parametrize("members", [1, 3])
def test_floor_pass_hands_over_the_stage_internal_energy(ideal, transport, members):
    # a stage's theta from the floor pass's internal energy is bitwise
    # recover_temperature's of the stage state; with a cold cell the pass
    # hands nothing over and the recovery forms and checks its own
    grid = gf.Grid.line(1.0, 24, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2))
    x = gf.cell_centers(grid)[0]
    initial = (1.0 + 0.05 * np.cos(np.pi * x), np.ones(24), (0.05 * np.sin(np.pi * x))[None])
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-3, 1e-4)[:members]]
    state, theta, config = ns._pack([ns._Member(c, initial) for c in configs])
    a = config.scaling.a
    for cold in (False, True):
        W = 0.01 * ns.rhs_nsf(state, config, theta)
        W += state.W  # a first stage, before its floor pass
        if cold:
            W[-1, ..., 5] = 1e-30
        hits, e_int = ns._floor_pass(W, config)
        assert (e_int is None) == cold and np.all(hits == (1 if cold else 0))
        stage = gf.FluidState.stage(W, state.time)
        want = ns.recover_temperature(stage.rho, stage.mom, stage.etot, ideal, a)
        got = ns.recover_temperature(stage.rho, stage.mom, stage.etot, ideal, a, e_int)
        assert got.tobytes() == want.tobytes()
        assert (ns.rhs_nsf(gf.FluidState.stage(W, state.time, e_int), config).tobytes()
                == ns.rhs_nsf(stage, config).tobytes())


def test_floor_pass_proves_nothing_for_other_laws(law_a, transport):
    # e_min > 0 is proven once per config for the ideal law only
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    config = run_config(law_a, transport, grid, _path_scaling(1e-2))
    state = state_from_primitives(law_a, 1e-2, (np.ones(16), np.ones(16), np.zeros((1, 16))))
    W = state.W.copy()
    assert not config._kernel.floor_proves
    assert ns._floor_pass(W, config) == (0, None)
    assert W.tobytes() == state.W.tobytes()


def test_simulate_repeat_runs_are_bit_identical(ideal, transport, tmp_path):
    grid = gf.Grid.line(1.0, 16, "periodic")
    sc = scaling(a=0.1, nu=0.02, omega=0.02, lam=0.2)
    config = run_config(ideal, transport, grid, sc, t_end=0.1, output_stride=2)
    x = gf.cell_centers(grid)[0]
    initial = (1.0 + 0.1 * np.sin(2 * np.pi * x), np.full(16, 1.0),
               (0.05 * np.cos(2 * np.pi * x))[None])
    csv1 = ns.simulate(config, initial).diagnostics_csv()
    csv2 = ns.simulate(config, initial).diagnostics_csv()
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0] == ("t,mass,etot,damping_integral,sigma_integral,"
                        "min_rho,min_theta,floor_hits")
    assert all(line.rsplit(",", 1)[1].isdigit() for line in lines[1:])
    sweep.write_nsf_run(tmp_path, {}, ns.simulate(config, initial))
    assert (tmp_path / "solver.csv").read_text(encoding="ascii") == csv1


def test_simulate_accepts_state_or_primitives(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = run_config(ideal, transport, grid, scaling(nu=0.01), t_end=0.05)
    rho = np.full(16, 1.1)
    th = np.full(16, 1.0)
    u = np.zeros((1, 16))
    t1 = ns.simulate(config, (rho, th, u))
    t2 = ns.simulate(config, state_from_primitives(ideal, 0.0, (rho, th, u)))
    assert t1.diagnostics_csv() == t2.diagnostics_csv()


# ---------------------------------------------------------------------------
# batches of runs


def _assert_same_run(got, want):
    assert got.times == want.times
    assert got.rows == want.rows
    assert got.diagnostics_csv() == want.diagnostics_csv()
    for s, w in zip(got.states, want.states, strict=True):
        assert s.W.tobytes() == w.W.tobytes() and s.time == w.time
    for th, w in zip(got.thetas, want.thetas, strict=True):
        assert th.shape == w.shape and th.tobytes() == w.tobytes()
    assert (got.floor_hits, got.healthy, got.health_reason, got.aborted) == \
        (want.floor_hits, want.healthy, want.health_reason, want.aborted)


def _path_scaling(a):
    return scaling(a=a, nu=a ** 0.55, omega=a ** 1.2, lam=a ** 0.1)


def test_batch_matches_solo_runs_bytewise_1d(ideal, transport):
    # the members take different step counts, so they leave the batch one
    # by one and the last runs on alone
    grid = gf.Grid.line(1.0, 24, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.2,
                      output_stride=3)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-3, 1e-4)]
    x = gf.cell_centers(grid)[0]
    initial = (1.0 + 0.05 * np.cos(np.pi * x), 1.0 + 0.02 * np.cos(np.pi * x),
               (0.05 * np.sin(np.pi * x))[None])
    trajs = ns.simulate_batch(configs, initial)
    solos = [ns.simulate(c, initial) for c in configs]
    assert len({len(t.times) for t in solos}) == 3
    for got, want in zip(trajs, solos, strict=True):
        assert want.healthy and len(want.times) > 3
        _assert_same_run(got, want)


def test_batch_matches_solo_runs_bytewise_2d(ideal, transport):
    grid = gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic"))
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.1,
                      output_stride=2)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-4)]
    X, Y = gf.mesh(grid)
    rho = 1.0 + 0.1 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
    u = np.stack([0.1 * np.sin(np.pi * X), 0.05 * np.sin(2 * np.pi * Y)])
    initial = (rho, np.ones(grid.cells) + 0.05 * np.cos(np.pi * X), u)
    trajs = ns.simulate_batch(configs, initial)
    solos = [ns.simulate(c, initial) for c in configs]
    assert len(solos[0].times) > len(solos[1].times) > 2
    for got, want in zip(trajs, solos, strict=True):
        assert want.healthy
        _assert_same_run(got, want)


def test_default_path_batch_inverts_its_segments_together(ideal, transport, monkeypatch):
    # the default sweep's three path points on its 48-cell line: every
    # inversion with segments stops them all at one Newton step, so the
    # joined loop serves it and no segment is inverted again alone
    grid = gf.Grid.line(1.0, 48, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.02, cfl=0.35)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-3, 1e-4)]
    inner, segmented = thermo._invert_ideal, []

    def watched(a, rho, e, rtol, max_iter, starts=None):
        theta = inner(a, rho, e, rtol, max_iter, starts)
        if starts is not None:
            segmented.append((len(starts), theta is not None))
        return theta

    monkeypatch.setattr(thermo, "_invert_ideal", watched)
    trajs = ns.simulate_batch(configs, scenarios.acoustic_entropy(grid, 0.01, 0.0).fields(grid))
    assert all(t.healthy for t in trajs)
    assert max(n for n, _ in segmented) == 3 * 2  # a stage's cells and faces, per member
    assert all(served for _, served in segmented)


def test_batch_member_that_aborts_alone_leaves_the_others_unchanged(ideal, transport):
    # a = 1e300 overflows the sound speed, so that member's first dt is 0:
    # the batched step fails, is redone one member at a time, and only that
    # member aborts, with the message its own run gives
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.1,
                      output_stride=2)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-3)]
    configs.insert(1, replace(base, scaling=scaling(a=1e300, nu=0.01, omega=0.01, lam=0.1)))
    x = gf.cell_centers(grid)[0]
    initial = (1.0 + 0.05 * np.cos(np.pi * x), np.ones(16), (0.05 * np.sin(np.pi * x))[None])
    with np.errstate(over="ignore"):
        trajs = ns.simulate_batch(configs, initial)
        solos = [ns.simulate(c, initial) for c in configs]
    assert solos[1].aborted and "stable_dt produced 0.0" in solos[1].health_reason
    assert trajs[1].aborted and trajs[1].health_reason == solos[1].health_reason
    assert trajs[1].abort_state.W.tobytes() == solos[1].abort_state.W.tobytes()
    for got, want in zip(trajs, solos, strict=True):
        _assert_same_run(got, want)


def test_batch_refuses_members_that_differ_beyond_their_scaling(ideal, transport):
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.1)
    initial = (np.ones(16), np.ones(16), np.zeros((1, 16)))
    other_grid = replace(base, grid=gf.Grid.line(1.0, 24, "slip-wall"))
    no_radiation = replace(base, scaling=scaling(a=0.0, nu=0.1, omega=0.1, lam=0.1))
    for mix in ([base, replace(base, cfl=0.3)], [base, other_grid],
                [base, replace(base, transport=thermo.default_transport())],
                [base, no_radiation], []):
        with pytest.raises(UsageError):
            ns.simulate_batch(mix, initial)


def test_batch_member_gone_non_finite_aborts_with_its_solo_message(ideal, transport,
                                                                   monkeypatch):
    # the member with a = 2e-3 gets a NaN tendency from t = 0.04 on; the
    # batched temperature recovery of the next stage catches it, the step
    # is redone member by member, and that member aborts as it does alone
    inner = ns.rhs_nsf

    def poisoned(state, config, *args, **kwargs):
        out = inner(state, config, *args, **kwargs)
        bad = (np.asarray(config.scaling.a) == 2e-3) & (np.asarray(state.time) > 0.04)
        return np.where(bad, np.nan, out)

    monkeypatch.setattr(ns, "rhs_nsf", poisoned)
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.1,
                      output_stride=2)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 2e-3, 1e-3)]
    x = gf.cell_centers(grid)[0]
    initial = (1.0 + 0.05 * np.cos(np.pi * x), np.ones(16), (0.05 * np.sin(np.pi * x))[None])
    trajs = ns.simulate_batch(configs, initial)
    solos = [ns.simulate(c, initial) for c in configs]
    assert solos[1].aborted and "non-finite inputs to temperature inversion" in solos[1].health_reason
    assert trajs[1].aborted and trajs[1].health_reason == solos[1].health_reason
    assert not trajs[0].aborted and not trajs[2].aborted
    for got, want in zip(trajs, solos, strict=True):
        _assert_same_run(got, want)


def _per_step_rate_sums(traj):
    """Trapezoid sums of the damping rate and the entropy production over
    the stored states of a run that stored every step, each state's rates
    evaluated on that state alone: the accounting before the rates were
    evaluated once per stored interval, kept as the oracle of the rows."""
    damping, sigma = gf.TrapezoidAccumulator(), gf.TrapezoidAccumulator()
    sums = {}
    for state, theta in zip(traj.states, traj.thetas, strict=True):
        u = state.velocity()
        rate = traj.config.scaling.lam * gf.integrate(np.sum(u * u, axis=0), traj.config.grid)
        sums[state.time] = (damping.add(state.time, rate),
                            sigma.add(state.time, ns.entropy_production(state, theta,
                                                                        traj.config)[1]))
    return sums


@pytest.mark.parametrize("dim,members", [(1, 1), (1, 3), (2, 2)])
def test_rates_once_per_stored_interval_match_the_per_step_sums_bitwise(ideal, transport,
                                                                        dim, members):
    # a run that stores every 5th step evaluates its rates in stacked blocks;
    # every row it stores is the row of the same run storing every step,
    # whose blocks hold one state, and both match the per-state oracle
    if dim == 1:
        grid = gf.Grid.line(1.0, 24, "slip-wall")
        x = gf.cell_centers(grid)[0]
        initial = (1.0 + 0.05 * np.cos(np.pi * x), 1.0 + 0.02 * np.cos(np.pi * x),
                   (0.05 * np.sin(np.pi * x))[None])
    else:
        grid = gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic"))
        X, Y = gf.mesh(grid)
        initial = (1.0 + 0.1 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y),
                   np.ones(grid.cells) + 0.05 * np.cos(np.pi * X),
                   np.stack([0.1 * np.sin(np.pi * X), 0.05 * np.sin(2 * np.pi * Y)]))
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.25)
    scalings = [_path_scaling(a) for a in (1e-2, 1e-3, 1e-4)[:members]]
    every = ns.simulate_batch([replace(base, scaling=sc, output_stride=1) for sc in scalings],
                              initial)
    fifth = ns.simulate_batch([replace(base, scaling=sc, output_stride=5) for sc in scalings],
                              initial)
    for fine, coarse in zip(every, fifth, strict=True):
        assert fine.healthy and len(coarse.times) >= 3 and len(fine.times) > 10
        oracle = _per_step_rate_sums(fine)
        by_time = dict(zip(fine.times, fine.rows))
        for row in fine.rows:
            assert row[3:5] == oracle[row[0]]
        for row in coarse.rows:
            assert row == by_time[row[0]]


def test_rates_take_one_state_per_call_on_a_large_grid(ideal, transport, count_calls):
    # 96x96 cells exceed the block's cell cap, so each accepted state's
    # rates are evaluated alone, right after its step, as they were before
    calls = count_calls(ns, "entropy_production")
    steps = count_calls(ns, "step")
    grid = gf.Grid.box((1.0, 1.0), (96, 96))
    config = run_config(ideal, transport, grid, _path_scaling(1e-6), t_end=0.004,
                        output_stride=6)
    X, Y = gf.mesh(grid)
    u = np.stack([0.01 * np.sin(np.pi * X), 0.01 * np.sin(np.pi * Y)])
    traj = ns.simulate(config, (1.0 + 0.01 * np.cos(np.pi * X), np.ones(grid.cells), u))
    assert len(steps) >= 2 and not traj.aborted
    assert len(calls) == len(steps) + 1
    assert all(state.W.shape == (4, 96, 96) for state, *_ in calls)


def test_rates_take_one_call_per_stored_interval_on_a_small_grid(ideal, transport,
                                                                 count_calls):
    calls = count_calls(ns, "entropy_production")
    grid = gf.Grid.line(1.0, 48, "slip-wall")
    config = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.1,
                        output_stride=4)
    x = gf.cell_centers(grid)[0]
    traj = ns.simulate(config, (1.0 + 0.05 * np.cos(np.pi * x), np.ones(48),
                                (0.05 * np.sin(np.pi * x))[None]))
    assert not traj.aborted and len(traj.times) > 3
    assert len(calls) == len(traj.times)
    # the initial state alone, then each stored instant's block of steps
    assert [state.W.shape for state, *_ in calls[:2]] == [(3, 48), (3, 4, 48)]


@pytest.mark.parametrize("stride", [1, 5])
def test_stored_instants_are_not_checked_again(ideal, transport, count_calls, stride):
    # a stored instant keeps a copy of its state's W, which its step already
    # checked, and the batch is packed from checked states: the checks are
    # the initial state's and one per accepted state, however many instants
    # are stored
    checks = count_calls(gf.FluidState, "_check_fields")
    steps = count_calls(ns, "step")
    grid = gf.Grid.line(1.0, 48, "slip-wall")
    config = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.05,
                        output_stride=stride)
    x = gf.cell_centers(grid)[0]
    traj = ns.simulate(config, (1.0 + 0.05 * np.cos(np.pi * x), np.ones(48),
                                (0.05 * np.sin(np.pi * x))[None]))
    assert not traj.aborted and len(traj.times) >= 3
    assert len(checks) == len(steps) + 1
    assert traj.W.shape == (3, len(traj.times), 48) and traj.thetas.shape == (len(traj.times), 48)


def test_stop_ends_a_batch_within_one_step(ideal, transport, count_calls):
    steps = count_calls(ns, "step")
    polls = []

    def stop():
        polls.append(len(steps))
        return len(polls) > 5

    grid = gf.Grid.line(1.0, 16, "slip-wall")
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=0.1,
                      output_stride=2)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-3)]
    x = gf.cell_centers(grid)[0]
    initial = (1.0 + 0.05 * np.cos(np.pi * x), np.ones(16), (0.05 * np.sin(np.pi * x))[None])
    trajs = ns.simulate_batch(configs, initial, stop=stop)
    # the sixth poll stopped the batch before its sixth step
    assert polls == [0, 1, 2, 3, 4, 5] and len(steps) == 5
    whole = ns.simulate_batch(configs, initial)
    for got, want in zip(trajs, whole, strict=True):
        assert got.times == want.times[:3] and got.rows == want.rows[:3]
    assert ns.simulate_batch(configs, initial, stop=lambda: False)[0].rows == whole[0].rows


# ---------------------------------------------------------------------------
# heap pages


class _FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_heap_pages_raises_the_top_pad_once(monkeypatch):
    fake = _FakeMallopt()
    monkeypatch.setattr(ns, "_mallopt", lambda: fake)
    monkeypatch.setattr(ns, "_top_pad", ns._TOP_PAD_DEFAULT)
    ns.keep_heap_pages(300_000)
    ns.keep_heap_pages(300_000)  # idempotent
    ns.keep_heap_pages(100_000)  # never lowers the pad
    ns.keep_heap_pages(1_000)    # nor goes below glibc's default
    assert fake.calls == [(ns._M_TOP_PAD, 32 * 300_000)]
    ns.keep_heap_pages(400_000)
    assert fake.calls[-1] == (ns._M_TOP_PAD, 32 * 400_000) and len(fake.calls) == 2
    ns.keep_heap_pages(2 ** 40)  # mallopt takes a C int
    assert fake.calls[-1] == (ns._M_TOP_PAD, 2 ** 31 - 1)


def test_keep_heap_pages_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(ns, "_mallopt", lambda: None)
    monkeypatch.setattr(ns, "_top_pad", ns._TOP_PAD_DEFAULT)
    ns.keep_heap_pages(10 ** 6)
    assert ns._top_pad == ns._TOP_PAD_DEFAULT
    monkeypatch.setattr(ns, "_mallopt", lambda: lambda param, value: 0)  # refuses
    ns.keep_heap_pages(10 ** 6)
    assert ns._top_pad == ns._TOP_PAD_DEFAULT


def test_simulate_keeps_the_pages_of_its_stacked_batch(ideal, transport, monkeypatch):
    fake = _FakeMallopt()
    monkeypatch.setattr(ns, "_mallopt", lambda: fake)
    monkeypatch.setattr(ns, "_top_pad", ns._TOP_PAD_DEFAULT)
    grid = gf.Grid.box((1.0, 1.0), (24, 24))
    base = run_config(ideal, transport, grid, _path_scaling(1e-2), t_end=1e-3)
    configs = [replace(base, scaling=_path_scaling(a)) for a in (1e-2, 1e-3)]
    ones = np.ones(grid.cells)
    ns.simulate_batch(configs, (ones, ones, np.zeros((2, *grid.cells))))
    assert fake.calls == [(ns._M_TOP_PAD, 32 * 2 * 4 * 24 * 24 * 8)]
