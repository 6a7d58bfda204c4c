"""Inviscid reference checks: stencil exactness, life span, residuals, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import thermo
from nsflab.errors import ConfigError, DomainError, UsageError


def euler_config(gas, grid, **kw):
    kw.setdefault("t_end", 0.5)
    return er.EulerRunConfig(gas=gas, grid=grid, **kw)


def acoustic(grid, amp=0.01):
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + amp * np.cos(2 * np.pi * x)
    theta = np.full(grid.cells, 1.0)
    u = (amp * np.sin(2 * np.pi * x))[None]
    return rho, theta, u


def pulse_state(grid, amp):
    x = gf.cell_centers(grid)[0]
    ones = np.ones(grid.cells)
    return ones, ones.copy(), (-amp * np.sin(2 * np.pi * x))[None]


@pytest.fixture(scope="module")
def pulse04(ideal):
    grid = gf.Grid.line(1.0, 128, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.8, cfl=0.35, output_stride=4)
    return er.run_euler(cfg, pulse_state(grid, 0.4))


@pytest.fixture(scope="module")
def pulse08(ideal):
    grid = gf.Grid.line(1.0, 128, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.8, cfl=0.35, output_stride=4)
    return er.run_euler(cfg, pulse_state(grid, 0.8))


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_values(ideal):
    grid = gf.Grid.line(1.0, 16, "periodic")
    euler_config(ideal, grid)  # baseline accepted
    for bad in (dict(cfl=0.95), dict(cfl=0.0), dict(t_end=0.0),
                dict(t_end=math.inf), dict(output_stride=0),
                dict(eps_f=-0.01)):
        with pytest.raises(ConfigError):
            euler_config(ideal, grid, **bad)


# ---------------------------------------------------------------------------
# spatial operator


@pytest.mark.parametrize("bc", ["periodic", "slip-wall"])
@pytest.mark.parametrize("dim", [1, 2])
def test_rhs_uniform_state_is_exactly_zero(ideal, bc, dim):
    if dim == 1:
        grid = gf.Grid.line(1.0, 16, bc)
    else:
        grid = gf.Grid.box((1.0, 0.75), (16, 12), (bc, bc))
    rho = np.full(grid.cells, 1.3)
    theta = np.full(grid.cells, 0.9)
    etot = thermo.internal_energy_density(ideal, 0.0, rho, theta)
    state = gf.FluidState(rho, np.zeros((dim, *grid.cells)), etot, 0.0)
    for eps in (0.0, 0.05):
        dW = er.rhs_euler(state, ideal, grid, eps_f=eps)
        drho, dmom, detot = dW[0], dW[1:-1], dW[-1]
        assert np.all(drho == 0.0)
        assert np.all(dmom == 0.0)
        assert np.all(detot == 0.0)


def test_rhs_affine_fields_exact_in_the_interior(ideal):
    # flux components are polynomials of degree <= 4, which the face
    # stencil differentiates exactly; only wrap-contaminated edge cells
    # are excluded
    grid = gf.Grid.line(1.0, 64, "periodic")
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + 0.2 * x
    theta = 0.8 + 0.1 * x
    u = (0.3 - 0.1 * x)[None]
    etot = 0.5 * rho * u[0] ** 2 + thermo.internal_energy_density(ideal, 0.0, rho, theta)
    state = gf.FluidState(rho, rho * u, etot, 0.0)
    dW = er.rhs_euler(state, ideal, grid, eps_f=0.0)
    drho, dmom, detot = dW[0], dW[1:-1], dW[-1]

    p = rho * theta
    e = etot
    flux_rho = rho * u[0]
    flux_mom = rho * u[0] ** 2 + p
    flux_e = (e + p) * u[0]
    # analytic derivatives of the affine-data fluxes
    drho_exact = -np.gradient(flux_rho, x, edge_order=2)
    dmom_exact = -(0.2 * u[0] ** 2 + 2 * rho * u[0] * (-0.1)
                   + 0.2 * theta + rho * 0.1)
    de_exact = -np.gradient(flux_e, x, edge_order=2)
    band = slice(4, -4)
    assert np.max(np.abs(dmom[0][band] - dmom_exact[band])) <= 1e-12
    # np.gradient is only 2nd order; check those two against sympy instead
    import sympy as sp

    X = sp.symbols("x")
    R = 1 + sp.Rational(1, 5) * X
    TH = sp.Rational(4, 5) + sp.Rational(1, 10) * X
    U = sp.Rational(3, 10) - sp.Rational(1, 10) * X
    E = R * U ** 2 / 2 + sp.Rational(3, 2) * R * TH
    fr = sp.lambdify(X, -sp.diff(R * U, X), "numpy")
    fe = sp.lambdify(X, -sp.diff((E + R * TH) * U, X), "numpy")
    assert np.max(np.abs(drho[band] - fr(x[band]))) <= 1e-12
    assert np.max(np.abs(detot[band] - fe(x[band]))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bc=st.sampled_from(["periodic", "slip-wall"]),
       eps=st.sampled_from([0.0, 0.03]))
def test_rhs_mass_and_energy_sums_vanish(seed, bc, eps):
    # flux-difference form telescopes, so interior sums reduce to wall or
    # wrap faces that cancel bitwise
    gas = thermo.ideal_gas()
    grid = gf.Grid.line(1.0, 24, bc)
    rng = np.random.default_rng(seed)
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * x + rng.uniform(0, 2 * np.pi))
    theta = 0.9 + 0.2 * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi))
    shape = np.sin(np.pi * x) if bc == "slip-wall" else np.cos(2 * np.pi * x)
    u = (rng.uniform(-0.4, 0.4) * shape)[None]
    etot = 0.5 * rho * u[0] ** 2 + thermo.internal_energy_density(gas, 0.0, rho, theta)
    state = gf.FluidState(rho, rho * u, etot, 0.0)
    dW = er.rhs_euler(state, gas, grid, eps_f=eps)
    drho, detot = dW[0], dW[-1]
    assert abs(gf.integrate(drho, grid)) <= 1e-12
    assert abs(gf.integrate(detot, grid)) <= 1e-11


def test_filtered_rhs_inverts_temperature_once(ideal, count_calls):
    grid = gf.Grid.line(1.0, 32, "slip-wall")
    state = ns.state_from_primitives(ideal, 0.0, acoustic(grid))
    calls = count_calls(thermo, "admissible_temperature")
    er.rhs_euler(state, ideal, grid, eps_f=0.02)
    assert len(calls) == 1


def test_filtered_rhs_checks_no_thermodynamic_state(ideal, count_calls):
    # the recovery proves the temperature; p and c_s^2 take it unchecked
    grid = gf.Grid.line(1.0, 32, "slip-wall")
    state = ns.state_from_primitives(ideal, 0.0, acoustic(grid))
    calls = count_calls(thermo, "_check_state")
    er.rhs_euler(state, ideal, grid, eps_f=0.02)
    assert calls == []


@pytest.mark.parametrize("law", ["ideal", "law_a"])
def test_courant_speed_is_the_checked_closures_bitwise(law, request):
    gas = request.getfixturevalue(law)
    grid = gf.Grid.line(1.0, 32, "slip-wall")
    state = ns.state_from_primitives(gas, 0.0, acoustic(grid))
    over_dx, theta = er._speed_over_dx(state, gas, grid)
    c = np.sqrt(thermo.sound_speed_sq(gas, 0.0, state.rho, theta))
    assert over_dx == float(np.max(np.abs(state.velocity()[0]) + c)) / grid.spacing[0]


def test_run_euler_first_stage_reuses_the_courant_check_theta(ideal, count_calls):
    # per step: the Courant check inverts the state, whose theta the first
    # stage reuses, and the two later stages invert their own; plus the
    # initial step-size estimate (no filter, so no calibration runs)
    grid = gf.Grid.line(1.0, 32, "slip-wall")
    calls = count_calls(thermo, "admissible_temperature")
    traj = er.run_euler(euler_config(ideal, grid, t_end=0.05, eps_f=0.0, output_stride=1),
                        acoustic(grid))
    steps = len(traj.times) - 1
    assert steps > 2 and not traj.aborted
    assert len(calls) == 3 * steps + 1


def test_ideal_gas_runs_skip_the_bracketed_inversion(ideal, law_a, transport, count_calls):
    # the default sweep's reference (a = 0) and path points (a > 0) must stay
    # on the ideal-gas solve; a custom law still needs the bracketed one
    calls = count_calls(thermo, "_invert_molecular")
    grid = gf.Grid.line(1.0, 48, "periodic")
    initial = acoustic(grid, amp=0.1)
    sc = thermo.ScalingParams(a=1e-2, nu=1e-2, omega=1e-2, lam=1e-2)

    def nsf(gas):
        return ns.NsfRunConfig(gas=gas, transport=transport, scaling=sc, grid=grid,
                               t_end=0.05)

    ns.simulate(nsf(ideal), initial)
    er.run_euler(euler_config(ideal, grid, t_end=0.05), initial)
    assert calls == []
    ns.simulate(nsf(law_a), initial)
    assert calls


def test_acoustic_run_matches_dissipation_free_viscous_solver(ideal, transport):
    # same initial data through both solvers; the difference is dominated
    # by the 2nd-order solver and shrinks at its rate
    diffs = []
    for n in (48, 96, 192):
        grid = gf.Grid.line(1.0, n, "periodic")
        rho, theta, u = acoustic(grid)
        cfg = euler_config(ideal, grid, t_end=0.1, cfl=0.3,
                           output_stride=10 ** 9, eps_f=0.0)
        final_e = er.run_euler(cfg, (rho, theta, u)).states[-1]
        sc = thermo.ScalingParams(a=0.0, nu=0.0, omega=0.0, lam=0.0)
        cfg_n = ns.NsfRunConfig(gas=ideal, transport=transport, scaling=sc,
                                grid=grid, t_end=0.1, cfl=0.3,
                                output_stride=10 ** 9, convective_order=2)
        final_n = ns.simulate(cfg_n, (rho, theta, u)).states[-1]
        diffs.append(gf.norm(final_e.rho - final_n.rho, grid, 2))
    assert diffs[-1] < 2e-6
    ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
    assert np.all(ratios >= 3.0)


# ---------------------------------------------------------------------------
# time integration, conservation, filter budget


def test_fixed_step_gives_uniform_snapshots(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.2, cfl=0.3, output_stride=3)
    traj = er.run_euler(cfg, acoustic(grid))
    n_steps = round(cfg.t_end / traj.dt)
    assert math.isclose(traj.dt * n_steps, cfg.t_end, rel_tol=1e-12)
    assert math.isclose(traj.times[-1], cfg.t_end, rel_tol=1e-12)
    inner = np.diff(traj.times[:-1])
    assert np.max(np.abs(inner - 3 * traj.dt)) <= 1e-14


def test_mass_and_energy_conserved_with_filter_on(ideal):
    grid = gf.Grid.line(1.0, 128, "slip-wall")
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + 0.05 * np.cos(np.pi * x)
    theta = np.full(grid.cells, 1.0)
    cfg = euler_config(ideal, grid, t_end=0.5, cfl=0.35, output_stride=10,
                       eps_f=0.02)
    traj = er.run_euler(cfg, (rho, theta, np.zeros((1, *grid.cells))))
    e0 = gf.integrate(traj.states[0].etot, grid)
    assert traj.eps_f == 0.02  # budget satisfied without halving
    assert traj.mass_drift < 1e-12
    assert traj.energy_drift < er.DRIFT_BUDGET * e0


# ---------------------------------------------------------------------------
# life span


def test_compressive_pulse_has_finite_lifespan(pulse04, pulse08):
    rep4 = er.lifespan_monitor(pulse04)
    rep8 = er.lifespan_monitor(pulse08)
    for rep in (rep4, rep8):
        assert not rep.smooth_through_end
        assert rep.trigger == "reciprocal-fit"
        assert rep.t_star < 0.8
        assert math.isclose(rep.usable_until, 0.8 * rep.t_star, rel_tol=1e-12)
    # measured poles 0.711 and 0.385; stronger compression breaks earlier
    assert 0.5 <= rep4.t_star <= 0.95
    assert 0.25 <= rep8.t_star <= 0.55
    assert rep8.t_star < rep4.t_star
    # within a factor of a few of the crossing estimate 1/max|du0/dx|
    for rep, amp in ((rep4, 0.4), (rep8, 0.8)):
        t_char = 1.0 / (2 * np.pi * amp)
        assert 1.2 <= rep.t_star / t_char <= 2.6


def test_constant_state_stays_smooth(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    rho = np.full(grid.cells, 1.2)
    theta = np.full(grid.cells, 0.9)
    cfg = euler_config(ideal, grid, t_end=0.3, cfl=0.35, output_stride=2)
    traj = er.run_euler(cfg, (rho, theta, np.zeros((1, *grid.cells))))
    rep = er.lifespan_monitor(traj)
    assert rep.smooth_through_end
    assert rep.trigger == ""
    assert rep.usable_until == cfg.t_end
    grad_u_max, grad_rho_max = er.gradient_maxima(traj)
    assert len(grad_u_max) == len(traj.times)
    assert max(grad_u_max) == 0.0
    assert max(grad_rho_max) == 0.0


def test_standing_wave_stays_smooth(ideal):
    # oscillating gradients must not be mistaken for a pole
    grid = gf.Grid.line(1.0, 128, "slip-wall")
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + 0.05 * np.cos(np.pi * x)
    cfg = euler_config(ideal, grid, t_end=1.0, cfl=0.35, output_stride=4)
    traj = er.run_euler(cfg, (rho, np.ones(grid.cells), np.zeros((1, *grid.cells))))
    rep = er.lifespan_monitor(traj)
    assert rep.smooth_through_end


def test_divergence_free_shear_outlives_compression(ideal):
    grid = gf.Grid.box((1.0, 1.0), (48, 48), ("periodic", "periodic"))
    _, Y = gf.mesh(grid)
    X, _ = gf.mesh(grid)
    ones = np.ones(grid.cells)
    zero = np.zeros(grid.cells)
    shear = np.stack([0.7 * np.sin(2 * np.pi * Y), zero])
    comp = np.stack([-0.7 * np.sin(2 * np.pi * X), zero])
    reports = {}
    for name, u0 in (("shear", shear), ("comp", comp)):
        cfg = euler_config(ideal, grid, t_end=1.0, cfl=0.35, output_stride=4)
        traj = er.run_euler(cfg, (ones, ones.copy(), u0))
        reports[name] = er.lifespan_monitor(traj)
    assert reports["shear"].smooth_through_end  # steady shear, no steepening
    assert not reports["comp"].smooth_through_end
    assert 0.3 <= reports["comp"].t_star <= 0.6
    assert reports["comp"].usable_until < reports["shear"].usable_until


def test_abort_counts_as_lifespan_exceeded(ideal):
    grid = gf.Grid.line(1.0, 64, "periodic")
    cfg = euler_config(ideal, grid, t_end=1.0, cfl=0.35, output_stride=2)
    traj = er.run_euler(cfg, pulse_state(grid, 2.0))
    assert traj.aborted
    assert "life span" in traj.abort_reason
    rep = er.lifespan_monitor(traj)
    assert not rep.smooth_through_end
    assert rep.t_star <= 0.8


# ---------------------------------------------------------------------------
# reformulation residuals


def test_residuals_vanish_for_uniform_flow(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    rho = np.full(grid.cells, 1.1)
    theta = np.full(grid.cells, 0.8)
    u = np.full((1, *grid.cells), 0.35)
    cfg = euler_config(ideal, grid, t_end=0.2, cfl=0.3, output_stride=2)
    traj = er.run_euler(cfg, (rho, theta, u))
    res = er.formulation_residuals(traj, ideal)
    # spatial terms cancel bitwise; the time stencil still sees the one-ulp
    # creep the convex RK blend leaves on a uniform value
    assert res.entropy_max <= 1e-13
    assert res.thermal_max <= 1e-13


def test_residuals_shrink_under_refinement(ideal):
    # stored states satisfy both reformulations to at least 3rd order
    vals = {}
    for n in (64, 128):
        grid = gf.Grid.line(1.0, n, "periodic")
        cfg = euler_config(ideal, grid, t_end=0.2, cfl=0.3, output_stride=2,
                           eps_f=0.0)
        traj = er.run_euler(cfg, acoustic(grid, amp=0.05))
        res = er.formulation_residuals(traj, ideal)
        vals[n] = (res.entropy_max, res.thermal_max)
    assert vals[64][0] / vals[128][0] >= 8.0  # measured 15.6
    assert vals[64][1] / vals[128][1] >= 8.0  # measured 11.0


def test_residuals_explode_past_the_lifespan(pulse08, ideal):
    rep = er.lifespan_monitor(pulse08)
    res = er.formulation_residuals(pulse08, ideal)
    t = np.asarray(res.times)
    ent = np.asarray(res.entropy_norms)
    th = np.asarray(res.thermal_norms)
    early = t < 0.5 * rep.t_star
    late = t > rep.t_star
    assert early.any() and late.any()
    # measured growth factors near 3000; the report stays usable throughout
    assert ent[late].max() >= 50.0 * ent[early].max()
    assert th[late].max() >= 50.0 * th[early].max()
    assert np.all(np.isfinite(ent)) and np.all(np.isfinite(th))


def test_residuals_need_enough_uniform_instants(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.01, cfl=0.3, output_stride=10 ** 9)
    traj = er.run_euler(cfg, acoustic(grid))
    with pytest.raises(UsageError):
        er.formulation_residuals(traj, ideal)


# ---------------------------------------------------------------------------
# wall compatibility of initial data


def wall_ready(amp=0.05):
    rho_fn = lambda x: 1.0 + amp * np.cos(np.pi * x)
    theta_fn = lambda x: 1.0 + 0.0 * x
    u_fn = lambda x: 0.0 * x
    return rho_fn, theta_fn, [u_fn]


def test_well_prepared_data_pass_and_refine(ideal):
    k1 = {}
    for n in (32, 64):
        grid = gf.Grid.line(1.0, n, "slip-wall")
        rep = er.compatibility_check(*wall_ready(), grid, ideal)
        assert rep.k0_max == 0.0
        assert rep.k1_pass
        assert rep.k2_status == "unchecked"
        k1[n] = rep.k1_residual
    assert k1[32] / k1[64] >= 3.5  # measured 8.0


def test_moving_wall_data_rejected(ideal):
    grid = gf.Grid.line(1.0, 32, "slip-wall")
    rho_fn, theta_fn, _ = wall_ready()
    with pytest.raises(DomainError, match="normal wall component"):
        er.compatibility_check(rho_fn, theta_fn, [lambda x: 0.05 + 0.0 * x],
                               grid, ideal)


def test_pressure_kick_at_wall_is_flagged(ideal):
    # density slope at the wall accelerates fluid into it at first order
    grid = gf.Grid.line(1.0, 128, "slip-wall")
    rep = er.compatibility_check(lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
                                 lambda x: 1.0 + 0.0 * x,
                                 [lambda x: 0.0 * x], grid, ideal)
    assert not rep.k1_pass
    assert rep.k1_residual > 0.1  # measured 0.317


def test_compatibility_requires_a_wall(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    with pytest.raises(UsageError):
        er.compatibility_check(*wall_ready(), grid, ideal)


# ---------------------------------------------------------------------------
# sampling the reference trio


def test_sample_identity_at_snapshot(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.1, cfl=0.3, output_stride=2)
    traj = er.run_euler(cfg, acoustic(grid, amp=0.04))
    k = len(traj.times) // 2
    ref = er.sample_reference(traj, traj.times[k], grid)
    s = traj.states[k]
    assert np.array_equal(ref.rho_E, s.rho)
    assert np.array_equal(ref.u_E, s.mom / s.rho)
    assert np.all(ref.theta_E > 0.0)
    assert ref.time == traj.times[k]


def test_sample_midpoint_blends_linearly(ideal):
    grid = gf.Grid.line(1.0, 16, "periodic")
    rho0, theta0, u0 = acoustic(grid, amp=0.03)
    s0 = ns.state_from_primitives(ideal, 0.0, (rho0, theta0, u0))
    s1 = gf.FluidState(s0.rho * 1.5, s0.mom + 0.2 * s0.rho, s0.etot * 2.0, 1.0)
    traj = er.EulerTrajectory(gas=ideal, grid=grid, dt=1.0, eps_f=0.0, times=[0.0, 1.0],
                              W=np.stack([s0.W, s1.W], axis=1), t_end=1.0)
    ref = er.sample_reference(traj, 0.5, grid)
    assert np.array_equal(ref.rho_E, 0.5 * s0.rho + 0.5 * s1.rho)
    blended_mom = 0.5 * s0.mom + 0.5 * s1.mom
    assert np.allclose(ref.u_E, blended_mom / ref.rho_E, rtol=1e-15, atol=0.0)


def test_sample_block_average_converges_quadratically(ideal):
    errs = []
    for n in (32, 64):
        fine = gf.Grid.line(1.0, 4 * n, "periodic")
        coarse = gf.Grid.line(1.0, n, "periodic")
        cfg = euler_config(ideal, fine, t_end=0.1, cfl=0.3, output_stride=2,
                           eps_f=0.0)
        traj = er.run_euler(cfg, acoustic(fine, amp=0.05))
        t_mid = 0.5 * (traj.times[3] + traj.times[4])
        ref = er.sample_reference(traj, t_mid, coarse)
        cfg_c = euler_config(ideal, coarse, t_end=t_mid, cfl=0.3 / 16,
                             output_stride=10 ** 9, eps_f=0.0)
        direct = er.run_euler(cfg_c, acoustic(coarse, amp=0.05)).states[-1]
        errs.append(gf.norm(ref.rho_E - direct.rho, coarse, 2))
    assert errs[0] / errs[1] >= 3.0  # measured 3.84


def test_sample_rejects_extrapolation_and_bad_grids(ideal):
    grid = gf.Grid.line(1.0, 32, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.1, cfl=0.3, output_stride=2)
    traj = er.run_euler(cfg, acoustic(grid))
    with pytest.raises(UsageError, match="extrapolation"):
        er.sample_reference(traj, -0.01, grid)
    with pytest.raises(UsageError, match="extrapolation"):
        er.sample_reference(traj, 0.2, grid)
    with pytest.raises(UsageError):
        er.sample_reference(traj, 0.05, gf.Grid.line(1.0, 24, "periodic"))
    with pytest.raises(UsageError):
        er.sample_reference(traj, 0.05, gf.Grid.line(0.5, 16, "periodic"))
    with pytest.raises(UsageError):
        er.sample_reference(traj, 0.05, gf.Grid.line(1.0, 16, "slip-wall"))


# ---------------------------------------------------------------------------
# disk cache


def test_cache_roundtrip_is_bitwise(ideal, tmp_path, monkeypatch):
    grid = gf.Grid.line(1.0, 32, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.1, cfl=0.3, output_stride=2)
    first = er.run_euler(cfg, acoustic(grid), cache_dir=tmp_path)
    assert len(list(tmp_path.glob("euler-*/manifest.txt"))) == 1

    def boom(*a, **k):
        raise AssertionError("stepper must not run on a cache hit")

    monkeypatch.setattr(er, "ssp_rk3", boom)
    second = er.run_euler(cfg, acoustic(grid), cache_dir=tmp_path)
    assert second.times == first.times
    assert second.dt == first.dt
    assert second.eps_f == first.eps_f
    assert second.energy_drift == first.energy_drift
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.mom, b.mom)
        assert np.array_equal(a.etot, b.etot)
    for g_second, g_first in zip(er.gradient_maxima(second), er.gradient_maxima(first)):
        assert g_second.tobytes() == g_first.tobytes()


def test_cache_keeps_an_aborted_run(ideal, tmp_path, count_calls):
    # the compressive pulse aborts; the second run on the same cache is a
    # load that steps nothing and gives back the same run, abort included
    grid = gf.Grid.line(1.0, 64, "periodic")
    cfg = euler_config(ideal, grid, t_end=1.0, cfl=0.35, output_stride=2)
    first = er.run_euler(cfg, pulse_state(grid, 2.0), cache_dir=tmp_path)
    assert first.aborted and "life span" in first.abort_reason
    (manifest,) = tmp_path.glob("euler-*/manifest.txt")
    lines = manifest.read_text(encoding="ascii").splitlines()
    assert "aborted 1" in lines
    calls = count_calls(er, "rhs_euler")
    second = er.run_euler(cfg, pulse_state(grid, 2.0), cache_dir=tmp_path)
    assert calls == []
    assert second.times == first.times
    assert [s.W.tobytes() for s in second.states] == [s.W.tobytes() for s in first.states]
    assert (second.aborted, second.abort_reason) == (first.aborted, first.abort_reason)
    assert er.lifespan_monitor(second) == er.lifespan_monitor(first)
    # a manifest without the abort lines, as every one stored before
    # aborted runs were, loads as a run that did not abort
    manifest.write_text("\n".join(line for line in lines if not line.startswith("abort"))
                        + "\n", encoding="ascii")
    third = er.run_euler(cfg, pulse_state(grid, 2.0), cache_dir=tmp_path)
    assert calls == [] and not third.aborted and third.abort_reason == ""
    assert third.times == first.times


def test_cache_key_tracks_data_and_run_settings(ideal, tmp_path):
    grid = gf.Grid.line(1.0, 32, "periodic")
    cfg = euler_config(ideal, grid, t_end=0.1, cfl=0.3, output_stride=2)
    s1 = ns.state_from_primitives(ideal, 0.0, acoustic(grid))
    s2 = ns.state_from_primitives(ideal, 0.0, acoustic(grid, amp=0.02))
    k1 = er.reference_key(cfg, s1)
    assert k1 == er.reference_key(cfg, s1)
    assert k1 != er.reference_key(cfg, s2)
    cfg2 = euler_config(ideal, grid, t_end=0.2, cfl=0.3, output_stride=2)
    assert k1 != er.reference_key(cfg2, s1)
    er.run_euler(cfg, acoustic(grid), cache_dir=tmp_path)
    er.run_euler(cfg, acoustic(grid, amp=0.02), cache_dir=tmp_path)
    assert len(list(tmp_path.glob("euler-*"))) == 2


def _sample_one(traj, t, target):
    """`sample_reference` at one time as it was computed one instant at a
    time before it stacked the instants: the oracle of the stacked form."""
    times = np.asarray(traj.times, dtype=float)
    tol = 1e-12 * max(1.0, float(times[-1]))
    if t < times[0] - tol or t > times[-1] + tol:
        raise UsageError(f"t={t} outside the stored range [{times[0]}, {times[-1]}]; "
                         "extrapolation is not supported")
    src = traj.grid
    ratios = [nf // nc for nf, nc in zip(src.cells, target.cells)]
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1))
    if k == len(times) - 1 or abs(times[k] - t) <= tol:
        lo = hi = traj.states[k]
        w = 0.0
    else:
        lo, hi = traj.states[k], traj.states[k + 1]
        w = (t - times[k]) / (times[k + 1] - times[k])

    def blend(a, b):
        return a if w == 0.0 else (1.0 - w) * a + w * b

    rho = er._block_mean(blend(lo.rho, hi.rho), ratios)
    mom = np.stack([er._block_mean(blend(lo.mom[c], hi.mom[c]), ratios)
                    for c in range(src.dim)])
    etot = er._block_mean(blend(lo.etot, hi.etot), ratios)
    theta = ns.recover_temperature(rho, mom, etot, traj.gas, 0.0)
    return gf.ReferenceFields(rho, theta, mom / rho, time=float(t))


def _random_trajectory(gas, grid, count, seed, negative_zero=False):
    """count stored states of random positive fields on grid, at uneven times."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.05, 0.2, count)) - 0.05
    states = []
    for t in times:
        rho = rng.uniform(0.5, 2.0, grid.cells)
        theta = rng.uniform(0.5, 2.0, grid.cells)
        u = rng.uniform(-0.3, 0.3, (grid.dim, *grid.cells))
        if negative_zero:  # -0.0 in every other state, +0.0 in the others
            u[:, ::3] = -0.0 if len(states) % 2 == 0 else 0.0
        states.append(ns.state_from_primitives(gas, 0.0, (rho, theta, u)))
        states[-1].time = float(t)
    return er.EulerTrajectory(gas=gas, grid=grid, dt=0.1, eps_f=0.0, times=list(times),
                              W=np.stack([s.W for s in states], axis=1),
                              t_end=float(times[-1]))


def _sample_times(traj):
    """Every stored instant (w == 0), a point inside each interval and the ends."""
    stored = np.asarray(traj.times)
    mids = stored[:-1] + 0.37 * np.diff(stored)
    return np.sort(np.concatenate((stored, mids)))


@pytest.mark.parametrize("case", ["1d", "1d-negative-zero", "1d-law_a", "2d", "2d-blocks"])
def test_stacked_samples_match_the_per_instant_loop_bitwise(request, ideal, case, monkeypatch):
    gas = request.getfixturevalue("law_a") if case.endswith("law_a") else ideal
    if case.startswith("1d"):
        fine = gf.Grid.line(1.0, 12 * (1 if case == "1d-negative-zero" else 4), "slip-wall")
        coarse = gf.Grid.line(1.0, 12, "slip-wall")
    else:
        fine = gf.Grid.box((1.0, 2.0), (32, 16))
        coarse = gf.Grid.box((1.0, 2.0), (8, 8))
    if case == "2d-blocks":
        # three instants per block: the 13 sample times end in a short block
        monkeypatch.setattr(er, "_GRADIENT_BLOCK_CELLS", 3 * 32 * 16 + 5)
    traj = _random_trajectory(gas, fine, 7, seed=len(case),
                              negative_zero=case == "1d-negative-zero")
    times = _sample_times(traj)
    rho, theta, u = er.sample_reference(traj, times, coarse)
    refs = [_sample_one(traj, t, coarse) for t in times]
    assert rho.tobytes() == np.stack([r.rho_E for r in refs]).tobytes()
    assert theta.tobytes() == np.stack([r.theta_E for r in refs]).tobytes()
    assert u.tobytes() == np.stack([r.u_E for r in refs], axis=1).tobytes()
    if case == "1d-negative-zero":
        # the stored instants of even index keep their -0.0
        assert np.signbit(u[:, ::4, ::3]).all() and not np.signbit(u[:, 2::4, ::3]).any()
    one = er.sample_reference(traj, times[3], coarse)
    assert one.rho_E.tobytes() == refs[3].rho_E.tobytes()
    assert one.u_E.tobytes() == refs[3].u_E.tobytes()


def test_stacked_samples_raise_what_the_first_bad_instant_raises(ideal):
    # instant 2 has no internal energy in cell 3 and instant 4 no density in
    # cell 1: stacked, the density check would name instant 4 first
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    traj = _random_trajectory(ideal, grid, 6, seed=3)
    for k, cell, field in ((2, 3, "etot"), (4, 1, "rho")):
        W = traj.W[:, k]
        W[1:, cell] = 0.0
        W[0 if field == "rho" else -1, cell] = 0.0
        gf.FluidState.stacked(W, traj.times[k])  # still passes the state checks
    times = np.asarray(traj.times)
    with pytest.raises(Exception) as want:
        for t in times:
            _sample_one(traj, t, grid)
    with pytest.raises(type(want.value)) as got:
        er.sample_reference(traj, times, grid)
    assert str(got.value) == str(want.value) == "non-positive internal energy at cell (3,)"
    with pytest.raises(UsageError, match=r"t=9\.0 outside"):
        er.sample_reference(traj, [times[0], 9.0, -1.0], grid)
