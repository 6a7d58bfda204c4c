"""Post-processing checks: bounds reports, envelope, relative energy residual."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import diagnostics as diag
from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import thermo
from nsflab.errors import DomainError, UsageError

SC = thermo.ScalingParams(a=1e-3, nu=5e-3, omega=1e-3, lam=0.2)
T_END = 0.25


def slab(n):
    return gf.Grid.line(1.0, n, "slip-wall")


def perturbed(grid, amp=0.01):
    # even mirror symmetry for rho/theta, odd for u: compatible slip-wall data
    (x,) = gf.mesh(grid)
    rho = 1.0 + amp * np.cos(np.pi * x)
    theta = 1.0 + 0.5 * amp * np.cos(np.pi * x)
    u = (amp * np.sin(np.pi * x))[None]
    return rho, theta, u


def nsf_run(ideal, transport, n, stride=4, t_end=T_END):
    cfg = ns.NsfRunConfig(gas=ideal, transport=transport, scaling=SC,
                          grid=slab(n), t_end=t_end, cfl=0.35,
                          output_stride=stride)
    return ns.simulate(cfg, perturbed(slab(n)))


@pytest.fixture(scope="module")
def euler_ref(ideal):
    cfg = er.EulerRunConfig(gas=ideal, grid=slab(192), t_end=T_END, cfl=0.35,
                            output_stride=2)
    traj = er.run_euler(cfg, perturbed(slab(192)))
    assert not traj.aborted
    return traj


@pytest.fixture(scope="module")
def smooth_reports(ideal, transport, euler_ref):
    out = {}
    for n in (24, 48, 96):
        traj = nsf_run(ideal, transport, n)
        assert traj.healthy
        out[n] = diag.rel_energy_inequality_residual(traj, euler_ref)
    return out


@pytest.fixture(scope="module")
def equilibrium_traj(ideal, transport):
    grid = slab(48)
    ones = np.ones(grid.cells)
    cfg = ns.NsfRunConfig(gas=ideal, transport=transport, scaling=SC,
                          grid=grid, t_end=0.05, cfl=0.35, output_stride=2)
    traj = ns.simulate(cfg, (ones, ones, np.zeros((1, *grid.cells))))
    assert traj.healthy
    return traj


# ---------------------------------------------------------------------------
# convergence-rate envelope


def test_envelope_all_ones_is_one():
    assert diag.rate_envelope(thermo.ScalingParams(1.0, 1.0, 1.0, 1.0)) == 1.0


def test_envelope_default_path_point():
    # a=1e-4 on the (0.55, 1.2, 0.1) path: the mixed term a / sqrt(nu^3 lam)
    # equals 10^(-1/2), so its cube root 10^(-1/6) dominates all seven terms
    a = 1e-4
    sc = thermo.ScalingParams(a=a, nu=a ** 0.55, omega=a ** 1.2, lam=a ** 0.1)
    val = diag.rate_envelope(sc)
    assert val == pytest.approx(10.0 ** (-1.0 / 6.0), rel=1e-12)
    assert val == pytest.approx(0.6812920690579611, rel=1e-12)
    terms = diag.envelope_terms(sc)
    assert max(terms.values()) == val
    assert terms["radiation_mix"] == val


def test_envelope_requires_positive_singular_parameters():
    for bad in (dict(a=0.0, nu=1.0, omega=1.0, lam=1.0),
                dict(a=1.0, nu=0.0, omega=1.0, lam=1.0),
                dict(a=1.0, nu=1.0, omega=1.0, lam=0.0)):
        with pytest.raises(DomainError):
            diag.rate_envelope(thermo.ScalingParams(**bad))
    # omega may vanish: the heat-conduction terms just drop out
    assert diag.rate_envelope(thermo.ScalingParams(1.0, 1.0, 0.0, 1.0)) == 1.0


def test_envelope_terms_names_and_max():
    sc = thermo.ScalingParams(a=1e-2, nu=3e-2, omega=1e-3, lam=0.5)
    terms = diag.envelope_terms(sc)
    assert set(terms) == {"a", "nu", "omega", "lambda", "nu_over_sqrt_a",
                          "omega_over_a", "radiation_mix"}
    assert max(terms.values()) == diag.rate_envelope(sc)


@given(st.floats(-4.0, -0.5), st.floats(-4.0, -0.5), st.floats(-6.0, -0.5),
       st.floats(-4.0, -0.5))
@settings(max_examples=50, deadline=None)
def test_envelope_is_max_of_terms(la, ln, lo, ll):
    sc = thermo.ScalingParams(a=10.0 ** la, nu=10.0 ** ln,
                              omega=10.0 ** lo, lam=10.0 ** ll)
    assert diag.rate_envelope(sc) == max(diag.envelope_terms(sc).values())


def test_omega_over_a_decreases_along_path():
    # beta = 1.2 makes omega/a = a^0.2, strictly decreasing with a
    vals = [diag.envelope_terms(thermo.ScalingParams(
        a=a, nu=a ** 0.55, omega=a ** 1.2, lam=a ** 0.1))["omega_over_a"]
        for a in (1e-2, 1e-3, 1e-4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] == pytest.approx(10.0 ** -0.8, rel=1e-12)


def test_envelope_vanishes_along_admissible_path():
    # every term is a positive power of a, so the whole envelope decays;
    # the slowest exponent here is (1 - 1.5*0.55 - 0.05)/3 = 1/24
    prev = math.inf
    for k in range(1, 9):
        a = 10.0 ** -k
        sc = thermo.ScalingParams(a=a, nu=a ** 0.55, omega=a ** 1.2, lam=a ** 0.1)
        val = diag.rate_envelope(sc)
        assert val < prev
        prev = val
    assert prev == pytest.approx(10.0 ** (-8.0 / 24.0), rel=1e-12)


# ---------------------------------------------------------------------------
# velocity interpolation inequality


def test_interpolation_constant_field_is_one():
    grid = slab(32)
    u = np.full((1, 32), 0.7)
    assert diag.interpolation_check([u], grid) == pytest.approx(1.0, abs=1e-13)


def test_interpolation_zero_field_contributes_zero():
    grid = slab(32)
    assert diag.interpolation_check([np.zeros((1, 32))], grid) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_interpolation_never_exceeds_one(seed):
    grid = slab(16)
    u = np.random.default_rng(seed).normal(0.0, 1.0, (1, 16))
    assert diag.interpolation_check([u], grid) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# uniform bounds


def test_equilibrium_bounds_all_motion_entries_zero(equilibrium_traj):
    rep = diag.uniform_bounds(equilibrium_traj)
    assert rep.kinetic_sup == 0.0
    assert rep.stress_time_integral == 0.0
    assert rep.damping_time_integral == 0.0
    # recovered theta sits within an ulp of 1, so log(theta)^2 ~ 1e-36
    assert 0.0 <= rep.thermal_time_integral < 1e-30
    assert rep.rho_five_thirds_sup == pytest.approx(1.0, rel=1e-12)
    assert rep.rho_theta_sup == pytest.approx(1.0, rel=1e-12)
    assert rep.radiation_sup == pytest.approx(1e-3, rel=1e-9)


def test_doubling_velocity_quadruples_kinetic(ideal, transport):
    grid = slab(24)
    (x,) = gf.mesh(grid)
    rho = 1.0 + 0.1 * np.cos(2 * np.pi * x)
    u = 0.3 * np.sin(np.pi * x)
    cfg = ns.NsfRunConfig(gas=ideal, transport=transport, scaling=SC,
                          grid=grid, t_end=1.0)

    def kinetic(scale):
        theta = 1.0 + 0 * x
        state = ns.state_from_primitives(ideal, SC.a, (rho, theta, scale * u))
        traj = ns.Trajectory(config=cfg, times=[0.0], W=state.W[:, None], thetas=theta[None])
        return diag.uniform_bounds(traj).kinetic_sup

    assert kinetic(2.0) == 4.0 * kinetic(1.0)


def test_smooth_run_bounds_magnitudes(ideal, transport):
    rep = diag.uniform_bounds(nsf_run(ideal, transport, 48))
    assert 5e-5 < rep.kinetic_sup < 5e-4
    assert 1.0 < rep.rho_five_thirds_sup < 1.001
    assert 1.0 < rep.rho_theta_sup < 1.001
    assert 1e-3 < rep.radiation_sup < 1.001e-3
    assert 1e-6 < rep.stress_time_integral < 1e-5
    assert 1e-6 < rep.damping_time_integral < 1e-5
    assert 1e-9 < rep.thermal_time_integral < 1e-7
    text = rep.to_text()
    for key in rep.values():
        assert key in text


# ---------------------------------------------------------------------------
# relative energy inequality residual


def test_identical_equilibrium_every_term_vanishes(equilibrium_traj, ideal):
    cfg = er.EulerRunConfig(gas=ideal, grid=slab(192), t_end=0.05, cfl=0.35,
                            output_stride=2)
    ref = er.run_euler(cfg, (np.ones(192), np.ones(192), np.zeros((1, 192))))
    rep = diag.rel_energy_inequality_residual(equilibrium_traj, ref)
    for name, series in rep.rhs.items():
        assert max(abs(v) for v in series) == 0.0, name
    assert max(abs(v) for v in rep.lhs["weighted_dissipation"]) == 0.0
    assert max(abs(v) for v in rep.lhs["damping_energy"]) == 0.0
    # the convex RK blend creeps uniform values by an ulp per step, which the
    # relative energy sees quadratically; one ulp of slack covers it
    assert max(abs(v) for v in rep.lhs["energy_change"]) <= 5e-16
    assert max(abs(v) for v in rep.residual) <= 5e-16


def test_smooth_run_satisfies_inequality(smooth_reports):
    rep = smooth_reports[48]
    assert rep.residual[0] == 0.0
    assert rep.max_excess < 1e-9
    assert min(rep.energy) >= -1e-12
    assert 1e-7 < max(rep.energy) < 1e-6
    assert 1e-6 < rep.lhs["weighted_dissipation"][-1] < 1e-5
    assert 1e-6 < rep.lhs["damping_energy"][-1] < 1e-5


def test_term_signs_on_smooth_run(smooth_reports):
    rep = smooth_reports[48]
    # compression against the slip walls does work on the reference flow;
    # the two pressure terms nearly cancel
    assert rep.rhs["pressure_dilation"][-1] < 0.0 < rep.rhs["pressure_relaxation"][-1]
    assert abs(rep.rhs["pressure_dilation"][-1]
               + rep.rhs["pressure_relaxation"][-1]) < 3e-6
    assert rep.rhs["stress_cross"][-1] > 0.0
    assert abs(rep.rhs["convective_remainder"][-1]) < 1e-9


def test_refinement_shrinks_positive_excess(smooth_reports):
    # the admissible tolerance is whatever refinement says it is, never a
    # hard-coded number: halving the spacing must cut the excess >= 3x
    e24 = smooth_reports[24].max_excess
    e48 = smooth_reports[48].max_excess
    e96 = smooth_reports[96].max_excess
    assert e24 > 3.0 * e48
    assert e96 <= e48 / 3.0 + 1e-15


def test_sign_corrupted_dissipation_is_flagged(smooth_reports):
    # a run whose fields gained the energy the dissipation should have
    # drained violates the inequality by twice the dissipation integral
    rep = smooth_reports[48]
    wd = np.asarray(rep.lhs["weighted_dissipation"])
    mutated = np.asarray(rep.residual) + 2.0 * wd
    assert mutated[-1] > 1e-6
    assert mutated.max() > 1000.0 * max(abs(v) for v in rep.residual)


def test_too_few_instants_is_usage_error(ideal, transport, euler_ref):
    traj = nsf_run(ideal, transport, 48)
    cut = dataclasses.replace(traj, times=traj.times[:2], W=traj.W[:, :2],
                              thetas=traj.thetas[:2])
    with pytest.raises(UsageError, match="at least three"):
        diag.rel_energy_inequality_residual(cut, euler_ref)


def test_reports_refuse_thetas_that_do_not_match_the_states(equilibrium_traj, euler_ref):
    traj = equilibrium_traj
    short = dataclasses.replace(traj, thetas=traj.thetas[:-1])
    flat = dataclasses.replace(traj, thetas=traj.thetas[:, :-1])
    for bad in (short, flat):
        with pytest.raises(UsageError, match="temperatures"):
            diag.uniform_bounds(bad)
        with pytest.raises(UsageError, match="temperatures"):
            diag.rel_energy_inequality_residual(bad, euler_ref)


def test_stack_run_reads_the_trajectory_stack(equilibrium_traj):
    # the reports' density and temperatures are the trajectory's own arrays
    traj = equilibrium_traj
    stacked = diag.stack_run(traj)
    assert np.shares_memory(stacked.rho, traj.W)
    assert stacked.theta is traj.thetas


def test_reference_shorter_than_run_is_usage_error(ideal, transport):
    traj = nsf_run(ideal, transport, 48)
    cfg = er.EulerRunConfig(gas=ideal, grid=slab(192), t_end=0.1, cfl=0.35,
                            output_stride=2)
    short = er.run_euler(cfg, perturbed(slab(192)))
    with pytest.raises(UsageError, match="extrapolation"):
        diag.rel_energy_inequality_residual(traj, short)


def test_report_csv_and_summary(smooth_reports):
    rep = smooth_reports[48]
    lines = rep.csv().strip().split("\n")
    header = ("t,energy,energy_change,weighted_dissipation,damping_energy,"
              "convective_remainder,stress_cross,heat_cross,damping_cross,"
              "entropy_velocity,material_derivative,pressure_dilation,"
              "entropy_transport,pressure_relaxation,residual")
    assert lines[0] == header
    assert len(lines) == 1 + len(rep.times)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == rep.times[-1]
    assert last[1] == rep.energy[-1]
    assert last[-1] == rep.residual[-1]
    summary = rep.summary()
    assert f"max_excess {rep.max_excess!r}" in summary
    assert f"instants {len(rep.times)}" in summary


def _loop_residual(trajectory, reference):
    """The residual's rates evaluated one stored instant at a time, as the
    report computed them before it stacked the instants; the reference that
    the batched report must match bit for bit."""
    from scipy.integrate import cumulative_trapezoid

    from nsflab import relative_energy as renergy

    cfg = trajectory.config
    gas, sc, tr, grid = cfg.gas, cfg.scaling, cfg.transport, cfg.grid
    times = np.asarray(trajectory.times, dtype=float)
    refs = [er.sample_reference(reference, [t], grid) for t in times]
    R = np.stack([rho[0] for rho, _, _ in refs])
    TH = np.stack([theta[0] for _, theta, _ in refs])
    U = np.stack([u[:, 0] for _, _, u in refs])
    P_ref = thermo.pressure(gas, sc.a, R, TH)
    dU_dt = np.gradient(U, times, axis=0, edge_order=2)
    dTH_dt = np.gradient(TH, times, axis=0, edge_order=2)
    dP_dt = np.gradient(P_ref, times, axis=0, edge_order=2)
    K = len(times)
    names = ("energy", "weighted_dissipation", "damping_energy") + diag._RHS_NAMES
    rate = {n: np.zeros(K) for n in names}
    for k, (state, theta) in enumerate(zip(trajectory.states, trajectory.thetas)):
        rho = state.rho
        u = state.velocity()
        G = gf.interior_gradient(u, grid)
        gth = gf.interior_gradient(theta, grid)
        S = thermo.stress_tensor(tr, sc.nu, theta, G)
        q = thermo.heat_flux(tr, sc.omega, theta, gth)
        s_f = thermo.entropy(gas, sc.a, rho, theta)
        s_r = thermo.entropy(gas, sc.a, R[k], TH[k])
        p_f = thermo.pressure(gas, sc.a, rho, theta)
        G_E = gf.interior_gradient(U[k], grid)
        gTH = gf.interior_gradient(TH[k], grid)
        gP = gf.interior_gradient(P_ref[k], grid)
        div_U = np.trace(G_E, axis1=0, axis2=1)
        v = u - U[k]
        ds = rho * (s_f - s_r)
        rate["energy"][k] = renergy.relative_energy(gas, sc.a, (rho, theta, u),
                                                     (R[k], TH[k], U[k]), grid)
        S_Gu = np.sum(S * G, axis=(0, 1))
        q_gth = np.sum(q * gth, axis=0)
        rate["weighted_dissipation"][k] = gf.integrate(
            TH[k] / theta * (S_Gu - q_gth / theta), grid)
        rate["damping_energy"][k] = sc.lam * gf.integrate(np.sum(u * u, axis=0), grid)
        rate["convective_remainder"][k] = -gf.integrate(
            rho * np.einsum("i...,ij...,j...->...", v, G_E, v), grid)
        rate["stress_cross"][k] = gf.integrate(np.sum(S * G_E, axis=(0, 1)), grid)
        rate["heat_cross"][k] = -gf.integrate(np.sum(q * gTH, axis=0) / theta, grid)
        rate["damping_cross"][k] = sc.lam * gf.integrate(np.sum(u * U[k], axis=0), grid)
        rate["entropy_velocity"][k] = -gf.integrate(ds * np.sum(v * gTH, axis=0), grid)
        acc = dU_dt[k] + np.einsum("j...,ij...->i...", U[k], G_E)
        rate["material_derivative"][k] = -gf.integrate(rho * np.sum(acc * v, axis=0), grid)
        rate["pressure_dilation"][k] = -gf.integrate(p_f * div_U, grid)
        rate["entropy_transport"][k] = -gf.integrate(
            ds * (dTH_dt[k] + np.sum(U[k] * gTH, axis=0)), grid)
        rate["pressure_relaxation"][k] = gf.integrate(
            (1.0 - rho / R[k]) * dP_dt[k] - (rho / R[k]) * np.sum(u * gP, axis=0), grid)
    out = {"energy": rate["energy"], "energy_change": rate["energy"] - rate["energy"][0]}
    for n in names[1:]:
        out[n] = cumulative_trapezoid(rate[n], times, initial=0.0)
    return out


def _box_run_and_reference(ideal, transport, n, n_ref, t_end):
    def box(cells):
        return gf.Grid.box((1.0, 1.0), (cells, cells))

    def data(grid):
        X, Y = gf.mesh(grid)
        cc = np.cos(np.pi * X) * np.cos(np.pi * Y)
        u = np.stack([0.02 * np.sin(np.pi * X) * np.cos(2 * np.pi * Y),
                      0.01 * np.cos(np.pi * X) * np.sin(np.pi * Y)])
        return 1.0 + 0.02 * cc, 1.0 + 0.01 * cc, u

    cfg = ns.NsfRunConfig(gas=ideal, transport=transport, scaling=SC, grid=box(n),
                          t_end=t_end, cfl=0.35, output_stride=1)
    ref = er.run_euler(er.EulerRunConfig(gas=ideal, grid=box(n_ref), t_end=t_end,
                                         cfl=0.35, output_stride=1), data(box(n_ref)))
    assert not ref.aborted
    return ns.simulate(cfg, data(box(n))), ref


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_residual_matches_the_per_instant_loop_bitwise(ideal, transport, euler_ref,
                                                              dim):
    if dim == 1:
        traj, ref = nsf_run(ideal, transport, 48), euler_ref
    else:
        traj, ref = _box_run_and_reference(ideal, transport, 16, 64, 0.05)
    assert traj.healthy and len(traj.times) >= 4
    rep = diag.rel_energy_inequality_residual(traj, ref)
    want = _loop_residual(traj, ref)
    got = {"energy": rep.energy, **rep.lhs, **rep.rhs}
    assert sorted(got) == sorted(want)
    for name, series in want.items():
        assert np.asarray(got[name]).tobytes() == series.tobytes(), name
    lhs = sum(want[n] for n in ("energy_change", "weighted_dissipation", "damping_energy"))
    resid = lhs - sum(want[n] for n in diag._RHS_NAMES)
    assert np.asarray(rep.residual).tobytes() == resid.tobytes()


def test_cumulative_trapezoid_matches_scipy_bitwise():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(7)
    times = np.cumsum(rng.random(57))
    for rate in (rng.standard_normal(57), 1e-9 * rng.standard_normal(57), np.zeros(57)):
        want = cumulative_trapezoid(rate, times, initial=0.0)
        assert diag._cumulative(rate, times).tobytes() == want.tobytes()


def _loop_uniform_bounds(trajectory):
    """`uniform_bounds` as it computed its report one stored instant at a
    time, before it stacked the instants; the oracle of the stacked form."""
    cfg = trajectory.config
    sc, grid = cfg.scaling, cfg.grid
    times = np.asarray(trajectory.times, dtype=float)
    sups = np.zeros(4)
    rates = np.zeros((len(times), 3))
    for k, (state, theta) in enumerate(zip(trajectory.states, trajectory.thetas)):
        rho = state.rho
        u = state.velocity()
        u_sq = np.sum(u * u, axis=0)
        sups = np.maximum(sups, [
            gf.integrate(rho * u_sq, grid),
            gf.integrate(rho ** (5.0 / 3.0), grid),
            gf.integrate(rho * theta, grid),
            sc.a * gf.integrate(theta ** 4, grid),
        ])
        G = gf.interior_gradient(u, grid)
        gth = gf.interior_gradient(theta, grid)
        rates[k] = [
            gf.integrate(thermo.shear_tensor_sq(G), grid),
            gf.integrate(u_sq, grid),
            gf.integrate(np.sum(gth * gth, axis=0) + np.log(theta) ** 2, grid),
        ]
    ints = np.trapezoid(rates, times, axis=0) if len(times) > 1 else np.zeros(3)
    return diag.UniformBoundsReport(
        kinetic_sup=float(sups[0]), rho_five_thirds_sup=float(sups[1]),
        rho_theta_sup=float(sups[2]), radiation_sup=float(sups[3]),
        stress_time_integral=float(sc.nu * ints[0]),
        damping_time_integral=float(sc.lam * ints[1]),
        thermal_time_integral=float(sc.omega * ints[2]),
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_uniform_bounds_match_the_per_instant_loop_bitwise(ideal, transport, dim):
    if dim == 1:
        traj = nsf_run(ideal, transport, 48)
    else:
        grid = gf.Grid.box((1.0, 1.0), (16, 12), ("slip-wall", "periodic"))
        X, Y = gf.mesh(grid)
        u = np.stack([0.02 * np.sin(np.pi * X) * np.cos(2 * np.pi * Y),
                      0.01 * np.cos(np.pi * X) * np.sin(2 * np.pi * Y)])
        cfg = ns.NsfRunConfig(gas=ideal, transport=transport, scaling=SC, grid=grid,
                              t_end=0.1, cfl=0.35, output_stride=1)
        traj = ns.simulate(cfg, (1.0 + 0.02 * np.cos(np.pi * X), np.ones(grid.cells), u))
    assert traj.healthy and len(traj.times) >= 4
    got = diag.uniform_bounds(traj).values()
    want = _loop_uniform_bounds(traj).values()
    assert got == want
    for name, value in want.items():
        assert np.float64(got[name]).tobytes() == np.float64(value).tobytes(), name
    # one stored instant: every time integral is zero
    one = dataclasses.replace(traj, times=traj.times[:1], W=traj.W[:, :1],
                              thetas=traj.thetas[:1])
    assert diag.uniform_bounds(one) == _loop_uniform_bounds(one)
