"""Acceptance gate: nine criteria, one test and one reported line each.

Heavy runs live in module fixtures so the entropy-sign scan in criterion 6
can visit every snapshot of every run regardless of which criterion built
it.  Tolerances are frozen from oracle probes; nothing here is tuned to
pass, and a faithful implementation regression must trip at least one gate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from nsflab import diagnostics as diag
from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import relative_energy as re
from nsflab import scenarios
from nsflab import sweep
from nsflab import thermo
from nsflab.nsf_solver import state_from_primitives

GAS = thermo.ideal_gas()
TR = thermo.default_transport()
K_STD = (0.5, 2.0, 0.5, 2.0)
PATH = sweep.ScalingPath((1e-2, 1e-3, 1e-4))

# every simulated trajectory registers here as (label, config, states) so the
# entropy scan cannot silently miss a run
RUNS = []


def _slab(n):
    return gf.Grid.line(1.0, n, "slip-wall")


# ---------------------------------------------------------------------------
# fixtures holding the expensive runs


@pytest.fixture(scope="module")
def conservation_runs():
    """Three 10^3-step runs; returns relative drifts of the integral invariants."""
    cases = {
        "periodic": ("periodic", thermo.ScalingParams(a=0.0, nu=0.01, omega=0.01, lam=0.05)),
        "slip-wall": ("slip-wall", thermo.ScalingParams(a=0.0, nu=0.01, omega=0.01, lam=0.05)),
        # lam = 0 closes the only volumetric energy sink, so total energy
        # drift measures the wall fluxes alone
        "slip-undamped": ("slip-wall", thermo.ScalingParams(a=0.1, nu=0.02, omega=0.02, lam=0.0)),
    }
    drifts = {}
    for label, (bc, sc) in cases.items():
        grid = gf.Grid.line(1.0, 32, bc)
        config = ns.NsfRunConfig(gas=GAS, transport=TR, scaling=sc, grid=grid,
                                 t_end=10.0, cfl=0.4)
        x = gf.cell_centers(grid)[0]
        if bc == "periodic":
            rho = 1.0 + 0.2 * np.sin(2 * np.pi * x)
            th = 1.0 + 0.1 * np.cos(2 * np.pi * x)
            u = 0.1 * np.cos(2 * np.pi * x)
        else:
            rho = 1.0 + 0.2 * np.cos(np.pi * x)
            th = 1.0 + 0.1 * np.cos(np.pi * x)
            u = 0.1 * np.sin(np.pi * x)  # vanishes at both walls
        state = state_from_primitives(GAS, sc.a, (rho, th, u[None]))
        m0 = gf.integrate(state.rho, grid)
        e0 = gf.integrate(state.etot, grid)
        states = [state]
        for k in range(1000):
            theta = ns.recover_temperature(state.rho, state.mom, state.etot, GAS, sc.a)
            state = ns.step(state, ns.stable_dt(state, theta, config), config)
            if (k + 1) % 25 == 0:
                states.append(state)
        drifts[label] = (abs(gf.integrate(state.rho, grid) - m0) / m0,
                         abs(gf.integrate(state.etot, grid) - e0) / e0)
        RUNS.append((f"conservation-{label}", config, tuple(states)))
    return drifts


@pytest.fixture(scope="module")
def budget_runs():
    """Smooth slip-wall runs whose damping-corrected total energy is conserved."""
    residuals = {}
    for n in (128, 256):
        grid = _slab(n)
        sc = thermo.ScalingParams(a=0.0, nu=0.02, omega=0.02, lam=0.15)
        config = ns.NsfRunConfig(gas=GAS, transport=TR, scaling=sc, grid=grid,
                                 t_end=0.25, output_stride=4, cfl=0.35)
        x = gf.cell_centers(grid)[0]
        traj = ns.simulate(config, (1.0 + 0.2 * np.cos(np.pi * x),
                                    1.0 + 0.1 * np.cos(np.pi * x),
                                    (0.15 * np.sin(np.pi * x))[None]))
        assert traj.healthy and not traj.aborted
        RUNS.append((f"budget-{n}", config, tuple(traj.states)))
        rows = np.asarray(traj.rows, dtype=float)
        residuals[n] = float(np.max(np.abs(rows[:, 2] + rows[:, 3] - rows[0, 2])))
    return residuals


@pytest.fixture(scope="module")
def inequality_runs():
    """Dissipative pair at the a=1e-2 path point against one shared reference."""
    ref_grid = _slab(192)
    ref_cfg = er.EulerRunConfig(gas=GAS, grid=ref_grid, t_end=0.25, cfl=0.35,
                                output_stride=2)
    reference = er.run_euler(ref_cfg, scenarios.acoustic_entropy(ref_grid).fields(ref_grid))
    assert not reference.aborted
    sc = PATH.scaling_for(1e-2)
    reports = {}
    for n in (24, 48):
        grid = _slab(n)
        config = ns.NsfRunConfig(gas=GAS, transport=TR, scaling=sc, grid=grid,
                                 t_end=0.25, cfl=0.35, output_stride=4)
        traj = ns.simulate(config, scenarios.acoustic_entropy(grid).fields(grid))
        assert traj.healthy
        RUNS.append((f"inequality-{n}", config, tuple(traj.states)))
        reports[n] = diag.rel_energy_inequality_residual(traj, reference)
    return reports


@pytest.fixture(scope="module")
def sweep_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-sweeps")


@pytest.fixture(scope="module")
def well_sweep(sweep_root):
    setup = sweep.SweepSetup(gas=GAS, transport=TR, path=PATH, grid=_slab(48))
    out = sweep_root / "well"
    return setup, out, sweep.run_sweep(setup, out)


@pytest.fixture(scope="module")
def ill_sweep(sweep_root):
    setup = sweep.SweepSetup(gas=GAS, transport=TR, path=PATH, grid=_slab(48),
                             gap=0.02)
    out = sweep_root / "ill"
    return setup, out, sweep.run_sweep(setup, out)


# ---------------------------------------------------------------------------
# 1. thermodynamic consistency


def test_1_thermodynamic_consistency():
    rho, theta = np.meshgrid(np.logspace(-1, 1, 30), np.logspace(-1, 1, 30),
                             indexing="ij")
    # finite-difference noise grows with the theta^4 terms, so residuals are
    # measured against the local energy-derivative scale
    for a in (0.0, 0.5):
        r1, r2 = thermo.gibbs_residual(GAS, a, rho, theta)
        scale = 1.0 + thermo.cv_total(GAS, a, rho, theta)
        worst = max(float(np.max(np.abs(r1) / scale)),
                    float(np.max(np.abs(r2) / scale)))
        assert worst <= 1e-7, (a, worst)

    # corrupting the energy by one percent must blow the residual past 1e-3
    r1, _ = thermo.gibbs_residual_from(
        lambda r, t: thermo.pressure(GAS, 0.0, r, t),
        lambda r, t: 1.01 * thermo.internal_energy(GAS, 0.0, r, t),
        lambda r, t: thermo.entropy(GAS, 0.0, r, t),
        rho, theta)
    scale = 1.0 + thermo.cv_total(GAS, 0.0, rho, theta)
    assert float(np.max(np.abs(r1) / scale)) > 1e-3


# ---------------------------------------------------------------------------
# 2. hypothesis certification


def test_2_hypothesis_certification():
    report = thermo.hypothesis_report(GAS, TR)
    assert report.pattern() == {"H2": True, "H3": True, "H6": True,
                                "H7": False, "H8": True, "H9": True}
    # the molecular pressure is exactly two thirds of the molecular energy density
    rho, theta = np.meshgrid(np.logspace(-1, 1, 12), np.logspace(-1, 1, 12),
                             indexing="ij")
    p_mol, _ = thermo.pressure_parts(GAS, 0.0, rho, theta)
    ratio = p_mol / thermo.internal_energy_density(GAS, 0.0, rho, theta)
    assert np.max(np.abs(ratio - 2.0 / 3.0)) <= 1e-12


# ---------------------------------------------------------------------------
# 3. relative-energy coercivity


def test_3_relative_energy_coercivity():
    grid = gf.Grid.line(1.0, 128)
    x = gf.cell_centers(grid)[0]
    rho = 1.0 + 0.1 * np.cos(np.pi * x)
    theta = 1.0 + 0.05 * np.cos(2 * np.pi * x)
    u = (0.1 * np.sin(np.pi * x))[None]
    fields = state_from_primitives(GAS, 0.3, (rho, theta, u))
    back = ns.recover_temperature(fields.rho, fields.mom, fields.etot, GAS, 0.3)
    assert abs(re.relative_energy(GAS, 0.3, (fields.rho, back, fields.velocity()),
                                  gf.ReferenceFields(rho, theta, u), grid)) < 1e-14

    for a in (0.0, 0.5):
        assert re.coercivity_constant(GAS, a, K_STD, sample_count=10000, seed=0) > 0.0

    rng = np.random.default_rng(7)
    n = 2000
    pts = np.column_stack([
        np.concatenate([rng.uniform(2.5, 10.0, n // 2), rng.uniform(1e-3, 0.4, n // 2)]),
        rng.uniform(0.05, 8.0, n),
        rng.uniform(0.0, 3.0, n),
    ])
    pts = np.vstack([pts, [1e-8, 1.0, 0.5]])  # near-vacuum probe point
    rep = re.residual_lower_bound_check(GAS, 0.0, K_STD, pts)
    assert rep.c > 0.0 and math.isfinite(rep.c)

    win = re.EssentialResidualWindow(*K_STD)
    ones = np.ones_like(x)
    base = gf.ReferenceFields(ones, ones, np.zeros_like(x)[None])
    d = 1e-3
    smooth = state_from_primitives(GAS, 0.0, (1.0 + d * np.cos(np.pi * x),
                        1.0 + d * np.cos(2 * np.pi * x),
                        (d * np.sin(np.pi * x))[None]))
    rep_s = re.quadratic_bounds_check(GAS, 0.0, smooth, base, win, grid)
    assert math.isfinite(rep_s.C) and rep_s.C_residual >= 0.0

    pocket = ones.copy()
    pocket[40:48] = 1e-10  # vacuum pocket far below the window
    vac = state_from_primitives(GAS, 0.0, (pocket, ones, np.zeros_like(x)[None]))
    rep_v = re.quadratic_bounds_check(GAS, 0.0, vac, base, win, grid)
    assert rep_v.lhs_residual > 0.0
    assert math.isfinite(rep_v.C) and rep_v.C > 0.0


# ---------------------------------------------------------------------------
# 4. discrete interpolation bound


def test_4_velocity_norm_interpolation():
    rng = np.random.default_rng(11)
    grid1 = gf.Grid.line(1.0, 64)
    grid2 = gf.Grid.box((1.0, 0.5), (16, 12))
    vels1 = [rng.normal(0.0, 1.0, (1, 64)) for _ in range(50)]
    vels2 = [rng.normal(0.0, 1.0, (2, 16, 12)) for _ in range(50)]
    assert diag.interpolation_check(vels1, grid1) <= 1.0 + 1e-12
    assert diag.interpolation_check(vels2, grid2) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# 5. solver verification


def test_5_solver_verification(conservation_runs):
    # manufactured solution: observed order of all three tendencies
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
    for n in (64, 128, 256):
        grid = gf.Grid.line(1.0, n, "periodic")
        config = ns.NsfRunConfig(
            gas=GAS, transport=TR, grid=grid, t_end=1.0,
            scaling=thermo.ScalingParams(a=a, nu=nu, omega=omega, lam=lam))
        (xc,) = gf.cell_centers(grid)
        state = state_from_primitives(GAS, a, (f_rho(xc), f_th(xc), f_u(xc)[None]))
        force = (-f_rhs[0](xc), -f_rhs[1](xc)[None], -f_rhs[2](xc))
        dW = ns.rhs_nsf(state, config)
        dW[0] += force[0]
        dW[1:-1] += force[1]
        dW[-1] += force[2]
        drho, dmom, detot = dW[0], dW[1:-1], dW[-1]
        errs.append([gf.norm(drho, grid, 2), gf.norm(dmom[0], grid, 2),
                     gf.norm(detot, grid, 2)])
    errs = np.asarray(errs)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders

    # mass drift over 10^3 steps on both boundary kinds
    assert conservation_runs["periodic"][0] < 1e-12, conservation_runs
    assert conservation_runs["slip-wall"][0] < 1e-12, conservation_runs

    # wall fluxes: interior flux differences telescope out of the domain
    # integral, so with lam = 0 the total tendencies measure exactly the
    # wall-normal mass and energy (advective + viscous work + heat) fluxes
    sc = thermo.ScalingParams(a=0.2, nu=0.05, omega=0.05, lam=0.0)
    grid1 = _slab(64)
    (x1,) = gf.cell_centers(grid1)
    st1 = state_from_primitives(GAS, sc.a,
                     (1.0 + 0.2 * np.cos(np.pi * x1) + 0.05 * np.cos(3 * np.pi * x1),
                     1.0 + 0.15 * np.cos(2 * np.pi * x1),
                     (0.2 * np.sin(np.pi * x1) + 0.05 * np.sin(2 * np.pi * x1))[None]))
    cfg1 = ns.NsfRunConfig(gas=GAS, transport=TR, scaling=sc, grid=grid1, t_end=1.0)
    dW = ns.rhs_nsf(st1, cfg1)
    drho, detot = dW[0], dW[-1]
    assert abs(gf.integrate(drho, grid1)) < 1e-12
    assert abs(gf.integrate(detot, grid1)) < 1e-12

    grid2 = gf.Grid.box((1.0, 0.75), (32, 24), ("periodic", "slip-wall"))
    X, Y = gf.mesh(grid2)
    ky = np.pi / 0.75
    st2 = state_from_primitives(GAS, sc.a,
                     (1.0 + 0.15 * np.sin(2 * np.pi * X) * np.cos(ky * Y),
                     1.0 + 0.1 * np.cos(2 * np.pi * X) * np.cos(ky * Y),
                     np.stack([0.1 * np.sin(2 * np.pi * X) * np.cos(ky * Y),
                               0.05 * np.cos(2 * np.pi * X) * np.sin(ky * Y)])))
    cfg2 = ns.NsfRunConfig(gas=GAS, transport=TR, scaling=sc, grid=grid2, t_end=1.0)
    dW = ns.rhs_nsf(st2, cfg2)
    drho, detot = dW[0], dW[-1]
    assert abs(gf.integrate(drho, grid2)) < 1e-12
    assert abs(gf.integrate(detot, grid2)) < 1e-12

    # sustained version: both invariants hold over 10^3 steps of the
    # undamped slip run
    assert conservation_runs["slip-undamped"][0] < 1e-12, conservation_runs
    assert conservation_runs["slip-undamped"][1] < 1e-12, conservation_runs


# ---------------------------------------------------------------------------
# 6. entropy and energy structure


def test_6_entropy_and_energy_structure(conservation_runs, budget_runs,
                                        inequality_runs, well_sweep, ill_sweep):
    assert budget_runs[128] < 1e-8, budget_runs
    assert budget_runs[128] / budget_runs[256] >= 3.0, budget_runs

    # entropy production sign, pointwise, on every stored state of every run
    checked = 0
    for label, config, states in RUNS:
        for state in states:
            theta = ns.recover_temperature(state.rho, state.mom, state.etot,
                                           config.gas, config.scaling.a)
            sigma, total = ns.entropy_production(state, theta, config)
            assert np.all(sigma >= 0.0), label
            assert total >= 0.0, label
            checked += 1
    for _, out, _manifest in (well_sweep, ill_sweep):
        for rdir in sorted((out / "runs").iterdir()):
            _, run_cfg, traj = sweep.load_run(rdir)
            for state in traj.states:
                theta = ns.recover_temperature(state.rho, state.mom, state.etot,
                                               run_cfg.gas, run_cfg.scaling.a)
                sigma, total = ns.entropy_production(state, theta, run_cfg)
                assert np.all(sigma >= 0.0), rdir.name
                assert total >= 0.0, rdir.name
                checked += 1
    # criterion 9 reruns are byte-identical copies of the well sweep, so the
    # scan above already covers their snapshots
    assert checked > 1500, checked


# ---------------------------------------------------------------------------
# 7. relative energy inequality


def test_7_relative_energy_inequality(inequality_runs):
    coarse, fine = inequality_runs[24], inequality_runs[48]
    tol = coarse.max_excess / 3.0 + 1e-15
    assert coarse.max_excess <= 1e-6, coarse.max_excess
    assert fine.max_excess <= tol, (fine.max_excess, tol)

    # an anti-dissipative solver would gain 2*WD of relative energy while the
    # measured dissipation integrand, a square, is unchanged; the recomputed
    # residual must then land far outside the discretization tolerance
    wd = np.asarray(fine.lhs["weighted_dissipation"])
    mutated = np.asarray(fine.residual) + 2.0 * wd
    assert float(np.max(mutated)) > 1e-6 > tol, float(np.max(mutated))


# ---------------------------------------------------------------------------
# 8. rate-envelope sweep


def test_8_rate_envelope_sweep(well_sweep, ill_sweep):
    _, _, manifest = well_sweep
    records = manifest.records
    assert [r.a for r in records] == [1e-2, 1e-3, 1e-4]
    assert all(r.healthy for r in records), [r.reason for r in records]

    # (i) envelope strictly decreasing, and exactly the arithmetic form
    for r in records:
        assert r.envelope == diag.rate_envelope(PATH.scaling_for(r.a))
    envs = [r.envelope for r in records]
    assert envs[0] > envs[1] > envs[2], envs

    # (ii) measured relative-energy sups decrease along the path
    sups = [r.e_sup for r in records]
    assert sups[0] > sups[1] > sups[2], sups
    assert all(r.e_init < 1e-9 for r in records)  # data really are well prepared

    # (iii) bounded constant: ratios within one decade across the path
    ratios = [r.e_sup / (r.e_init + r.envelope) for r in records]
    assert max(ratios) / min(ratios) < 10.0, ratios
    assert manifest.flagged is False
    assert math.isfinite(manifest.fitted_constant)
    assert manifest.fitted_constant == max(ratios)

    # ill-prepared variant: the initial offset dominates and persists
    _, _, ill = ill_sweep
    for r in ill.records:
        assert r.healthy, r.reason
        assert r.e_init > 1e-5, r.e_init
        assert r.e_sup <= 3.0 * r.e_init, (r.e_sup, r.e_init)
        assert r.e_sup >= r.e_init / 3.0, (r.e_sup, r.e_init)


# ---------------------------------------------------------------------------
# 9. determinism


def test_9_determinism(well_sweep, tmp_path):
    setup, base, _ = well_sweep

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    # a repeat invocation writes the same bytes
    again = tmp_path / "again"
    sweep.run_sweep(setup, again)
    base_files = files(base)
    assert files(again) == base_files
    for p in base_files:
        assert (again / p).read_bytes() == (base / p).read_bytes(), p

    # the path points advance as one batch: each point swept alone writes
    # its run and the reference byte for byte as the batched sweep did
    for a in setup.path.a_values:
        alone = tmp_path / f"alone-{sweep.run_id_for(a)}"
        sweep.run_sweep(replace(setup, path=replace(setup.path, a_values=(a,))), alone)
        shared = [p for p in files(alone) if p.name not in ("manifest.json", "plot_rate.dat")]
        own = [p for p in base_files if p.parts[:2] == ("runs", sweep.run_id_for(a))]
        assert own and set(own) <= set(shared) <= set(base_files)
        for p in shared:
            assert (alone / p).read_bytes() == (base / p).read_bytes(), p

    c1 = re.coercivity_constant(GAS, 0.5, K_STD, sample_count=10000, seed=0)
    c2 = re.coercivity_constant(GAS, 0.5, K_STD, sample_count=10000, seed=0)
    assert c1 == c2
