"""Finite-volume solver for viscous, heat-conducting compressible flow.

Evolves the conservative variables (rho, momentum, total energy) with

  - Rusanov convective fluxes on face states reconstructed by unlimited
    central slopes (2nd order on smooth fields; plain cell values when the
    run is purely inviscid),
  - centered face differences for the viscous stress and Fourier heat flux,
  - an explicit velocity damping -lambda u in the momentum equation with
    the matching -lambda |u|^2 sink in the energy equation,
  - strong-stability-preserving third-order Runge-Kutta in time.

The state is the stacked array `FluidState.W` (rho, the momentum
components, etot on axis 0), and `rhs_nsf` returns its tendency stacked
the same way.  `ssp_rk3` is the one SSP-RK3 stepper of the package: each
stage is one expression on W, validated as a `FluidState`.  `step` runs it
on `rhs_nsf` with positivity floors applied in place to every stage's new
W, and the inviscid reference solver in `euler_reference` steps through it
as well.

`recover_temperature` is the one path from conservative fields to theta in
both solvers.  `simulate` recovers each accepted state's theta once and
passes it to `stable_dt`, `entropy_production` and the recorded
diagnostics, and keeps it with each stored state (`Trajectory.thetas`).
The first RK stage of the next step still inverts that accepted state
again inside `rhs_nsf`.

All fluxes are written as face differences, so mass is conserved to
round-off on periodic boxes and across slip walls (the mirror ghosts make
every wall-normal mass, energy and heat flux vanish identically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid_fields as gf
from . import thermo
from .errors import ConfigError, DomainError, PositivityError

_GHOST_DEPTH = 2  # central-slope reconstruction needs two layers
CONVECTIVE_ORDERS = ("auto", "1", "2")  # face reconstruction choices


@dataclass(frozen=True)
class NsfRunConfig:
    """Everything one dissipative run needs besides its initial data."""

    gas: thermo.GasModel
    transport: thermo.TransportModel
    scaling: thermo.ScalingParams
    grid: gf.Grid
    t_end: float
    cfl: float = 0.4
    output_stride: int = 10
    positivity_floor: tuple = (1e-12, 1e-12)
    convective_order: str = "auto"  # one of CONVECTIVE_ORDERS

    def __post_init__(self):
        if not (0.0 < self.cfl <= 0.9):
            raise ConfigError(f"cfl must lie in (0, 0.9], got {self.cfl}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if int(self.output_stride) < 1:
            raise ConfigError(f"output_stride must be at least 1, got {self.output_stride}")
        object.__setattr__(self, "output_stride", int(self.output_stride))
        rf, tf = self.positivity_floor
        if not (rf > 0.0 and tf > 0.0):
            raise ConfigError(f"positivity floors must be positive, got {self.positivity_floor}")
        object.__setattr__(self, "positivity_floor", (float(rf), float(tf)))
        if str(self.convective_order) not in CONVECTIVE_ORDERS:
            raise ConfigError(f"convective_order must be one of "
                              f"{', '.join(CONVECTIVE_ORDERS)}, got {self.convective_order}")
        object.__setattr__(self, "convective_order", str(self.convective_order))

    def resolved_order(self) -> int:
        """Reconstruction order: degrade to plain cell values for pure Euler runs."""
        if self.convective_order == "auto":
            s = self.scaling
            return 1 if (s.nu == 0.0 and s.omega == 0.0 and s.lam == 0.0 and s.a == 0.0) else 2
        return int(self.convective_order)


@dataclass
class StepStats:
    """Mutable per-run accounting of floor activations and health."""

    floor_hits: int = 0
    unhealthy: bool = False
    reason: str = ""

    def record(self, hits: int, cells: int):
        self.floor_hits += hits
        if hits > 0.001 * cells and not self.unhealthy:
            self.unhealthy = True
            self.reason = f"floor hits {hits} exceeded 0.1% of {cells} cells in one step"


def state_from_primitives(gas: thermo.GasModel, a: float, initial) -> gf.FluidState:
    """Conservative state at time 0 from primitive fields (rho, theta, u).

    A FluidState passes through as a copy, keeping its own time.
    """
    if isinstance(initial, gf.FluidState):
        return initial.copy()
    rho, theta, u = initial
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape == rho.shape:
        u = u[None]
    mom = rho * u
    etot = 0.5 * rho * np.sum(u * u, axis=0) + thermo.internal_energy_density(
        gas, a, rho, np.asarray(theta, dtype=float)
    )
    return gf.FluidState(rho, mom, etot, 0.0)


def _internal_energy(rho, mom, etot, sides=0):
    """etot minus the kinetic energy; PositivityError names the first cell
    with rho <= 0 or e_int <= 0, without its first `sides` axes."""
    if (rho <= 0.0).any():
        where = tuple(int(i) for i in np.argwhere(rho <= 0.0)[0][sides:])
        raise PositivityError(f"non-positive density at cell {where}", where=where)
    e_int = etot - 0.5 * np.sum(mom * mom, axis=0) / rho
    if (e_int <= 0.0).any():
        where = tuple(int(i) for i in np.argwhere(e_int <= 0.0)[0][sides:])
        raise PositivityError(f"non-positive internal energy at cell {where}", where=where)
    return e_int


def recover_temperature(rho, mom, etot, gas: thermo.GasModel, a: float):
    """Temperature from conservative field arrays; aborts naming the first bad cell."""
    return thermo.temperature_from_energy(gas, a, rho, _internal_energy(rho, mom, etot))


# ---------------------------------------------------------------------------
# spatial operator


def _face_states(W, n, order):
    """Left and right conservative states at the n+1 faces of one axis.

    W has the axis last with extent n + 2*depth; face k sits between cells
    k and k+1 in the ghost frame, for k = depth-1 .. depth+n-1.  The result
    stacks the left (index 0) and right (index 1) states on axis 1.
    """
    d = _GHOST_DEPTH
    lo, hi = d - 1, d + n  # cells feeding left/right states
    WL1 = W[..., lo:hi]
    WR1 = W[..., lo + 1:hi + 1]
    if order == 1:
        return np.stack((WL1, WR1), axis=1)
    slope = 0.5 * (W[..., 2:] - W[..., :-2])  # cell j+1 of ghost frame
    WLR = np.empty((W.shape[0], 2, *W.shape[1:-1], n + 1))
    np.add(WL1, 0.5 * slope[..., lo - 1:hi - 1], out=WLR[:, 0])
    np.subtract(WR1, 0.5 * slope[..., lo:hi], out=WLR[:, 1])
    # drop to the unreconstructed state wherever the reconstruction left
    # the face without positive density or internal energy
    rho = WLR[0]
    ke = 0.5 * np.sum(WLR[1:-1] ** 2, axis=0) / np.where(rho > 0.0, rho, 1.0)
    bad = (rho <= 0.0) | (WLR[-1] - ke <= 0.0)
    if not bad.any():
        return WLR
    return np.where(bad[None], np.stack((WL1, WR1), axis=1), WLR)


def _face_primitives(gas, a, W):
    # W stacks both sides of the faces on axis 1; one checked closure call
    # serves them both, and errors name the face without the side axis
    rho = W[0]
    mom = W[1:-1]
    etot = W[-1]
    _, p, c2 = thermo.closures_from_energy(gas, a, rho, _internal_energy(rho, mom, etot, 1))
    return rho, mom, etot, p, np.sqrt(c2)


def _phys_flux(ax, dim, rho, mom, etot, p):
    un = mom[ax] / rho
    F = np.empty((2 + dim, *un.shape))
    F[0] = mom[ax]
    for c in range(dim):
        F[1 + c] = mom[c] * un
    F[1 + ax] += p
    F[-1] = (etot + p) * un
    return F


def _convective(gas, a, grid, W_g, order):
    dim = grid.dim
    out = np.zeros((2 + dim, *grid.cells))
    for ax in range(dim):
        n = grid.cells[ax]
        dx = grid.spacing[ax]
        W = gf.axis_strip(W_g, grid, ax, _GHOST_DEPTH)
        WLR = _face_states(W, n, order)
        rho, mom, etot, p, c = _face_primitives(gas, a, WLR)
        FLR = _phys_flux(ax, dim, rho, mom, etot, p)
        s = np.abs(mom[ax] / rho) + c
        smax = np.maximum(s[0], s[1])
        F = 0.5 * (FLR[:, 0] + FLR[:, 1]) - 0.5 * smax * (WLR[:, 1] - WLR[:, 0])
        dW = -(F[..., 1:] - F[..., :-1]) / dx
        out += dW.swapaxes(-1, 1 + ax)  # undo axis_strip's swap
    return out


def _face_avg(x):
    return 0.5 * (x[..., 1:] + x[..., :-1])


def _face_diff(x, dx):
    return (x[..., 1:] - x[..., :-1]) / dx


def _diffusive(config: NsfRunConfig, grid, u_g, theta_g, dmom, detot):
    """Viscous stress and heat-flux face differences, accumulated in place."""
    tr = config.transport
    nu, omega = config.scaling.nu, config.scaling.omega
    dim = grid.dim
    d = _GHOST_DEPTH
    for ax in range(dim):
        dx = grid.spacing[ax]
        # strips: axis ax keeps one of its d = 2 ghost layers on each side,
        # the other axis is interior; tangential derivatives need +-1 there
        th = gf.axis_strip(theta_g, grid, ax, d)[..., 1:-1]
        th_f = _face_avg(th)
        mu_f = tr.mu(th_f)
        eta_f = tr.eta(th_f)
        u = gf.axis_strip(u_g, grid, ax, d)[..., 1:-1]  # (dim, ..., n+2)
        dun_f = _face_diff(u[ax], dx)  # d u_ax / d x_ax at faces
        q_f = -omega * tr.kappa(th_f) * _face_diff(th, dx)

        if dim == 1:
            S_f = nu * ((4.0 / 3.0) * mu_f + eta_f) * dun_f
            visc_mom = {ax: S_f}
        else:
            t_ax = 1 - ax
            dy = grid.spacing[t_ax]
            # cell-centered tangential derivatives on the extended strip
            u_t = gf.axis_strip(u_g, grid, ax, d, widen=1)[..., 1:-1]
            # derivative along t_ax: that axis is now the one non-moved grid axis
            dut = (u_t[:, 2:, :] - u_t[:, :-2, :]) / (2.0 * dy)
            dut_f = _face_avg(dut)  # (dim, ..., n+1): d u_c / d x_t at faces
            dutan_f = _face_diff(u[t_ax], dx)  # d u_t / d x_ax at faces
            S_nn = nu * (((4.0 / 3.0) * mu_f + eta_f) * dun_f
                         + (eta_f - (2.0 / 3.0) * mu_f) * dut_f[t_ax])
            S_nt = nu * mu_f * (dutan_f + dut_f[ax])
            visc_mom = {ax: S_nn, t_ax: S_nt}

        u_f = _face_avg(u)
        energy_flux = -q_f
        for comp, S_comp in visc_mom.items():
            energy_flux = energy_flux + S_comp * u_f[comp]
            dmom[comp] += _face_diff(S_comp, dx).swapaxes(-1, ax)
        detot += _face_diff(energy_flux, dx).swapaxes(-1, ax)


def rhs_nsf(state: gf.FluidState, config: NsfRunConfig, forcing=None):
    """Tendency dW/dt of the dissipative system, stacked like the state's W.

    `forcing(t)`, when given, returns the source parts (f_rho, f_mom, f_etot).
    """
    grid = config.grid
    gas = config.gas
    sc = config.scaling

    theta = recover_temperature(state.rho, state.mom, state.etot, gas, sc.a)
    W_g = gf.fill_ghosts_slip(state, grid, depth=_GHOST_DEPTH)

    out = _convective(gas, sc.a, grid, W_g, config.resolved_order())
    dmom = out[1:-1]
    detot = out[-1]

    if sc.nu > 0.0 or sc.omega > 0.0:
        theta_g = gf.fill_ghosts_slip(theta, grid, depth=_GHOST_DEPTH)
        u_g = W_g[1:-1] / W_g[0]
        _diffusive(config, grid, u_g, theta_g, dmom, detot)

    if sc.lam > 0.0:
        u = state.velocity()
        dmom -= sc.lam * u
        detot -= sc.lam * np.sum(u * u, axis=0)

    if forcing is not None:
        f_rho, f_mom, f_etot = forcing(state.time)
        out[0] += f_rho
        dmom += f_mom
        detot += f_etot
    return out


# ---------------------------------------------------------------------------
# time stepping


def stable_dt(state: gf.FluidState, theta, config: NsfRunConfig) -> float:
    """cfl times the smaller of the acoustic and diffusive step bounds."""
    grid = config.grid
    sc = config.scaling
    c = np.sqrt(thermo.sound_speed_sq(config.gas, sc.a, state.rho, theta))
    u = state.velocity()
    dt = math.inf
    for ax in range(grid.dim):
        dt = min(dt, float(np.min(grid.spacing[ax] / (np.abs(u[ax]) + c))))
    if sc.nu > 0.0 or sc.omega > 0.0:
        diff = np.zeros_like(state.rho)
        if sc.nu > 0.0:
            diff = np.maximum(diff, sc.nu * config.transport.mu(theta) / state.rho)
        if sc.omega > 0.0:
            cv = thermo.heat_capacity_cv(config.gas, state.rho, theta)
            diff = np.maximum(diff, sc.omega * config.transport.kappa(theta) / (state.rho * cv))
        d_max = float(np.max(diff))
        if d_max > 0.0:
            dx2 = min(h * h for h in grid.spacing)
            dt = min(dt, dx2 / (2.0 * grid.dim * d_max))
    dt *= config.cfl
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"stable_dt produced {dt}")
    return dt


def _apply_floors(W, config: NsfRunConfig) -> int:
    """Clip density and temperature of the stacked W from below, in place;
    returns the number of hits."""
    rho_floor, theta_floor = config.positivity_floor
    rho = W[0]
    hits = int(np.sum(rho < rho_floor))
    np.maximum(rho, rho_floor, out=rho)
    ke = 0.5 * np.sum(W[1:-1] * W[1:-1], axis=0) / rho
    e_int = W[-1] - ke
    e_min = thermo.internal_energy_density(
        config.gas, config.scaling.a, rho, np.full_like(rho, theta_floor)
    )
    cold = e_int < e_min
    hits += int(np.sum(cold))
    if np.any(cold):
        W[-1] = np.where(cold, ke + e_min, W[-1])
    return hits


def ssp_rk3(state: gf.FluidState, dt: float, rhs, stage_map=None) -> gf.FluidState:
    """One SSP-RK3 step (Shu-Osher form, Gottlieb & Shu 1998) of dW/dt = rhs(W).

    `rhs(state)` returns the tendency stacked like `state.W`.  Each stage
    computes its own new W, which `stage_map(W)`, when given, modifies in
    place before the stage state is built (and validated) on it; the input
    state is never written.
    """
    def stage(s, frac_old, t_new):
        W = s.W + dt * rhs(s)
        if frac_old > 0.0:
            W = frac_old * state.W + (1.0 - frac_old) * W
        if stage_map is not None:
            stage_map(W)
        return gf.FluidState.stacked(W, t_new)

    t = state.time
    s1 = stage(state, 0.0, t + dt)
    s2 = stage(s1, 0.75, t + 0.5 * dt)
    return stage(s2, 1.0 / 3.0, t + dt)


def step(state: gf.FluidState, dt: float, config: NsfRunConfig,
         stats: StepStats = None, forcing=None) -> gf.FluidState:
    """One SSP-RK3 step; positivity floors applied and counted per stage."""
    hits = 0

    def floors(W):
        nonlocal hits
        hits += _apply_floors(W, config)

    out = ssp_rk3(state, dt, lambda s: rhs_nsf(s, config, forcing), floors)
    if stats is not None:
        stats.record(hits, int(np.prod(config.grid.cells)))
    return out


# ---------------------------------------------------------------------------
# entropy production


def entropy_production(state: gf.FluidState, theta, config: NsfRunConfig):
    """Pointwise sigma = (1/theta)(S : grad u - q . grad theta / theta) and its integral.

    Both contributions are nonnegative by construction:
    S : grad u = nu [ (mu/2) |A|^2 + eta (div u)^2 ] and -q . grad theta =
    omega kappa |grad theta|^2.
    """
    grid = config.grid
    sc = config.scaling
    tr = config.transport
    G = gf.interior_gradient(state.velocity(), grid)  # G[i,j]
    div = np.trace(G, axis1=0, axis2=1)
    grad_theta = gf.interior_gradient(theta, grid)
    mu = tr.mu(theta)
    eta = tr.eta(theta)
    stress_work = sc.nu * (0.5 * mu * thermo.shear_tensor_sq(G) + eta * div ** 2)
    heat_work = sc.omega * tr.kappa(theta) * np.sum(grad_theta ** 2, axis=0) / theta
    sigma = (stress_work + heat_work) / theta
    return sigma, gf.integrate(sigma, grid)


# ---------------------------------------------------------------------------
# trajectories

DIAG_HEADER = "t,mass,etot,damping_integral,sigma_integral,min_rho,min_theta,floor_hits"


@dataclass
class Trajectory:
    """Recorded output instants of one run plus health accounting.

    thetas[k] is the temperature of states[k], recovered once when the
    state is stored or loaded; the per-run reports read it from here.
    """

    config: NsfRunConfig
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    floor_hits: int = 0
    healthy: bool = True
    health_reason: str = ""
    aborted: bool = False
    abort_state: gf.FluidState = None

    def diagnostics_csv(self) -> str:
        lines = [DIAG_HEADER]
        for row in self.rows:
            lines.append(",".join(repr(float(v)) if i != 7 else str(int(v))
                                  for i, v in enumerate(row)))
        return "\n".join(lines) + "\n"

    def write_diagnostics(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.diagnostics_csv())


def _check_initial_data(state: gf.FluidState, theta, config: NsfRunConfig) -> None:
    """ConfigError when a positivity floor is not far below the initial minima."""
    rho0, theta_floor = config.positivity_floor
    min_rho = float(np.min(state.rho))
    min_theta = float(np.min(theta))
    if rho0 > 1e-8 * min_rho or theta_floor > 1e-8 * min_theta:
        raise ConfigError(
            f"positivity floors {config.positivity_floor} exceed 1e-8 of the "
            f"initial minima ({min_rho}, {min_theta})"
        )


def simulate(config: NsfRunConfig, initial, forcing=None) -> Trajectory:
    """Run to t_end, recording diagnostics and snapshots every output_stride steps.

    `initial` is either a FluidState or a primitive triple (rho, theta, u).
    The run aborts (trajectory.aborted, with the offending state attached)
    on positivity failure or non-finite values; floor activations above
    0.1% of cells in any step mark it unhealthy but let it continue.
    """
    gas, a = config.gas, config.scaling.a
    state = state_from_primitives(gas, a, initial)
    theta = recover_temperature(state.rho, state.mom, state.etot, gas, a)
    traj = Trajectory(config=config)
    _check_initial_data(state, theta, config)
    stats = StepStats()
    lam = config.scaling.lam

    damping = gf.TrapezoidAccumulator()
    sigma_acc = gf.TrapezoidAccumulator()

    def damping_rate(s):
        u = s.velocity()
        return lam * gf.integrate(np.sum(u * u, axis=0), config.grid)

    def record(s, theta):
        traj.times.append(s.time)
        traj.states.append(s.copy())
        traj.thetas.append(theta)
        traj.rows.append((
            s.time,
            gf.integrate(s.rho, config.grid),
            gf.integrate(s.etot, config.grid),
            damping.total,
            sigma_acc.total,
            float(np.min(s.rho)),
            float(np.min(theta)),
            stats.floor_hits,
        ))

    damping.add(state.time, damping_rate(state))
    sigma_acc.add(state.time, entropy_production(state, theta, config)[1])
    record(state, theta)

    steps = 0
    while state.time < config.t_end - 1e-14:
        try:
            dt = stable_dt(state, theta, config)
            dt = min(dt, config.t_end - state.time)
            state = step(state, dt, config, stats=stats, forcing=forcing)
            theta = recover_temperature(state.rho, state.mom, state.etot, gas, a)
        except (PositivityError, DomainError) as err:
            traj.aborted = True
            traj.healthy = False
            traj.health_reason = f"aborted at t={state.time}: {err}"
            traj.abort_state = state
            break
        damping.add(state.time, damping_rate(state))
        sigma_acc.add(state.time, entropy_production(state, theta, config)[1])
        steps += 1
        if steps % config.output_stride == 0 or state.time >= config.t_end - 1e-14:
            record(state, theta)
    traj.floor_hits = stats.floor_hits
    if stats.unhealthy:
        traj.healthy = False
        traj.health_reason = traj.health_reason or stats.reason
    return traj
