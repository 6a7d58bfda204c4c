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
stage is one expression on W.  Only the accepted state of a step is
validated as a `FluidState`; an intermediate stage is checked where the
next tendency recovers its temperature, which raises on a non-finite
value, a non-positive density or a non-positive internal energy.  `step`
runs it on `rhs_nsf` with positivity floors applied in place to every
stage's new W, and the inviscid reference solver in `euler_reference`
steps through it as well.  `rhs_nsf`'s convective part computes each face
quantity once per axis (`_face_states`, `_rusanov`).

`recover_temperature` is the one path from conservative fields to theta in
both solvers.  The time loop recovers each accepted state's theta once and
passes it to `stable_dt`, the first RK stage of the next step,
`entropy_production` and the recorded diagnostics, and keeps it with each
stored state (`Trajectory.thetas`).

`simulate_batch` is the one time loop.  It advances several runs that
differ only in their scalings (the points of a dissipation path) as one
batch: their states stack on a member axis of W, shape
(2 + dim, M, *cells), and the scaling values, times and steps become
per-member arrays of shape (M, 1, ..., 1) that broadcast against the
member fields.  Every kernel works elementwise or reduces over the grid
axes per member, so each member's numbers are bitwise those of its run
alone; `simulate` is the batch of one.

All fluxes are written as face differences, so mass is conserved to
round-off on periodic boxes and across slip walls (the mirror ghosts make
every wall-normal mass, energy and heat flux vanish identically).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid_fields as gf
from . import thermo
from .errors import ConfigError, DomainError, PositivityError, UsageError

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
            return 1 if all(self.scaling.zeros) else 2
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
    """Temperature from conservative field arrays; aborts naming the first bad cell.

    For a batch, a holds one value per member (`thermo.member_temperatures`).
    """
    return thermo.member_temperatures(gas, a, rho, _internal_energy(rho, mom, etot))


# ---------------------------------------------------------------------------
# heap pages

_M_TOP_PAD = -2                # mallopt's parameter number for the top pad (glibc)
_TOP_PAD_DEFAULT = 128 * 1024  # glibc's own top pad
_TOP_PAD_MAX = 2 ** 31 - 1     # mallopt takes a C int
_TOP_PAD_STATES = 32           # the pad, in stacked states: one step's temporaries
_top_pad = _TOP_PAD_DEFAULT    # the largest top pad set so far in this process


def _mallopt():
    """The C library's mallopt, or None where it has none."""
    try:
        return ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None


def keep_heap_pages(state_bytes: int) -> None:
    """Keep one step's temporaries on the heap from one step to the next.

    A step allocates and frees several times its stacked state in
    temporaries.  Once they are freed, glibc returns the top of the heap
    to the system and then faults the same pages in again on the next RHS
    call.  A top pad of 32 times the bytes of the stacked state W keeps
    them.  The pad is only ever raised: never below one set before, nor
    below glibc's default, and nothing changes where the C library has no
    mallopt.
    """
    global _top_pad
    pad = min(_TOP_PAD_STATES * int(state_bytes), _TOP_PAD_MAX)
    if pad <= _top_pad:
        return
    mallopt = _mallopt()
    if mallopt is not None and mallopt(_M_TOP_PAD, pad) == 1:
        _top_pad = pad


# ---------------------------------------------------------------------------
# spatial operator


def _face_states(W, n, order):
    """Left and right conservative states at the n+1 faces of one axis, and
    their internal energy.

    W has the axis last with extent n + 2*depth; face k sits between cells
    k and k+1 in the ghost frame, for k = depth-1 .. depth+n-1.  The states
    stack the left (index 0) and right (index 1) sides on axis 1, and the
    internal energy etot - |mom|^2 / (2 rho) is shaped like their density.
    Second order adds and subtracts the half central slope, computed once
    over the strip, and drops to the cell values at every face where that
    leaves a side without positive density or internal energy.  The cell
    values' own check is `_internal_energy`'s: its PositivityError names
    the face without the side axis.
    """
    d = _GHOST_DEPTH
    lo, hi = d - 1, d + n  # cells feeding left/right states
    WL1 = W[..., lo:hi]
    WR1 = W[..., lo + 1:hi + 1]
    if order == 1:
        WLR = np.stack((WL1, WR1), axis=1)
    else:
        half = np.subtract(W[..., 2:], W[..., :-2])  # cell j+1 of ghost frame
        half *= 0.5
        half *= 0.5                                   # halved twice: 0.5 * slope's bits
        WLR = np.empty((W.shape[0], 2, *W.shape[1:-1], n + 1))
        np.add(WL1, half[..., lo - 1:hi - 1], out=WLR[:, 0])
        np.subtract(WR1, half[..., lo:hi], out=WLR[:, 1])
        # etot - 0.5 sum(mom^2) / rho in _internal_energy's operations; a
        # face without positive density is left undivided and marked bad
        rho = WLR[0]
        e_int = np.square(WLR[1])
        for c in range(2, W.shape[0] - 1):
            e_int += np.square(WLR[c])
        e_int *= 0.5
        np.divide(e_int, rho, out=e_int, where=rho > 0.0)
        np.subtract(WLR[-1], e_int, out=e_int)
        bad = rho <= 0.0
        bad |= e_int <= 0.0
        if not bad.any():
            return WLR, e_int
        np.copyto(WLR, np.stack((WL1, WR1), axis=1), where=bad)
    return WLR, _internal_energy(WLR[0], WLR[1:-1], WLR[-1], 1)


def _rusanov(gas, a, WLR, e_int, ax, dx):
    """Rusanov flux differences along the last axis, divided by dx: minus
    the axis's contribution to dW/dt.

    WLR and e_int are `_face_states`'s; one checked closure call serves
    both sides.  The flux sums both sides component by component, in the
    order of F(left) + F(right) with F = (m_n, m u_n + p e_n, (E + p) u_n),
    and the dissipation 0.5 max(|u_n| + c) (right - left) is applied in place.
    """
    rho = WLR[0]
    mn = WLR[1 + ax]
    _, p, c = thermo.closures_from_energy(gas, a, rho, e_int)
    np.sqrt(c, out=c)
    un = mn / rho
    F = np.empty((WLR.shape[0], *un.shape[1:]))
    np.add(mn[0], mn[1], out=F[0])
    for k in range(1, WLR.shape[0] - 1):
        Fk = WLR[k] * un
        if k == 1 + ax:
            Fk += p
        np.add(Fk[0], Fk[1], out=F[k])
    Fk = WLR[-1] + p
    Fk *= un
    np.add(Fk[0], Fk[1], out=F[-1])
    F *= 0.5
    np.abs(un, out=un)
    un += c                                   # |u_n| + c on each side
    smax = np.maximum(un[0], un[1])
    smax *= 0.5
    D = np.subtract(WLR[:, 1], WLR[:, 0])
    D *= smax
    F -= D
    dF = np.subtract(F[..., 1:], F[..., :-1])
    dF /= dx
    return dF


def _convective(gas, a, grid, W_g, order):
    dim = grid.dim
    out = np.zeros(W_g.shape[:-dim] + grid.cells)
    for ax in range(dim):
        W = gf.axis_strip(W_g, grid, ax, _GHOST_DEPTH)
        WLR, e_int = _face_states(W, grid.cells[ax], order)
        # out - dF is out + (-dF) bitwise; swapping back undoes axis_strip's swap
        o = out.swapaxes(-1, ax - dim)
        np.subtract(o, _rusanov(gas, a, WLR, e_int, ax, grid.spacing[ax]), out=o)
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
            dut = (u_t[..., 2:, :] - u_t[..., :-2, :]) / (2.0 * dy)
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
            dmom[comp] += _face_diff(S_comp, dx).swapaxes(-1, ax - dim)
        detot += _face_diff(energy_flux, dx).swapaxes(-1, ax - dim)


def rhs_nsf(state: gf.FluidState, config: NsfRunConfig, forcing=None, theta=None):
    """Tendency dW/dt of the dissipative system, stacked like the state's W.

    `theta`, when given, is the state's temperature, already recovered by
    the caller.  `forcing(t)`, when given, returns the source parts
    (f_rho, f_mom, f_etot).  A batch state (see `simulate_batch`) advances
    every member with its own scaling values.
    """
    grid = config.grid
    gas = config.gas
    sc = config.scaling

    if theta is None:
        theta = recover_temperature(state.rho, state.mom, state.etot, gas, sc.a)
    W_g = gf.fill_ghosts_slip(state, grid, depth=_GHOST_DEPTH)

    out = _convective(gas, sc.a, grid, W_g, config.resolved_order())
    dmom = out[1:-1]
    detot = out[-1]

    _, no_nu, no_omega, no_lam = sc.zeros
    if not (no_nu and no_omega):
        theta_g = gf.fill_ghosts_slip(theta, grid, depth=_GHOST_DEPTH)
        u_g = W_g[1:-1] / W_g[0]
        _diffusive(config, grid, u_g, theta_g, dmom, detot)

    if not no_lam:
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


def stable_dt(state: gf.FluidState, theta, config: NsfRunConfig):
    """cfl times the smaller of the acoustic and diffusive step bounds.

    A batch state gets one step per member, shaped like its times.
    """
    grid = config.grid
    sc = config.scaling
    cells = tuple(range(-grid.dim, 0))
    batch = np.ndim(state.time) > 0
    # the accepted state was validated and theta recovered with its checks,
    # so the closures' private bodies serve: the same bits, no second check
    c = np.sqrt(thermo._sound_speed_sq(config.gas, sc.a, state.rho, theta))
    u = state.velocity()
    dt = math.inf
    for ax in range(grid.dim):
        dt = np.minimum(dt, np.min(grid.spacing[ax] / (np.abs(u[ax]) + c),
                                   axis=cells, keepdims=batch))
    _, no_nu, no_omega, _ = sc.zeros
    if not (no_nu and no_omega):
        diff = np.zeros_like(state.rho)
        if not no_nu:
            diff = np.maximum(diff, sc.nu * config.transport.mu(theta) / state.rho)
        if not no_omega:
            cv = thermo._cv_molecular(config.gas, state.rho, theta)
            diff = np.maximum(diff, sc.omega * config.transport.kappa(theta) / (state.rho * cv))
        d_max = np.max(diff, axis=cells, keepdims=batch)
        dx2 = min(h * h for h in grid.spacing)
        # a member without diffusion (d_max = 0) gets no bound from it
        dt = np.minimum(dt, np.divide(dx2, 2.0 * grid.dim * d_max,
                                      out=np.full_like(d_max, np.inf), where=d_max > 0.0))
    dt = dt * config.cfl
    if not np.all((dt > 0.0) & np.isfinite(dt)):
        raise DomainError(f"stable_dt produced {dt}")
    return dt if batch else float(dt)


def _apply_floors(W, config: NsfRunConfig):
    """Clip density and temperature of the stacked W from below, in place;
    returns the number of hits, one count per member for a batch."""
    rho_floor, theta_floor = config.positivity_floor
    cells = tuple(range(-config.grid.dim, 0))
    rho = W[0]
    hits = np.sum(rho < rho_floor, axis=cells)
    np.maximum(rho, rho_floor, out=rho)
    ke = 0.5 * np.sum(W[1:-1] * W[1:-1], axis=0) / rho
    e_int = W[-1] - ke
    # the floor temperature as a 0-d array: its powers then run numpy's
    # array loops, as on a full field of it, whose bits can differ from
    # those of Python's scalar powers
    e_min = thermo._internal_energy_density(config.gas, config.scaling.a, rho,
                                            np.asarray(theta_floor))
    cold = e_int < e_min
    hits = hits + np.sum(cold, axis=cells)
    if np.any(cold):
        W[-1] = np.where(cold, ke + e_min, W[-1])
    return hits


def ssp_rk3(state: gf.FluidState, dt, rhs, stage_map=None) -> gf.FluidState:
    """One SSP-RK3 step (Shu-Osher form, Gottlieb & Shu 1998) of dW/dt = rhs(W).

    `rhs(state)` returns the tendency stacked like `state.W`.  Each stage
    computes its own new W, which `stage_map(W)`, when given, modifies in
    place before the stage state is built on it; the input state is never
    written.  The two intermediate stages are not validated
    (`FluidState.stage`): a non-finite or non-positive value there reaches
    `rhs`, whose temperature recovery raises DomainError or
    PositivityError on it.  The returned state, the accepted one, is
    validated (`FluidState.stacked`).  For a batch state, dt holds one
    step per member, shaped like its times.
    """
    def new_W(s, frac_old):
        W = dt * rhs(s)
        W += s.W                                 # s.W + dt * rhs(s)
        if frac_old > 0.0:
            W *= 1.0 - frac_old
            W += frac_old * state.W              # frac_old W_0 + (1 - frac_old) W
        if stage_map is not None:
            stage_map(W)
        return W

    t = state.time
    s1 = gf.FluidState.stage(new_W(state, 0.0), t + dt)
    s2 = gf.FluidState.stage(new_W(s1, 0.75), t + 0.5 * dt)
    return gf.FluidState.stacked(new_W(s2, 1.0 / 3.0), t + dt)


def step(state: gf.FluidState, dt, config: NsfRunConfig,
         stats=None, forcing=None, theta=None) -> gf.FluidState:
    """One SSP-RK3 step; positivity floors applied and counted per stage.

    `theta`, when given, is the state's temperature and serves the first
    stage.  `stats` is a StepStats, or for a batch state a list of them,
    one per member; dt then holds one step per member.
    """
    hits = 0

    def floors(W):
        nonlocal hits
        hits = hits + _apply_floors(W, config)

    out = ssp_rk3(state, dt, lambda s: rhs_nsf(s, config, forcing, theta if s is state else None),
                  floors)
    if stats is not None:
        cells = math.prod(config.grid.cells)
        for st, h in zip(stats if isinstance(stats, list) else [stats], np.ravel(hits)):
            st.record(int(h), cells)
    return out


# ---------------------------------------------------------------------------
# entropy production


def entropy_production(state: gf.FluidState, theta, config: NsfRunConfig):
    """Pointwise sigma = (1/theta)(S : grad u - q . grad theta / theta) and its integral.

    Both contributions are nonnegative by construction:
    S : grad u = nu [ (mu/2) |A|^2 + eta (div u)^2 ] and -q . grad theta =
    omega kappa |grad theta|^2.  A batch state gives one integral per
    member, shaped like its times.
    """
    grid = config.grid
    sc = config.scaling
    tr = config.transport
    G = gf.interior_gradient(state.velocity(), grid, vector=True)  # G[i,j]
    div = np.trace(G, axis1=0, axis2=1)
    grad_theta = gf.interior_gradient(theta, grid, vector=False)
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


def _damping_rate(state: gf.FluidState, config: NsfRunConfig):
    u = state.velocity()
    return config.scaling.lam * gf.integrate(np.sum(u * u, axis=0), config.grid)


def _advance(state, theta, config: NsfRunConfig, stats, forcing):
    """One step to an accepted state: (state, theta, None), or, when it
    aborts, (the last state reached, None, the error)."""
    try:
        dt = np.minimum(stable_dt(state, theta, config), config.t_end - state.time)
        state = step(state, dt, config, stats=stats, forcing=forcing, theta=theta)
        theta = recover_temperature(state.rho, state.mom, state.etot, config.gas,
                                    config.scaling.a)
    except (PositivityError, DomainError) as err:
        return state, None, err
    return state, theta, None


class _Member:
    """One run of a batch: its latest accepted state, trajectory and accounts."""

    def __init__(self, config: NsfRunConfig, initial):
        gas, a = config.gas, config.scaling.a
        state = state_from_primitives(gas, a, initial)
        theta = recover_temperature(state.rho, state.mom, state.etot, gas, a)
        _check_initial_data(state, theta, config)
        self.config = config
        self.traj = Trajectory(config=config)
        self.stats = StepStats()
        self.damping = gf.TrapezoidAccumulator()
        self.sigma = gf.TrapezoidAccumulator()
        self.steps = 0
        self.state, self.theta = state, theta
        self.damping.add(state.time, _damping_rate(state, config))
        self.sigma.add(state.time, entropy_production(state, theta, config)[1])
        self._record()

    @property
    def done(self) -> bool:
        return self.traj.aborted or self.state.time >= self.config.t_end - 1e-14

    def _record(self):
        s, theta, grid = self.state, self.theta, self.config.grid
        self.traj.times.append(s.time)
        self.traj.states.append(s.copy())
        self.traj.thetas.append(theta)
        self.traj.rows.append((
            s.time,
            gf.integrate(s.rho, grid),
            gf.integrate(s.etot, grid),
            self.damping.total,
            self.sigma.total,
            float(np.min(s.rho)),
            float(np.min(theta)),
            self.stats.floor_hits,
        ))

    def accept(self, state, theta, stats: StepStats, damping_rate, sigma_total):
        """Account one step to `state`; store it every output_stride steps and at t_end."""
        self.stats.record(stats.floor_hits, math.prod(self.config.grid.cells))
        self.state, self.theta = state, theta
        self.damping.add(state.time, damping_rate)
        self.sigma.add(state.time, sigma_total)
        self.steps += 1
        if self.steps % self.config.output_stride == 0 or self.done:
            self._record()

    def abort(self, state, err, stats: StepStats):
        """End the run at `state` (the last one its failed step reached)."""
        self.stats.record(stats.floor_hits, math.prod(self.config.grid.cells))
        self.traj.aborted = True
        self.traj.healthy = False
        self.traj.health_reason = f"aborted at t={state.time}: {err}"
        self.traj.abort_state = state

    def advance_alone(self, forcing):
        """One step of this member by itself, from a copy of its state."""
        stats = StepStats()
        state, theta, err = _advance(self.state.copy(), self.theta.copy(), self.config,
                                     stats, forcing)
        if err is not None:
            self.abort(state, err, stats)
            return
        self.accept(state, theta, stats, _damping_rate(state, self.config),
                    entropy_production(state, theta, self.config)[1])

    def finish(self) -> Trajectory:
        self.traj.floor_hits = self.stats.floor_hits
        if self.stats.unhealthy:
            self.traj.healthy = False
            self.traj.health_reason = self.traj.health_reason or self.stats.reason
        return self.traj


def _pack(members):
    """The members' latest states as one batch: (state, theta, run config).

    A lone member is not batched: its own state (as a fresh copy), theta
    and config.  Otherwise W, theta and the scaling values gain a member
    axis, in member order.
    """
    if len(members) == 1:
        m = members[0]
        return m.state.copy(), m.theta.copy(), m.config
    shape = (len(members),) + (1,) * members[0].config.grid.dim
    state = gf.FluidState.stacked(np.stack([m.state.W for m in members], axis=1),
                                  np.reshape([m.state.time for m in members], shape))
    scaling = thermo.ScalingParams(*(
        np.reshape([getattr(m.config.scaling, name) for m in members], shape)
        for name in ("a", "nu", "omega", "lam")))
    return (state, np.stack([m.theta for m in members]),
            replace(members[0].config, scaling=scaling))


def _member_of(state: gf.FluidState, theta, k: int):
    """Member k of a batch state and its theta (views); a lone state passes through."""
    if np.ndim(state.time) == 0:
        return state, theta
    return state.member(k), theta[k]


def _check_batch(configs: list, forcing) -> None:
    if not configs:
        raise UsageError("a batch needs at least one run config")
    first = configs[0]
    for c in configs[1:]:
        if replace(c, scaling=first.scaling) != first:
            raise UsageError("batch members must share their run config "
                             "(the same gas, transport and grid objects) except the scaling")
        if c.scaling.zeros != first.scaling.zeros:
            raise UsageError("batch members must agree on which of a, nu, omega "
                             "and lambda are zero")
    if forcing is not None and len(configs) > 1:
        raise UsageError("a forcing applies to a batch of one member only")


def simulate_batch(configs, initial, forcing=None) -> list:
    """Run every config from the same initial data as one batch; one Trajectory each.

    The members share their run config except the scaling values, and the
    scalings agree on which of a, nu, omega and lambda are zero, so every
    kernel branch runs for all members or for none; anything else is a
    UsageError.  One time loop advances the live members together: each
    step is one `stable_dt` (one dt per member), one `step` (one
    `rhs_nsf` and one floor pass per stage) and one `entropy_production`
    call.  Each member keeps its own time, step count, stored instants,
    floor counter and health, and leaves the batch at t_end.  A step that
    raises PositivityError or DomainError is redone one member at a time:
    a member that fails alone aborts with exactly the message `simulate`
    gives it, the others go on.  Every member's trajectory is bitwise the
    one `simulate` gives for its config alone.  `forcing` needs a batch of
    one.
    """
    configs = list(configs)
    _check_batch(configs, forcing)
    members = [_Member(cfg, initial) for cfg in configs]
    keep_heap_pages(len(members) * members[0].state.W.nbytes)
    live = [m for m in members if not m.done]
    while live:
        state, theta, config = _pack(live)
        while True:  # until a member leaves
            stats = [StepStats() for _ in live]
            new, new_theta, err = _advance(state, theta, config,
                                           stats if len(live) > 1 else stats[0], forcing)
            if err is None:
                rates = np.ravel(_damping_rate(new, config))
                sigmas = np.ravel(entropy_production(new, new_theta, config)[1])
                for k, m in enumerate(live):
                    m.accept(*_member_of(new, new_theta, k), stats[k], rates[k], sigmas[k])
                state, theta = new, new_theta
            elif len(live) == 1:
                live[0].abort(new, err, stats[0])
            else:
                for m in live:
                    m.advance_alone(forcing)
            if err is not None or any(m.done for m in live):
                break
        live = [m for m in live if not m.done]
    return [m.finish() for m in members]


def simulate(config: NsfRunConfig, initial, forcing=None) -> Trajectory:
    """Run to t_end, recording diagnostics and snapshots every output_stride steps.

    `initial` is either a FluidState or a primitive triple (rho, theta, u).
    The run aborts (trajectory.aborted, with the offending state attached)
    on positivity failure or non-finite values; floor activations above
    0.1% of cells in any step mark it unhealthy but let it continue.  This
    is the batch of one of `simulate_batch`.
    """
    return simulate_batch([config], initial, forcing)[0]
