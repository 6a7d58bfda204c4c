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
the same way.  `ssp_rk3` is the one SSP-RK3 stepper of the package, of
`step` (with positivity floors on every stage) and of the inviscid
reference in `euler_reference`.

`recover_temperature` is the one path from conservative fields to theta in
both solvers: etot minus `grid_fields._kinetic`, then the package's one
inversion, `thermo.admissible_temperature`.  The time loop recovers each
accepted state's theta once and passes it to `stable_dt`, the first RK
stage of the next step, `entropy_production` and the recorded
diagnostics.  A `Trajectory` stacks its stored states in one `W`
(`grid_fields.StoredRun`) and their thetas in one array of shape
(instants, *cells), each stacked once when the run ends.

Each check runs once, where the value it checks is formed, as one
`np.count_nonzero`: `recover_temperature`'s internal energy proves rho > 0
and e > 0 (naming the first bad cell), `_face_states` proves the same of
the faces, and the one inversion entry behind both,
`thermo.admissible_temperature`, checks only finiteness; `stable_dt`
takes a recovered theta, so it checks nothing again.  The floor pass of
each stage (`_floor_pass`) forms the internal energy of the floored
state, and where no cell is cold it proves rho >= rho_floor > 0 and
e >= e_min > 0: the next recovery, of the stage or of the accepted state,
inverts that array with no check but finiteness, and the accepted state's
validation checks only finiteness too (`ssp_rk3`).  Each stage inverts its
cells (from the second stage on) and every axis's faces in one call
(`_convective`), each member's part its own segment, so a step makes four
inversions: three stages and the accepted state.  What every step of a
run reads from its config (the reconstruction order, which dissipation
terms run, the spacings, the floor energy's coefficients, the scalings as
arrays) is resolved on the config's first step (`_Kernel`); `_pack`
builds one config per batch composition, so that happens once per
composition, not on every call.
Scalars that meet whole fields are 0-d arrays (`thermo._0D`), which give
the bits of the floats without numpy's per-call conversion of a Python
float; the step path computes the same ufunc operations in the same
order as the checked public closures, so its bytes are theirs.

`simulate_batch` is the one time loop: it advances runs that differ only
in their scalings as one batch on a member axis of W, each member bitwise
its run alone, and `simulate` is its batch of one.

All fluxes are written as face differences, so mass is conserved to
round-off on periodic boxes and across slip walls (the mirror ghosts make
every wall-normal mass, energy and heat flux vanish identically).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import grid_fields as gf
from . import thermo
from .errors import ConfigError, DomainError, PositivityError, UsageError

_GHOST_DEPTH = 2  # central-slope reconstruction needs two layers
_0D = thermo._0D  # scalar constants as 0-d arrays: the bits of the floats, less overhead


def check_run_settings(config) -> None:
    """ConfigError unless config's cfl, t_end and output_stride, the settings
    that both solvers' run configs share, are admissible; stores
    output_stride as an int."""
    if not (0.0 < config.cfl <= 0.9):
        raise ConfigError(f"cfl must lie in (0, 0.9], got {config.cfl}")
    if not (config.t_end > 0.0 and math.isfinite(config.t_end)):
        raise ConfigError(f"t_end must be positive and finite, got {config.t_end}")
    if int(config.output_stride) < 1:
        raise ConfigError(f"output_stride must be at least 1, got {config.output_stride}")
    object.__setattr__(config, "output_stride", int(config.output_stride))


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

    def __post_init__(self):
        check_run_settings(self)
        rf, tf = self.positivity_floor
        if not (rf > 0.0 and tf > 0.0):
            raise ConfigError(f"positivity floors must be positive, got {self.positivity_floor}")
        object.__setattr__(self, "positivity_floor", (float(rf), float(tf)))

    @cached_property
    def _kernel(self) -> "_Kernel":
        return _Kernel(self)


class _Kernel:
    """The constants of one run config that every step reads, resolved on
    the config's first step.  `_pack` builds one config per batch
    composition, so they are resolved once per composition, not per call."""

    def __init__(self, config: NsfRunConfig):
        grid, sc = config.grid, config.scaling
        self.dim = grid.dim
        self.axes = tuple(range(-self.dim, 0))  # a field's grid axes
        self.cells = math.prod(grid.cells)
        self.interior = (Ellipsis,) + (slice(_GHOST_DEPTH, -_GHOST_DEPTH),) * self.dim
        # central slopes; plain cell values when the run is purely inviscid
        self.order = 1 if all(sc.zeros) else 2
        _, no_nu, no_omega, no_lam = sc.zeros
        self.viscous, self.conductive, self.damped = not no_nu, not no_omega, not no_lam
        self.dx2 = min(h * h for h in grid.spacing)
        # the scalars the kernels apply to whole fields, as 0-d arrays
        # (thermo._0D); a batch's scaling values are arrays already
        self.spacing = tuple(np.asarray(h) for h in grid.spacing)
        self.nu, self.lam = np.asarray(sc.nu), np.asarray(sc.lam)
        self.omega, self.neg_omega = np.asarray(sc.omega), np.asarray(-sc.omega)
        self.rho_floor = np.asarray(config.positivity_floor[0])
        # a floor pass's hits where none is below the density floor: the
        # reduction of a member field's mask with no cell set
        self.no_hits = np.add.reduce(np.zeros(np.shape(sc.a)[:1] + grid.cells, dtype=bool),
                                     axis=self.axes)
        # the floor temperature as a 0-d array: its powers then run numpy's
        # array loops, as on a full field of it, whose bits can differ from
        # those of Python's scalar powers; e_min = c P(rho z) + r is
        # thermo._internal_energy_density at it, term by term
        theta_floor = np.asarray(config.positivity_floor[1])
        self.floor_energy = tuple(np.asarray(v) for v in (
            1.5 * theta_floor ** 2.5, theta_floor ** -1.5, sc.a * theta_floor ** 4))
        # whether e_min > 0 wherever rho >= rho_floor: for the ideal law's
        # P(Z) = Z, e_min >= scale (rho_floor z_floor) + radiation, rounding
        # being monotone and the radiation term nonnegative (`_floor_pass`)
        scale, z_floor, _ = self.floor_energy
        self.floor_proves = (config.gas.P is thermo._ideal_P
                             and bool(scale * (self.rho_floor * z_floor) > _0D[0.0]))


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
    if np.count_nonzero(rho <= _0D[0.0]):
        where = tuple(int(i) for i in np.argwhere(rho <= 0.0)[0][sides:])
        raise PositivityError(f"non-positive density at cell {where}", where=where)
    e_int = gf._kinetic(rho, mom)
    np.subtract(etot, e_int, e_int)  # etot - 0.5 sum(mom^2) / rho
    if np.count_nonzero(e_int <= _0D[0.0]):
        where = tuple(int(i) for i in np.argwhere(e_int <= 0.0)[0][sides:])
        raise PositivityError(f"non-positive internal energy at cell {where}", where=where)
    return e_int


def recover_temperature(rho, mom, etot, gas: thermo.GasModel, a: float, e_int=None):
    """Temperature from conservative field arrays; aborts naming the first bad cell.

    `_internal_energy` proves rho > 0 and e_int > 0 (PositivityError
    otherwise), so the inversion checks only finiteness
    (`thermo.admissible_temperature`, DomainError).  `e_int`, when given,
    is etot minus the kinetic energy as a floor pass formed it and proved
    positive (`_floor_pass`), so it is not formed or checked again.  For a
    batch, a holds one value per member.
    """
    if e_int is None:
        e_int = _internal_energy(rho, mom, etot)
    return thermo.admissible_temperature(gas, a, rho, e_int)


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
    WLR = np.empty((W.shape[0], 2, *W.shape[1:-1], n + 1))
    if order == 1:
        WLR[:, 0] = WL1
        WLR[:, 1] = WR1
    else:
        half = np.subtract(W[..., 2:], W[..., :-2])  # cell j+1 of ghost frame
        half *= _0D[0.5]
        half *= _0D[0.5]                              # halved twice: 0.5 * slope's bits
        np.add(WL1, half[..., lo - 1:hi - 1], WLR[:, 0])
        np.subtract(WR1, half[..., lo:hi], WLR[:, 1])
        # etot minus the kinetic energy, as in _internal_energy; a face
        # without positive density is left undivided and marked bad
        rho = WLR[0]
        e_int = gf._kinetic(rho, WLR[1:-1], rho > _0D[0.0])
        np.subtract(WLR[-1], e_int, e_int)
        bad = rho <= _0D[0.0]
        bad |= e_int <= _0D[0.0]
        if not np.count_nonzero(bad):
            return WLR, e_int
        np.copyto(WLR[:, 0], WL1, where=bad[0])
        np.copyto(WLR[:, 1], WR1, where=bad[1])
    return WLR, _internal_energy(WLR[0], WLR[1:-1], WLR[-1], 1)


def _rusanov(gas, a, WLR, theta, ax, dx):
    """Rusanov flux differences along the last axis, divided by dx: minus
    the axis's contribution to dW/dt.

    WLR are `_face_states`'s and theta their temperature; one closure call
    serves both sides, bitwise `thermo.face_closures`, and checks only
    c_v (`thermo._closures_at`).  The flux sums both sides component by
    component, in the order of F(left) + F(right) with
    F = (m_n, m u_n + p e_n, (E + p) u_n), and the dissipation
    0.5 max(|u_n| + c) (right - left) is applied in place.
    """
    rho = WLR[0]
    mn = WLR[1 + ax]
    _, p, c = thermo._closures_at(gas, a, rho, theta)
    np.sqrt(c, c)
    un = mn / rho
    F = np.empty((WLR.shape[0], *un.shape[1:]))
    np.add(mn[0], mn[1], F[0])
    for k in range(1, WLR.shape[0] - 1):
        Fk = WLR[k] * un
        if k == 1 + ax:
            Fk += p
        np.add(Fk[0], Fk[1], F[k])
    Fk = WLR[-1] + p
    Fk *= un
    np.add(Fk[0], Fk[1], F[-1])
    F *= _0D[0.5]
    np.abs(un, un)
    un += c                                   # |u_n| + c on each side
    smax = np.maximum(un[0], un[1])
    smax *= _0D[0.5]
    D = np.subtract(WLR[:, 1], WLR[:, 0])
    D *= smax
    F -= D
    dF = np.subtract(F[..., 1:], F[..., :-1])
    dF /= dx
    return dF


def _convective(gas, a, grid, W_g, order, cells=None):
    """(minus the flux divergence, the cells' theta): the Rusanov fluxes of
    every axis's faces, and with `cells` = (rho, e_int) the temperature of
    the cells, otherwise None.

    The cells and every axis's faces are inverted in one call
    (`thermo.admissible_temperature`), one segment per part and member.
    When that or a face's check fails, the parts are recovered again one
    at a time (`_recover_in_order`), so that what raises is what separate
    recoveries raise first.
    """
    dim = grid.dim
    try:
        faces = [_face_states(gf.axis_strip(W_g, grid, ax, _GHOST_DEPTH), grid.cells[ax], order)
                 for ax in range(dim)]
        parts = ([] if cells is None else [cells]) + [(WLR[0], e_int) for WLR, e_int in faces]
        rhos, es = zip(*parts)
        thetas = thermo.admissible_temperature(gas, a, rhos, es)
    except (PositivityError, DomainError):
        _recover_in_order(gas, a, grid, W_g, order, cells)
        raise
    out = np.zeros(W_g.shape[:-dim] + grid.cells)
    for ax, (WLR, _) in enumerate(faces):
        # out - dF is out + (-dF) bitwise; swapping back undoes axis_strip's swap
        o = out.swapaxes(-1, ax - dim)
        np.subtract(o, _rusanov(gas, a, WLR, thetas[ax - dim], ax, grid.spacing[ax]), o)
    return out, None if cells is None else thetas[0]


def _recover_in_order(gas, a, grid, W_g, order, cells):
    """`_convective`'s recoveries one at a time, in the order of their
    checks: the cells, then each axis's faces with their closures
    (`thermo.face_closures`); raises what the first failing check raises."""
    if cells is not None:
        thermo.admissible_temperature(gas, a, *cells)
    for ax in range(grid.dim):
        WLR, e_int = _face_states(gf.axis_strip(W_g, grid, ax, _GHOST_DEPTH),
                                  grid.cells[ax], order)
        thermo.face_closures(gas, a, WLR[0], e_int)


def _face_avg(x):
    avg = np.add(x[..., 1:], x[..., :-1])
    avg *= _0D[0.5]
    return avg


def _face_diff(x, dx):
    diff = np.subtract(x[..., 1:], x[..., :-1])
    diff /= dx
    return diff


def _diffusive(config: NsfRunConfig, grid, u_g, theta_g, dmom, detot):
    """Viscous stress and heat-flux face differences, accumulated in place.

    Each face quantity is formed in place on this function's own
    temporaries, never on what a transport law returns, in the operations
    and order of the expressions noted beside it.
    """
    tr = config.transport
    k = config._kernel
    dim = grid.dim
    d = _GHOST_DEPTH
    for ax in range(dim):
        dx = k.spacing[ax]
        # strips: axis ax keeps one of its d = 2 ghost layers on each side,
        # the other axis is interior; tangential derivatives need +-1 there
        th = gf.axis_strip(theta_g, grid, ax, d)[..., 1:-1]
        th_f = _face_avg(th)
        mu_f = tr.mu(th_f)
        eta_f = tr.eta(th_f)
        u = gf.axis_strip(u_g, grid, ax, d)[..., 1:-1]  # (dim, ..., n+2)
        dun_f = _face_diff(u[ax], dx)  # d u_ax / d x_ax at faces
        flux = k.neg_omega * tr.kappa(th_f)
        flux *= _face_diff(th, dx)      # q_f = -omega kappa d theta / dx
        np.negative(flux, flux)         # the energy flux, -q_f so far

        if dim == 1:
            S_f = _0D[4.0 / 3.0] * mu_f
            S_f += eta_f
            S_f *= k.nu
            S_f *= dun_f                # nu ((4/3) mu + eta) du_n/dx
            visc_mom = ((ax, S_f),)
        else:
            t_ax = 1 - ax
            dy = grid.spacing[t_ax]
            # cell-centered tangential derivatives on the extended strip
            u_t = gf.axis_strip(u_g, grid, ax, d, widen=1)[..., 1:-1]
            # derivative along t_ax: that axis is now the one non-moved grid axis
            dut = np.subtract(u_t[..., 2:, :], u_t[..., :-2, :])
            dut /= 2.0 * dy
            dut_f = _face_avg(dut)  # (dim, ..., n+1): d u_c / d x_t at faces
            dutan_f = _face_diff(u[t_ax], dx)  # d u_t / d x_ax at faces
            # S_nn = nu (((4/3) mu + eta) du_n + (eta - (2/3) mu) du_t[t_ax])
            S_nn = _0D[4.0 / 3.0] * mu_f
            S_nn += eta_f
            S_nn *= dun_f
            dil = eta_f - _0D[2.0 / 3.0] * mu_f
            dil *= dut_f[t_ax]
            S_nn += dil
            S_nn *= k.nu
            # S_nt = nu mu (du_t/dx_ax + du_t[ax])
            dutan_f += dut_f[ax]
            S_nt = k.nu * mu_f
            S_nt *= dutan_f
            visc_mom = ((ax, S_nn), (t_ax, S_nt))

        u_f = _face_avg(u)
        for comp, S_comp in visc_mom:
            flux += S_comp * u_f[comp]
            dmom[comp] += _face_diff(S_comp, dx).swapaxes(-1, ax - dim)
        detot += _face_diff(flux, dx).swapaxes(-1, ax - dim)


def rhs_nsf(state: gf.FluidState, config: NsfRunConfig, theta=None, e_int=None):
    """Tendency dW/dt of the dissipative system, stacked like the state's W.

    The system has no body force.  `theta`, when given, is the state's
    temperature, already recovered by the caller.  Otherwise it is
    recovered as `recover_temperature` recovers it, `e_int` included, in
    the one inversion of the faces (`_convective`).  A batch state (see
    `simulate_batch`) advances every member with its own scaling values.
    """
    grid = config.grid
    gas = config.gas
    sc = config.scaling
    k = config._kernel

    cells = None
    if theta is None:
        rho = state.rho
        cells = (rho, _internal_energy(rho, state.mom, state.etot) if e_int is None else e_int)
    W_g = gf.fill_ghosts_slip(state, grid, depth=_GHOST_DEPTH)

    out, cell_theta = _convective(gas, sc.a, grid, W_g, k.order, cells)
    if theta is None:
        theta = cell_theta
    dmom = out[1:-1]
    detot = out[-1]

    u = None
    if k.viscous or k.conductive:
        theta_g = gf.fill_ghosts_slip(theta, grid, depth=_GHOST_DEPTH)
        u_g = W_g[1:-1] / W_g[0]
        _diffusive(config, grid, u_g, theta_g, dmom, detot)
        # the velocity's division wherever rho > 0, which the faces proved
        u = u_g[k.interior]

    if k.damped:
        if u is None:
            u = state.velocity()
        dmom -= k.lam * u
        damping = gf._sum_sq(u)
        damping *= k.lam                # lambda |u|^2
        detot -= damping
    return out


# ---------------------------------------------------------------------------
# time stepping


def stable_dt(state: gf.FluidState, theta, config: NsfRunConfig):
    """cfl times the smaller of the acoustic and diffusive step bounds.

    `theta` is the state's temperature, recovered with its checks, so the
    density is positive.  A batch state gets one step per member, shaped
    like its times.
    """
    sc = config.scaling
    k = config._kernel
    batch = isinstance(state.time, np.ndarray)  # FluidState keeps a lone time as a float
    rho = state.rho
    # the closures' private body serves, with no second check; its c_v is
    # the one of the diffusive bound below, bitwise
    c, cv = thermo._sound_speed_sq_cv(config.gas, sc.a, rho, theta)
    np.sqrt(c, c)
    u = state.mom / rho  # the velocity, rho > 0
    dt = math.inf
    for ax, h in enumerate(k.spacing):
        speed = np.abs(u[ax])
        speed += c
        np.divide(h, speed, speed)  # h / (|u| + c)
        dt = np.minimum(dt, np.minimum.reduce(speed, axis=k.axes, keepdims=batch))
    if k.viscous or k.conductive:
        diff = np.zeros_like(rho)
        if k.viscous:
            bound = k.nu * config.transport.mu(theta)
            bound /= rho
            np.maximum(diff, bound, out=diff)
        if k.conductive:
            bound = k.omega * config.transport.kappa(theta)
            cv *= rho
            bound /= cv
            np.maximum(diff, bound, out=diff)
        d_max = np.maximum.reduce(diff, axis=k.axes, keepdims=batch)
        # a member without diffusion (d_max = 0) gets no bound from it
        dt = np.minimum(dt, np.divide(k.dx2, 2.0 * k.dim * d_max,
                                      out=np.full_like(d_max, np.inf), where=d_max > _0D[0.0]))
    dt = dt * config.cfl
    if batch:
        admissible = np.count_nonzero((dt > 0.0) & np.isfinite(dt)) == dt.size
    else:
        dt = float(dt)
        admissible = dt > 0.0 and math.isfinite(dt)
    if not admissible:
        raise DomainError(f"stable_dt produced {dt}")
    return dt


def _floor_pass(W, config: NsfRunConfig):
    """Clip density and temperature of the stacked W from below, in place:
    (hits, e_int), with the number of hits one count per member for a batch.

    The pass forms W's internal energy e_int = etot - |mom|^2 / (2 rho),
    bitwise `recover_temperature`'s, to find the cold cells.  Where none is
    cold and the floor energy is provably positive (`_Kernel.floor_proves`),
    every cell has rho >= rho_floor > 0 and e_int >= e_min > 0, or a NaN
    that the inversion's finiteness check catches, and e_int is handed
    over; otherwise it is None, and the next recovery forms and checks its
    own.
    """
    k = config._kernel
    rho = W[0]
    below = rho < k.rho_floor
    hits = np.add.reduce(below, axis=k.axes) if np.count_nonzero(below) else k.no_hits
    np.maximum(rho, k.rho_floor, out=rho)
    ke = gf._kinetic(rho, W[1:-1])
    e_int = W[-1] - ke
    # the internal energy density at the floor temperature
    scale, z_floor, radiation = k.floor_energy
    e_min = scale * thermo._P_at(config.gas, rho * z_floor)
    e_min += radiation
    cold = e_int < e_min
    if np.count_nonzero(cold):
        hits = hits + np.add.reduce(cold, axis=k.axes)
        W[-1] = np.where(cold, ke + e_min, W[-1])
        return hits, None
    return hits, e_int if k.floor_proves else None


def ssp_rk3(state: gf.FluidState, dt, rhs, stage_map=None) -> gf.FluidState:
    """One SSP-RK3 step (Shu-Osher form, Gottlieb & Shu 1998) of dW/dt = rhs(W).

    `rhs(state)` returns the tendency stacked like `state.W`.  Each stage
    computes its own new W, which `stage_map(W)`, when given, modifies in
    place before the stage state is built on it; the input state is never
    written.  The two intermediate stages are not validated
    (`FluidState.stage`): a non-finite or non-positive value there reaches
    `rhs`, whose temperature recovery raises DomainError or
    PositivityError on it.  The returned state, the accepted one, is
    validated (`FluidState.stacked`), for finiteness alone where
    `stage_map` returned true: that it proved its density and internal
    energy positive wherever W is finite.  For a batch state, dt holds one
    step per member, shaped like its times.
    """
    def new_W(s, frac_old):
        W = dt * rhs(s)
        W += s.W                                 # s.W + dt * rhs(s)
        if frac_old > 0.0:
            W *= 1.0 - frac_old
            W += frac_old * state.W              # frac_old W_0 + (1 - frac_old) W
        return W, stage_map is not None and bool(stage_map(W))

    t = state.time
    s1 = gf.FluidState.stage(new_W(state, 0.0)[0], t + dt)
    s2 = gf.FluidState.stage(new_W(s1, 0.75)[0], t + 0.5 * dt)
    W, positive = new_W(s2, 1.0 / 3.0)
    return gf.FluidState.stacked(W, t + dt, positive)


def step(state: gf.FluidState, dt, config: NsfRunConfig,
         stats=None, theta=None) -> gf.FluidState:
    """One SSP-RK3 step of `rhs_nsf`; positivity floors applied and counted per stage.

    `theta`, when given, is the state's temperature and serves the first
    stage.  `stats` is a StepStats, or for a batch state a list of them,
    one per member; dt then holds one step per member.
    """
    return _step(state, dt, config, stats, theta)[0]


def _step(state, dt, config: NsfRunConfig, stats, theta):
    """`step`: (the accepted state, its internal energy as its floor pass
    handed it over, or None).  Each later stage's recovery takes the
    internal energy of the floor pass that made the stage (`_floor_pass`),
    and an accepted state whose floor pass proved it positive is checked
    for finiteness alone (`ssp_rk3`)."""
    hits = 0
    proven = (None, None)  # W and e_int of the latest floor pass

    def floors(W):
        nonlocal hits, proven
        h, e_int = _floor_pass(W, config)
        hits = hits + h
        proven = (W, e_int)
        return e_int is not None

    def rhs(s):
        if s is state:
            return rhs_nsf(s, config, theta)
        return rhs_nsf(s, config, e_int=proven[1] if proven[0] is s.W else None)

    out = ssp_rk3(state, dt, rhs, floors)
    if stats is not None:
        cells = config._kernel.cells
        for st, h in zip(stats if isinstance(stats, list) else [stats], np.ravel(hits)):
            st.record(int(h), cells)
    return out, proven[1] if proven[0] is out.W else None


# ---------------------------------------------------------------------------
# entropy production


def entropy_production(state: gf.FluidState, theta, config: NsfRunConfig, u=None):
    """Pointwise sigma = (1/theta)(S : grad u - q . grad theta / theta) and its integral.

    Both contributions are nonnegative by construction:
    S : grad u = nu [ (mu/2) |A|^2 + eta (div u)^2 ] and -q . grad theta =
    omega kappa |grad theta|^2.  A batch state gives one integral per
    member, shaped like its times.  `u`, when given, is the state's
    velocity.
    """
    grid = config.grid
    sc = config.scaling
    tr = config.transport
    if u is None:
        u = state.velocity()
    G = gf.interior_gradient(u, grid, vector=True)  # G[i,j]
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


@dataclass(eq=False)  # compared by identity: its stored fields are arrays
class Trajectory(gf.StoredRun):
    """Recorded output instants of one run plus health accounting.

    W[:, k] is the state stored at times[k] and thetas[k] its temperature,
    recovered once when it is stored or loaded, for the per-run reports.
    """

    config: NsfRunConfig
    times: list = field(default_factory=list)
    W: np.ndarray = None
    thetas: np.ndarray = None
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


def _damping_rate(u, config: NsfRunConfig):
    """lambda times the integral of |u|^2; one per member of a batch velocity."""
    return config.scaling.lam * gf.integrate(np.sum(u * u, axis=0), config.grid)


_RATE_BLOCK_CELLS = 4096  # cells of the states one `_Member._rates` call takes at most


def _advance(state, theta, config: NsfRunConfig, stats):
    """One step to an accepted state: (state, theta, None), or, when it
    aborts, (the last state reached, None, the error)."""
    try:
        dt = np.minimum(stable_dt(state, theta, config), config.t_end - state.time)
        state, e_int = _step(state, dt, config, stats, theta)
        theta = recover_temperature(state.rho, state.mom, state.etot, config.gas,
                                    config.scaling.a, e_int)
    except (PositivityError, DomainError) as err:
        return state, None, err
    return state, theta, None


class _Member:
    """One run of a batch: its latest accepted state, trajectory and accounts.

    The damping rate and entropy production of each accepted state feed
    the trapezoid sums that the diagnostics rows report, so they are due
    only when a row is: the member keeps its accepted states and thetas
    (references, not copies) since its last stored instant and evaluates
    both rates once over that block (`_rates`), at each stored instant, at
    an abort and whenever the block reaches _RATE_BLOCK_CELLS cells.
    """

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
        self.block = max(1, _RATE_BLOCK_CELLS // math.prod(config.grid.cells))
        self.pending = [(state, theta)]
        self.stored = []  # (W copy, theta) of each stored instant, stacked by `finish`
        self.state, self.theta = state, theta
        self._record()

    @property
    def done(self) -> bool:
        return self.traj.aborted or self.state.time >= self.config.t_end - 1e-14

    def _rates(self):
        """Add the pending states' rates to the trapezoid sums, in step order.

        The block stacks on a member axis, over which `_damping_rate` and
        `entropy_production` reduce per member: each state's numbers are
        bitwise those of a call on it alone, which a block of one is.
        """
        if not self.pending:
            return
        states, thetas = zip(*self.pending)
        self.pending = []
        if len(states) == 1:
            state, theta = states[0], thetas[0]
        else:
            shape = (len(states),) + (1,) * self.config.grid.dim
            state = gf.FluidState.stage(np.stack([s.W for s in states], axis=1),
                                        np.reshape([s.time for s in states], shape))
            theta = np.stack(thetas)
        u = state.velocity()
        damping = np.ravel(_damping_rate(u, self.config))
        sigma = np.ravel(entropy_production(state, theta, self.config, u)[1])
        for s, d, sg in zip(states, damping, sigma):
            self.damping.add(s.time, d)
            self.sigma.add(s.time, sg)

    def _record(self):
        self._rates()
        s, theta, grid = self.state, self.theta, self.config.grid
        self.traj.times.append(s.time)
        # the state was checked when its step accepted it
        self.stored.append((s.W.copy(), theta))
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

    def accept(self, state, theta, stats: StepStats):
        """Account one step to `state`; store it every output_stride steps and at t_end."""
        self.stats.record(stats.floor_hits, math.prod(self.config.grid.cells))
        self.state, self.theta = state, theta
        self.pending.append((state, theta))
        self.steps += 1
        if self.steps % self.config.output_stride == 0 or self.done:
            self._record()
        elif len(self.pending) >= self.block:
            self._rates()

    def abort(self, state, err, stats: StepStats):
        """End the run at `state` (the last one its failed step reached)."""
        self._rates()
        self.stats.record(stats.floor_hits, math.prod(self.config.grid.cells))
        self.traj.aborted = True
        self.traj.healthy = False
        self.traj.health_reason = f"aborted at t={state.time}: {err}"
        self.traj.abort_state = state

    def advance_alone(self):
        """One step of this member by itself, from a copy of its state."""
        stats = StepStats()
        state, theta, err = _advance(self.state.copy(), self.theta.copy(), self.config, stats)
        if err is not None:
            self.abort(state, err, stats)
            return
        self.accept(state, theta, stats)

    def finish(self) -> Trajectory:
        W, thetas = zip(*self.stored)
        self.traj.W, self.traj.thetas = np.stack(W, axis=1), np.stack(thetas)
        self.traj.floor_hits = self.stats.floor_hits
        if self.stats.unhealthy:
            self.traj.healthy = False
            self.traj.health_reason = self.traj.health_reason or self.stats.reason
        return self.traj


def _pack(members):
    """The members' latest states as one batch: (state, theta, run config).

    A lone member is not batched: its own state (as a fresh copy), theta
    and config.  Otherwise W, theta and the scaling values gain a member
    axis, in member order.  Each state was checked when it was built or
    accepted, so the batch is not checked again.
    """
    if len(members) == 1:
        m = members[0]
        return gf.FluidState.stage(m.state.W.copy(), m.state.time), m.theta.copy(), m.config
    shape = (len(members),) + (1,) * members[0].config.grid.dim
    state = gf.FluidState.stage(np.stack([m.state.W for m in members], axis=1),
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


def simulate_batch(configs, initial, stop=None) -> list:
    """Run every config from the same initial data as one batch; one Trajectory each.

    The members share their run config except the scaling values, and the
    scalings agree on which of a, nu, omega and lambda are zero, so every
    kernel branch runs for all members or for none; anything else is a
    UsageError.  One time loop advances the live members together: each
    step is one `stable_dt` (one dt per member) and one `step` (one
    `rhs_nsf` and one floor pass per stage).  Each member keeps its own
    time, step count, stored instants, floor counter and health, and
    leaves the batch at t_end; it evaluates the damping rate and
    `entropy_production` of its accepted states once per stored interval
    (see `_Member`).  A step that raises PositivityError or DomainError
    is redone one member at a time: a member that fails alone aborts with
    exactly the message `simulate` gives it, the others go on.  Every member's
    trajectory is bitwise the one `simulate` gives for its config alone.

    `stop`, when given, is called once before each step; when it returns
    true the loop ends there, and the trajectories hold only the instants
    stored so far (a caller that stops a batch discards it).
    """
    configs = list(configs)
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
    members = [_Member(cfg, initial) for cfg in configs]
    keep_heap_pages(len(members) * members[0].state.W.nbytes)
    live = [m for m in members if not m.done]
    while live:
        state, theta, config = _pack(live)
        while True:  # until a member leaves
            if stop is not None and stop():
                return [m.finish() for m in members]
            stats = [StepStats() for _ in live]
            new, new_theta, err = _advance(state, theta, config,
                                           stats if len(live) > 1 else stats[0])
            if err is None:
                for k, m in enumerate(live):
                    m.accept(*_member_of(new, new_theta, k), stats[k])
                state, theta = new, new_theta
            elif len(live) == 1:
                live[0].abort(new, err, stats[0])
            else:
                for m in live:
                    m.advance_alone()
            if err is not None or any(m.done for m in live):
                break
        live = [m for m in live if not m.done]
    return [m.finish() for m in members]


def simulate(config: NsfRunConfig, initial) -> Trajectory:
    """Run to t_end, recording diagnostics and snapshots every output_stride steps.

    `initial` is either a FluidState or a primitive triple (rho, theta, u).
    The run aborts (trajectory.aborted, with the offending state attached)
    on positivity failure or non-finite values; floor activations above
    0.1% of cells in any step mark it unhealthy but let it continue.  This
    is the batch of one of `simulate_batch`, with no body force (`rhs_nsf`).
    """
    return simulate_batch([config], initial)[0]
