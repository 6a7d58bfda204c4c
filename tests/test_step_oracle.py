"""The step path against a frozen copy of its earlier bodies, byte for byte.

`rhs_nsf`, `recover_temperature`, `stable_dt` and `_floor_pass` (and the
face and closure kernels under them) once ran through the checked public
thermo wrappers on every call.  The `_ref_*` functions below are those
bodies as they were, kept as the oracle of the leaner ones: every case
must give the same bytes, and every failure the same exception type and
message.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import thermo
from nsflab.errors import DomainError, ModelViolationError, PositivityError

# ---------------------------------------------------------------------------
# the oracle: the step path's bodies before per-call dispatch was resolved once


def _ref_invert_ideal(a, rho, e, rtol, max_iter, axis=None):
    if (a == 0.0) if axis is None else not a.any():
        return e / (1.5 * rho)
    c = 1.5 * rho
    th = np.minimum(e / c, (e / a) ** 0.25)
    if axis is not None:
        out = np.empty_like(th)
        live = np.arange(th.shape[axis])
        others = tuple(i for i in range(th.ndim) if i != axis)
    new, f, df = np.empty_like(th), np.empty_like(th), np.empty_like(th)
    for _ in range(max_iter):
        np.multiply(a, th, out=f)
        f *= th
        f *= th
        np.multiply(f, 4.0, out=df)
        df += c
        f += c
        f *= th
        f -= e
        f /= df
        np.subtract(th, f, out=new)
        np.subtract(new, th, out=f)
        np.abs(f, out=f)
        np.multiply(new, rtol, out=df)
        done = f <= df
        if axis is None:
            if done.all():
                return new
        else:
            done = done.all(axis=others)
            if done.any():
                out[(slice(None),) * axis + (live[done],)] = np.compress(done, new, axis=axis)
                if done.all():
                    return out
                keep = ~done
                live = live[keep]
                th, c, e = (np.compress(keep, x, axis=axis) for x in (new, c, e))
                a = np.compress(keep, a, axis=0)
                new, f, df = np.empty_like(th), np.empty_like(th), np.empty_like(th)
                continue
        th, new = new, th
    raise DomainError(f"ideal-gas temperature inversion did not converge in {max_iter} steps")


def _ref_temperature_from_energy(gas, a, rho, e_density, rtol=1e-12, max_iter=160):
    scalar = np.ndim(rho) == 0 and np.ndim(e_density) == 0
    rho_b = np.atleast_1d(np.asarray(rho, dtype=float))
    e_b = np.atleast_1d(np.asarray(e_density, dtype=float))
    if rho_b.shape != e_b.shape:
        rho_b, e_b = np.broadcast_arrays(rho_b, e_b)
    a = float(a)
    if not (np.isfinite(rho_b).all() and np.isfinite(e_b).all()):
        raise DomainError("non-finite inputs to temperature inversion")
    if (rho_b < 0.0).any():
        raise DomainError(f"negative density (min {np.min(rho_b)})")
    if (e_b <= 0.0).any():
        raise DomainError("internal energy density must be positive to recover temperature")
    if gas.law_text == "Z":
        def invert(a, r, ev, rtol, max_iter):
            return _ref_invert_ideal(a, r, ev, rtol, max_iter)
    else:
        def invert(a, r, ev, rtol, max_iter):
            return thermo._invert_molecular(gas, a, r, ev, rtol, max_iter)
    vac = rho_b == 0.0
    if not vac.any():
        theta = invert(a, rho_b, e_b, rtol, max_iter)
    else:
        if a <= 0.0:
            raise DomainError("vacuum cells carry no temperature information when a = 0")
        theta = np.empty(e_b.shape)
        theta[vac] = (e_b[vac] / a) ** 0.25
        act = ~vac
        if act.any():
            theta[act] = invert(a, rho_b[act], e_b[act], rtol, max_iter)
    return float(theta[0]) if scalar else theta


def _ref_member_temperatures(gas, a, rho, e_density, rtol=1e-12, max_iter=160):
    if np.ndim(a) == 0:
        return _ref_temperature_from_energy(gas, a, rho, e_density, rtol, max_iter)
    rho = np.asarray(rho, dtype=float)
    e = np.asarray(e_density, dtype=float)
    axis = rho.ndim - np.ndim(a)
    if (gas.law_text == "Z" and np.isfinite(rho).all() and np.isfinite(e).all()
            and (rho > 0.0).all() and (e > 0.0).all()):
        return _ref_invert_ideal(a, rho, e, rtol, max_iter, axis)
    return np.stack([_ref_temperature_from_energy(gas, float(ak), r, ek, rtol, max_iter)
                     for ak, r, ek in zip(np.ravel(a), np.moveaxis(rho, axis, 0),
                                          np.moveaxis(e, axis, 0))], axis=axis)


def _ref_sound_speed_sq_at(a, rho, theta, z, P, dP, theta3):
    stab = 2.5 * P
    stab -= 1.5 * z * dP
    cv = 1.5 * stab
    cv /= z
    if (np.asarray(cv) <= 0.0).any():
        raise ModelViolationError("c_v <= 0: closure violates thermal stability")
    num = theta ** 1.5 * stab
    num += (4.0 * a / 3.0) * theta3
    den = 4.0 * a * theta3 / rho
    den += cv
    den *= rho ** 2
    num *= num
    num *= theta
    num /= den
    num += theta * dP
    return np.maximum(num, thermo._EPS)


def _ref_face_closures(gas, a, rho, e_density):
    if not (np.isfinite(rho).all() and np.isfinite(e_density).all()):
        raise DomainError("non-finite inputs to temperature inversion")
    rtol, max_iter = 1e-12, 160
    axis = None if np.ndim(a) == 0 else rho.ndim - np.ndim(a)
    if gas.law_text == "Z":
        theta = _ref_invert_ideal(a if axis is not None else float(a), rho, e_density,
                                  rtol, max_iter, axis)
    elif axis is None:
        theta = thermo._invert_molecular(gas, float(a), rho, e_density, rtol, max_iter)
    else:
        theta = np.stack([thermo._invert_molecular(gas, float(ak), r, ek, rtol, max_iter)
                          for ak, r, ek in zip(np.ravel(a), np.moveaxis(rho, axis, 0),
                                               np.moveaxis(e_density, axis, 0))], axis=axis)
    z = thermo.Z_of(rho, theta)
    P = gas.P(z)
    p = theta ** 2.5 * P
    p += (a / 3.0) * theta ** 4
    return theta, p, _ref_sound_speed_sq_at(a, rho, theta, z, P, gas.dP(z), theta ** 3)


def _ref_internal_energy(rho, mom, etot, sides=0):
    if (rho <= 0.0).any():
        where = tuple(int(i) for i in np.argwhere(rho <= 0.0)[0][sides:])
        raise PositivityError(f"non-positive density at cell {where}", where=where)
    e_int = etot - 0.5 * np.sum(mom * mom, axis=0) / rho
    if (e_int <= 0.0).any():
        where = tuple(int(i) for i in np.argwhere(e_int <= 0.0)[0][sides:])
        raise PositivityError(f"non-positive internal energy at cell {where}", where=where)
    return e_int


def _ref_recover_temperature(rho, mom, etot, gas, a):
    return _ref_member_temperatures(gas, a, rho, _ref_internal_energy(rho, mom, etot))


def _ref_face_states(W, n, order):
    d = ns._GHOST_DEPTH
    lo, hi = d - 1, d + n
    WL1 = W[..., lo:hi]
    WR1 = W[..., lo + 1:hi + 1]
    if order == 1:
        WLR = np.stack((WL1, WR1), axis=1)
    else:
        half = np.subtract(W[..., 2:], W[..., :-2])
        half *= 0.5
        half *= 0.5
        WLR = np.empty((W.shape[0], 2, *W.shape[1:-1], n + 1))
        np.add(WL1, half[..., lo - 1:hi - 1], out=WLR[:, 0])
        np.subtract(WR1, half[..., lo:hi], out=WLR[:, 1])
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
    return WLR, _ref_internal_energy(WLR[0], WLR[1:-1], WLR[-1], 1)


def _ref_rusanov(gas, a, WLR, e_int, ax, dx):
    rho = WLR[0]
    mn = WLR[1 + ax]
    _, p, c = _ref_face_closures(gas, a, rho, e_int)
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
    un += c
    smax = np.maximum(un[0], un[1])
    smax *= 0.5
    D = np.subtract(WLR[:, 1], WLR[:, 0])
    D *= smax
    F -= D
    dF = np.subtract(F[..., 1:], F[..., :-1])
    dF /= dx
    return dF


def _ref_convective(gas, a, grid, W_g, order):
    dim = grid.dim
    out = np.zeros(W_g.shape[:-dim] + grid.cells)
    for ax in range(dim):
        W = gf.axis_strip(W_g, grid, ax, ns._GHOST_DEPTH)
        WLR, e_int = _ref_face_states(W, grid.cells[ax], order)
        o = out.swapaxes(-1, ax - dim)
        np.subtract(o, _ref_rusanov(gas, a, WLR, e_int, ax, grid.spacing[ax]), out=o)
    return out


def _ref_face_avg(x):
    return 0.5 * (x[..., 1:] + x[..., :-1])


def _ref_face_diff(x, dx):
    return (x[..., 1:] - x[..., :-1]) / dx


def _ref_diffusive(config, grid, u_g, theta_g, dmom, detot):
    tr = config.transport
    nu, omega = config.scaling.nu, config.scaling.omega
    dim = grid.dim
    d = ns._GHOST_DEPTH
    for ax in range(dim):
        dx = grid.spacing[ax]
        th = gf.axis_strip(theta_g, grid, ax, d)[..., 1:-1]
        th_f = _ref_face_avg(th)
        mu_f = tr.mu(th_f)
        eta_f = tr.eta(th_f)
        u = gf.axis_strip(u_g, grid, ax, d)[..., 1:-1]
        dun_f = _ref_face_diff(u[ax], dx)
        q_f = -omega * tr.kappa(th_f) * _ref_face_diff(th, dx)
        if dim == 1:
            S_f = nu * ((4.0 / 3.0) * mu_f + eta_f) * dun_f
            visc_mom = {ax: S_f}
        else:
            t_ax = 1 - ax
            dy = grid.spacing[t_ax]
            u_t = gf.axis_strip(u_g, grid, ax, d, widen=1)[..., 1:-1]
            dut = (u_t[..., 2:, :] - u_t[..., :-2, :]) / (2.0 * dy)
            dut_f = _ref_face_avg(dut)
            dutan_f = _ref_face_diff(u[t_ax], dx)
            S_nn = nu * (((4.0 / 3.0) * mu_f + eta_f) * dun_f
                         + (eta_f - (2.0 / 3.0) * mu_f) * dut_f[t_ax])
            S_nt = nu * mu_f * (dutan_f + dut_f[ax])
            visc_mom = {ax: S_nn, t_ax: S_nt}
        u_f = _ref_face_avg(u)
        energy_flux = -q_f
        for comp, S_comp in visc_mom.items():
            energy_flux = energy_flux + S_comp * u_f[comp]
            dmom[comp] += _ref_face_diff(S_comp, dx).swapaxes(-1, ax - dim)
        detot += _ref_face_diff(energy_flux, dx).swapaxes(-1, ax - dim)


def _ref_rhs_nsf(state, config, forcing=None, theta=None):
    grid = config.grid
    gas = config.gas
    sc = config.scaling
    if theta is None:
        theta = _ref_recover_temperature(state.rho, state.mom, state.etot, gas, sc.a)
    W_g = gf.fill_ghosts_slip(state, grid, depth=ns._GHOST_DEPTH)
    out = _ref_convective(gas, sc.a, grid, W_g, 1 if all(sc.zeros) else 2)
    dmom = out[1:-1]
    detot = out[-1]
    _, no_nu, no_omega, no_lam = sc.zeros
    u = None
    if not (no_nu and no_omega):
        theta_g = gf.fill_ghosts_slip(theta, grid, depth=ns._GHOST_DEPTH)
        u_g = W_g[1:-1] / W_g[0]
        _ref_diffusive(config, grid, u_g, theta_g, dmom, detot)
        u = u_g[(Ellipsis,) + (slice(ns._GHOST_DEPTH, -ns._GHOST_DEPTH),) * grid.dim]
    if not no_lam:
        if u is None:
            u = state.velocity()
        dmom -= sc.lam * u
        detot -= sc.lam * np.sum(u * u, axis=0)
    if forcing is not None:
        f_rho, f_mom, f_etot = forcing(state.time)
        out[0] += f_rho
        dmom += f_mom
        detot += f_etot
    return out


def _ref_cv_molecular(gas, rho, theta):
    z = thermo.Z_of(rho, theta)
    cv = 1.5 * (2.5 * gas.P(z) - 1.5 * z * gas.dP(z)) / z
    if (np.asarray(cv) <= 0.0).any():
        raise ModelViolationError("c_v <= 0: closure violates thermal stability")
    return cv


def _ref_stable_dt(state, theta, config):
    grid = config.grid
    sc = config.scaling
    cells = tuple(range(-grid.dim, 0))
    batch = np.ndim(state.time) > 0
    z = thermo.Z_of(state.rho, theta)
    c = np.sqrt(_ref_sound_speed_sq_at(sc.a, state.rho, theta, z, config.gas.P(z),
                                       config.gas.dP(z), theta ** 3))
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
            cv = _ref_cv_molecular(config.gas, state.rho, theta)
            diff = np.maximum(diff, sc.omega * config.transport.kappa(theta) / (state.rho * cv))
        d_max = np.max(diff, axis=cells, keepdims=batch)
        dx2 = min(h * h for h in grid.spacing)
        dt = np.minimum(dt, np.divide(dx2, 2.0 * grid.dim * d_max,
                                      out=np.full_like(d_max, np.inf), where=d_max > 0.0))
    dt = dt * config.cfl
    if not np.all((dt > 0.0) & np.isfinite(dt)):
        raise DomainError(f"stable_dt produced {dt}")
    return dt if batch else float(dt)


def _ref_apply_floors(W, config):
    rho_floor, theta_floor = config.positivity_floor
    cells = tuple(range(-config.grid.dim, 0))
    rho = W[0]
    hits = np.sum(rho < rho_floor, axis=cells)
    np.maximum(rho, rho_floor, out=rho)
    ke = 0.5 * np.sum(W[1:-1] * W[1:-1], axis=0) / rho
    e_int = W[-1] - ke
    theta_floor = np.asarray(theta_floor)
    e_min = (1.5 * theta_floor ** 2.5 * config.gas.P(thermo.Z_of(rho, theta_floor))
             + config.scaling.a * theta_floor ** 4)
    cold = e_int < e_min
    hits = hits + np.sum(cold, axis=cells)
    if np.any(cold):
        W[-1] = np.where(cold, ke + e_min, W[-1])
    return hits


def _ref_step(state, dt, config, forcing=None, theta=None):
    """ns.step's composition on the oracle bodies: (state, floor hits)."""
    hits = 0

    def floors(W):
        nonlocal hits
        hits = hits + _ref_apply_floors(W, config)

    out = ns.ssp_rk3(state, dt, lambda s: _ref_rhs_nsf(s, config, forcing,
                                                       theta if s is state else None),
                     floors)
    return out, hits


# ---------------------------------------------------------------------------
# cases


def _path_scaling(a):
    return thermo.ScalingParams(a=a, nu=a ** 0.55, omega=a ** 1.2, lam=a ** 0.1)


LINE = gf.Grid.line(1.0, 20, "slip-wall")
BOX = gf.Grid.box((1.0, 1.0), (12, 10), ("slip-wall", "periodic"))

# name: (gas, grid, scalings of the members, forced); the pure-Euler
# cases take plain cell values on the faces, the others central slopes
EULER = thermo.ScalingParams(0.0, 0.0, 0.0, 0.0)
CASES = {
    "line-a>0": ("ideal", LINE, [_path_scaling(1e-2)], False),
    "line-batch-of-three": ("ideal", LINE, [_path_scaling(a) for a in (1e-2, 1e-3, 1e-4)], False),
    "line-a=0": ("ideal", LINE, [thermo.ScalingParams(0.0, 0.02, 0.01, 0.1)], False),
    "line-euler": ("ideal", LINE, [EULER], False),
    "line-lawA": ("law_a", LINE, [_path_scaling(0.3)], False),
    "line-lawA-batch": ("law_a", LINE, [_path_scaling(a) for a in (0.3, 1e-3)], False),
    "line-forced": ("ideal", LINE, [thermo.ScalingParams(0.0, 0.01, 0.01, 0.1)], True),
    "box": ("ideal", BOX, [_path_scaling(1e-2)], False),
    "box-euler": ("ideal", BOX, [EULER], False),
    "box-batch": ("ideal", BOX, [_path_scaling(a) for a in (1e-2, 1e-4)], False),
    "box-lawA": ("law_a", BOX, [_path_scaling(0.3)], False),
}


def _forcing(grid):
    x = gf.cell_centers(grid)[0]
    return lambda t: (0.01 * np.cos(np.pi * x) * np.cos(t), (0.01 * np.sin(np.pi * x))[None],
                      0.02 * np.cos(np.pi * x))


def _case(request, name):
    """(config, state, oracle theta, forcing) of a case; a batch of several
    members is packed as `simulate_batch` packs it."""
    gas_name, grid, scalings, forced = CASES[name]
    gas = request.getfixturevalue(gas_name)
    rng = np.random.default_rng(sum(map(ord, name)))
    X = gf.mesh(grid) if grid.dim == 2 else gf.cell_centers(grid)
    wave = np.ones(grid.cells)
    for x in X:
        wave = wave * np.cos(np.pi * rng.integers(1, 4) * x + rng.uniform(0.0, 1.0))
    u = np.stack([rng.uniform(-0.3, 0.3) * np.sin(np.pi * x) * wave for x in X])
    initial = (1.0 + rng.uniform(0.1, 0.4) * wave, 1.0 + rng.uniform(-0.3, 0.3) * wave, u)
    base = ns.NsfRunConfig(gas=gas, transport=thermo.default_transport(), scaling=scalings[0],
                           grid=grid, t_end=1.0, cfl=0.35)
    members = [ns._Member(replace(base, scaling=sc), initial) for sc in scalings]
    state, _, config = ns._pack(members)
    theta = _ref_recover_temperature(state.rho, state.mom, state.etot, gas, config.scaling.a)
    return config, state, theta, (_forcing(grid) if forced else None)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_path_matches_its_earlier_bodies_bitwise(request, add_source, name):
    config, state, theta, forcing = _case(request, name)
    if forcing is not None:
        add_source(forcing)
    gas, a = config.gas, config.scaling.a
    assert _same(ns.recover_temperature(state.rho, state.mom, state.etot, gas, a), theta)
    for th in (None, theta):
        assert _same(ns.rhs_nsf(state, config, th),
                     _ref_rhs_nsf(state, config, forcing, th))
    dt = ns.stable_dt(state, theta, config)
    want_dt = _ref_stable_dt(state, theta, config)
    assert type(dt) is type(want_dt) and _same(dt, want_dt)
    # floors on a copy where one cell of each member is below both floors
    W = state.W.copy()
    cell = (Ellipsis,) + (3,) * config.grid.dim
    W[(0,) + cell] = 1e-14
    W[(-1,) + cell] = 1e-30
    W_want = W.copy()
    hits, want_hits = ns._floor_pass(W, config)[0], _ref_apply_floors(W_want, config)
    assert _same(W, W_want) and _same(hits, want_hits) and np.all(want_hits == 2)
    # one whole step, floors and stage states included
    dt = np.minimum(dt, config.t_end - state.time)
    stats = [ns.StepStats() for _ in np.ravel(state.time)]
    got = ns.step(state, dt, config, stats=stats if len(stats) > 1 else stats[0],
                  theta=theta)
    want, want_hits = _ref_step(state, dt, config, forcing, theta)
    assert _same(got.W, want.W) and _same(got.time, want.time)
    assert [s.floor_hits for s in stats] == [int(h) for h in np.ravel(want_hits)]
    assert _same(ns.recover_temperature(got.rho, got.mom, got.etot, gas, a),
                 _ref_recover_temperature(want.rho, want.mom, want.etot, gas, a))


def _raised(fn, *args):
    """(type, message, where) of what fn(*args) raises."""
    with pytest.raises((DomainError, PositivityError, ModelViolationError)) as exc:
        fn(*args)
    return type(exc.value), str(exc.value), getattr(exc.value, "where", None)


@pytest.mark.parametrize("name", ["line-a>0", "line-batch-of-three", "line-lawA", "box"])
def test_step_path_failures_match_its_earlier_bodies(request, name):
    config, state, theta, _ = _case(request, name)
    gas, a = config.gas, config.scaling.a

    def at(comp):
        return (comp, Ellipsis) + (4,) * config.grid.dim  # one cell of every member

    def both(make, th=None):
        """What rhs_nsf and the oracle raise on a stage whose W `make` damaged."""
        W = state.W.copy()
        make(W)
        stage = gf.FluidState.stage(W, state.time)
        got = _raised(ns.rhs_nsf, stage, config, th)
        assert got == _raised(_ref_rhs_nsf, stage, config, None, th)
        return got

    def nan_momentum(W):
        W[at(1)] = np.nan

    def zero_density(W):
        W[at(0)] = 0.0

    def cold(W):
        W[at(-1)] = 0.5 * W[at(1)] ** 2 / W[at(0)]

    # a non-finite stage: the stage's own inversion, or, with its theta
    # given, the faces' one
    for th in (None, theta):
        kind, message, _ = both(nan_momentum, th)
        assert kind is DomainError and message == "non-finite inputs to temperature inversion"
    # a non-positive cell density, named with its member; with theta given
    # the faces name the face without the side axis
    kind, message, where = both(zero_density)
    assert kind is PositivityError and "non-positive density at cell" in message
    assert where == (((0,) if np.ndim(state.time) else ()) + (4,) * config.grid.dim)
    kind, message, _ = both(zero_density, theta)
    assert kind is PositivityError and "non-positive density at cell" in message
    kind, message, _ = both(cold)
    assert kind is PositivityError and "non-positive internal energy at cell" in message
    # the recovery alone
    W = state.W.copy()
    zero_density(W)
    assert (_raised(ns.recover_temperature, W[0], W[1:-1], W[-1], gas, a)
            == _raised(_ref_recover_temperature, W[0], W[1:-1], W[-1], gas, a))


def test_step_path_cv_failure_matches_its_earlier_bodies(transport):
    # P(Z) = Z^3 has a root at e = 10 where the radiation term grows, but
    # c_v < 0 there: the faces' closures and the step bound refuse it
    unstable = thermo.GasModel(name="bad", P=lambda z: np.asarray(z, float) ** 3,
                               dP=lambda z: 3.0 * np.asarray(z, float) ** 2)
    grid = gf.Grid.line(1.0, 16, "periodic")
    config = ns.NsfRunConfig(gas=unstable, transport=transport,
                             scaling=thermo.ScalingParams(0.1, 0.01, 0.01, 0.1), grid=grid,
                             t_end=1.0)
    state = gf.FluidState(np.ones(16), np.zeros((1, 16)), np.full(16, 10.0))
    theta = ns.recover_temperature(state.rho, state.mom, state.etot, unstable, 0.1)
    assert _same(theta, _ref_recover_temperature(state.rho, state.mom, state.etot, unstable, 0.1))
    message = "c_v <= 0: closure violates thermal stability"
    for fn, ref in ((ns.rhs_nsf, _ref_rhs_nsf), (ns.stable_dt, _ref_stable_dt)):
        args = (state, config) if fn is ns.rhs_nsf else (state, theta, config)
        assert _raised(fn, *args) == _raised(ref, *args) == (ModelViolationError, message, None)
