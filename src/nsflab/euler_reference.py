"""Inviscid reference runs on a fine grid: the smooth trio (rho, theta, u).

The compressible Euler equations are integrated with 4th-order centered
flux differences, SSP-RK3 (the one stepper `nsf_solver.ssp_rk3`, shared
with the dissipative solver), and a weak 6th-difference hyper-dissipation
filter of the constant amplitude FILTER_AMPLITUDE.  Everything is written
in flux-difference form, so mass and total energy are conserved to
round-off on periodic boxes and across slip walls (the mirrored flux
values vanish bitwise at wall faces).  The filter's amplitude therefore
needs no calibration: each run measures its total-energy drift
(`energy_drift`), which stays far below the fraction DRIFT_BUDGET of the
initial energy.  Temperature comes from
`nsf_solver.recover_temperature`, once per state and on its interior
cells: `rhs_euler` ghost-fills the temperature it recovers or is given,
and the first stage of each `run_euler` step takes the temperature that
the step's Courant check recovered.

Smooth inviscid flow steepens and eventually leaves the classical regime;
`lifespan_monitor` watches the gradient history and declares the usable
time window.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import grid_fields as gf
from . import thermo
from .errors import DomainError, PositivityError, UsageError
from .nsf_solver import (check_run_settings, keep_heap_pages, recover_temperature, ssp_rk3,
                         state_from_primitives)

_DEPTH = 3  # 4th-order faces need 2 ghost layers, the filter needs 3
# the bound on a run's measured |E(T)-E(0)| as a fraction of E(0); the
# constant-amplitude filter keeps to it without calibration, and the cache
# key still hashes it, so stored references keep their keys
DRIFT_BUDGET = 1e-6
FILTER_AMPLITUDE = 0.02  # the filter's amplitude, the same for every run


@dataclass(frozen=True)
class EulerRunConfig:
    """Inviscid reference run: fixed time step chosen from the initial state."""

    gas: thermo.GasModel
    grid: gf.Grid
    t_end: float
    cfl: float
    output_stride: int

    def __post_init__(self):
        check_run_settings(self)


# ---------------------------------------------------------------------------
# spatial operator


def _faces4(F):
    # 4th-order face average: difference of these faces is the centered
    # 5-point first derivative, so sums telescope exactly
    return (7.0 * (F[..., 2:-3] + F[..., 3:-2]) - (F[..., 1:-4] + F[..., 4:-1])) / 12.0


def _fifth_difference_faces(W):
    # composed differences keep uniform fields at exactly zero
    d = W[..., 1:] - W[..., :-1]
    for _ in range(2):
        d = (d[..., 2:] - d[..., 1:-1]) - (d[..., 1:-1] - d[..., :-2])
    return d


def rhs_euler(state: gf.FluidState, gas: thermo.GasModel, grid: gf.Grid,
              eps_f: float = 0.0, theta=None):
    """Tendency dW/dt of the inviscid (molecular-closure) system, stacked like W.

    4th-order centered flux differences plus, when eps_f > 0, a 6th-order
    hyper-dissipation flux scaled by the fastest signal speed per axis.
    `theta`, when given, is the state's temperature; otherwise it is
    recovered from the state, so that an error names an interior cell.
    Its ghost fill is the ghosted state's temperature bitwise: ghost cells
    copy interior cells (a mirrored momentum only changes sign), and the
    inversion treats every cell alike.
    """
    dim = grid.dim
    if theta is None:
        theta = recover_temperature(state.rho, state.mom, state.etot, gas, 0.0)
    W_g = gf.fill_ghosts_slip(state, grid, depth=_DEPTH)
    rho_g, mom_g = W_g[0], W_g[1:-1]
    theta_g = gf.fill_ghosts_slip(theta, grid, depth=_DEPTH)
    u_g = mom_g / rho_g
    # theta_g is proven: p and c_s^2 come from one Z, P(Z), P'(Z), and only c_v is checked
    p_g, c2_g = thermo._closures_at(gas, 0.0, rho_g, theta_g)
    if eps_f > 0.0:
        # ghosts copy interior cells bitwise, so the interior of the ghosted
        # fields is the interior state's own
        inner = (Ellipsis,) + (slice(_DEPTH, -_DEPTH),) * dim
        c = np.sqrt(c2_g[inner])
        u = u_g[inner]

    out = np.zeros((2 + dim, *grid.cells))
    for ax in range(dim):
        dx = grid.spacing[ax]
        W = gf.axis_strip(W_g, grid, ax, _DEPTH)
        un = gf.axis_strip(u_g[ax], grid, ax, _DEPTH)
        p = gf.axis_strip(p_g, grid, ax, _DEPTH)
        F = W * un[None]
        F[1 + ax] += p
        F[-1] += p * un
        faces = _faces4(F)
        dW = -(faces[..., 1:] - faces[..., :-1]) / dx
        if eps_f > 0.0:
            s = float(np.max(np.abs(u[ax]) + c))
            amp = eps_f * s / 64.0
            d5 = _fifth_difference_faces(W)
            dW += amp * (d5[..., 1:] - d5[..., :-1]) / dx
        out += dW.swapaxes(-1, 1 + ax)  # undo axis_strip's swap
    return out


# ---------------------------------------------------------------------------
# time integration


def _speed_over_dx(state, gas, grid):
    """(max over axes of the signal speed over the spacing, the state's theta)."""
    theta = recover_temperature(state.rho, state.mom, state.etot, gas, 0.0)
    # the recovery proved rho > 0 and theta
    c = np.sqrt(thermo._sound_speed_sq_cv(gas, 0.0, state.rho, theta)[0])
    u = state.mom / state.rho
    return max(float(np.max(np.abs(u[ax]) + c)) / grid.spacing[ax]
               for ax in range(grid.dim)), theta


_GRADIENT_BLOCK_CELLS = 1 << 16  # cells of the stored states one gradient pass takes at most


def gradient_maxima(traj) -> tuple:
    """(max|grad u|, max|grad rho|) at each stored instant, as two arrays.

    The stored stack is taken in blocks of at most _GRADIENT_BLOCK_CELLS
    cells, and each block's gradients and maxima are one expression over
    its instants; a maximum is exact, so each instant's value is bitwise
    the one of its state alone.
    """
    grid = traj.grid
    cells = tuple(range(-grid.dim, 0))
    step = max(1, _GRADIENT_BLOCK_CELLS // math.prod(grid.cells))
    gu, gr = np.empty(len(traj.times)), np.empty(len(traj.times))
    for k in range(0, len(traj.times), step):
        block = traj.batch(k, k + step)
        G_rho = np.abs(gf.interior_gradient(block.rho, grid, vector=False))
        G_u = np.abs(gf.interior_gradient(block.velocity(), grid, vector=True))
        gr[k:k + step] = np.max(G_rho, axis=(0, *cells))
        gu[k:k + step] = np.max(G_u, axis=(0, 1, *cells))
    return gu, gr


@dataclass(eq=False)  # compared by identity: its stored fields are arrays
class EulerTrajectory(gf.StoredRun):
    """Stored instants of one inviscid reference run: W[:, k] is the state at times[k]."""

    gas: thermo.GasModel
    grid: gf.Grid
    dt: float
    eps_f: float
    times: list = field(default_factory=list)
    W: np.ndarray = None
    mass_drift: float = 0.0
    energy_drift: float = 0.0
    t_end: float = 0.0
    aborted: bool = False
    abort_reason: str = ""

    def diagnostics_csv(self) -> str:
        """Mass, total energy and the gradient maxima at each stored instant."""
        lines = ["t,mass,etot,grad_u_max,grad_rho_max"]
        for t, s, gu, gr in zip(self.times, self.states, *gradient_maxima(self)):
            lines.append(",".join(repr(float(v)) for v in (
                t, gf.integrate(s.rho, self.grid), gf.integrate(s.etot, self.grid), gu, gr)))
        return "\n".join(lines) + "\n"


def run_euler(config: EulerRunConfig, initial, cache_dir=None) -> EulerTrajectory:
    """Integrate to t_end with a fixed step, storing every output_stride steps.

    The step is set once from the initial signal speeds; if the running
    Courant number later exceeds 0.95 the run aborts, which is treated as
    a life-span signal, not an error, as is a step that loses positivity.
    The filter runs at FILTER_AMPLITUDE.  With `cache_dir`, the run is
    stored under its `reference_key`, aborted or not, and a later call with
    the same key loads it instead of stepping; an entry that the cache
    could neither read nor write is refused first (`check_cache_entry`).
    """
    state = state_from_primitives(config.gas, 0.0, initial)
    if cache_dir is not None:
        key = reference_key(config, state)
        check_cache_entry(cache_dir, key)
        cached = _load_cached(config, cache_dir, key)
        if cached is not None:
            return cached

    keep_heap_pages(state.W.nbytes)
    over_dx, _ = _speed_over_dx(state, config.gas, config.grid)
    n_steps = max(1, math.ceil(config.t_end * over_dx / config.cfl))
    dt = config.t_end / n_steps
    eps = FILTER_AMPLITUDE

    traj = EulerTrajectory(gas=config.gas, grid=config.grid, dt=dt, eps_f=eps,
                           t_end=config.t_end)
    m0 = gf.integrate(state.rho, config.grid)
    e0 = gf.integrate(state.etot, config.grid)

    # each stored state was checked when it was built or its step accepted it
    traj.times.append(state.time)
    stored = [state.W.copy()]
    for k in range(1, n_steps + 1):
        try:
            over_dx, theta = _speed_over_dx(state, config.gas, config.grid)
            if over_dx * dt > 0.95:
                raise DomainError("running Courant number exceeded 0.95")
            # the first stage evaluates at the state itself, whose theta is known
            start = state
            state = ssp_rk3(start, dt, lambda w: rhs_euler(
                w, config.gas, config.grid, eps, theta if w is start else None))
        except (PositivityError, DomainError) as err:
            traj.aborted = True
            traj.abort_reason = (f"stopped at t={state.time:.6g}: {err} "
                                 "(classical life span likely exceeded)")
            break
        state.time = k * dt
        if k % config.output_stride == 0 or k == n_steps:
            traj.times.append(state.time)
            stored.append(state.W.copy())
    traj.W = np.stack(stored, axis=1)
    traj.mass_drift = abs(gf.integrate(traj.W[0, -1], config.grid) - m0)
    traj.energy_drift = abs(gf.integrate(traj.W[-1, -1], config.grid) - e0)
    if cache_dir is not None:
        _store_cached(config, traj, cache_dir, key)
    return traj


# ---------------------------------------------------------------------------
# life-span detection


@dataclass(frozen=True)
class LifespanReport:
    """Outcome of the gradient watch over one stored run."""

    smooth_through_end: bool
    t_star: float
    usable_until: float
    trigger: str  # "", "gradient-growth", "reciprocal-fit", "aborted"


def _envelope(times, g, blocks=16):
    # block maxima tame the sawtooth left by waves re-crossing the box
    n = len(g)
    if n < 2 * blocks:
        return times, g
    edges = np.linspace(0, n, blocks + 1).astype(int)
    picks = [a + int(np.argmax(g[a:b])) for a, b in zip(edges[:-1], edges[1:])]
    return times[picks], g[picks]


def _reciprocal_scan(times, g, t_end, window=5):
    """Earliest window whose 1/(T* - t) fit predicts a pole shortly ahead.

    A gradient racing to a finite-time pole makes 1/g linear in t with a
    negative slope, so windows of steady super-linear growth along the
    series envelope are fitted that way and accepted only when the fit is
    tight and the predicted pole lies past the window but within reach of
    the run.
    """
    t_env, g_env = _envelope(times, g)
    n = len(g_env)
    for i0 in range(0, n - window + 1):
        gw = g_env[i0:i0 + window]
        if gw[0] <= 0.0 or np.any(np.diff(gw) <= 0.0):
            continue
        if gw[-1] < 4.0 or gw[-1] < 2.0 * gw[0]:
            continue
        tw = t_env[i0:i0 + window]
        y = 1.0 / gw
        beta, alpha = np.polyfit(tw, y, 1)
        if beta >= 0.0:
            continue
        # 0.15 of the window range: a true pole fits far tighter, while
        # merely linear growth curves 1/g by about 0.17 of the range
        if np.max(np.abs(alpha + beta * tw - y)) > 0.15 * (y[0] - y[-1]):
            continue
        pole = float(-alpha / beta)
        if tw[-1] < pole <= 1.25 * t_end:
            return pole
    return None


_GROWTH_FACTOR = 20.0  # gradient growth over the initial scale that ends smoothness
_SAFETY = 0.8  # fraction of T* that comparisons downstream may use


def lifespan_monitor(traj: EulerTrajectory) -> LifespanReport:
    """Declare how long the stored run can be trusted as a classical solution.

    Exhaustion triggers when max|grad u| or max|grad rho| exceeds
    _GROWTH_FACTOR times the initial gradient scale, or earlier when a
    stretch of either series grows super-linearly along a fitted
    1/(T* - t) envelope whose pole lands inside the run window.
    Comparisons downstream should stay below _SAFETY * T*.
    """
    times = np.asarray(traj.times, dtype=float)
    grad_u_max, grad_rho_max = gradient_maxima(traj)
    # one reference scale for both series: a field that starts uniform and
    # develops gradients comparable to the other field is not blowing up
    g_ref = max(float(grad_u_max[0]), float(grad_rho_max[0]), 1e-9)
    series = [raw / g_ref for raw in (grad_u_max, grad_rho_max)]

    candidates = []
    for g in series:
        hit = np.nonzero(g > _GROWTH_FACTOR)[0]
        if hit.size:
            candidates.append((float(times[hit[0]]), "gradient-growth"))
        pole = _reciprocal_scan(times, g, traj.t_end)
        if pole is not None:
            candidates.append((pole, "reciprocal-fit"))
    if not candidates and traj.aborted:
        candidates.append((float(times[-1]), "aborted"))

    if not candidates:
        return LifespanReport(smooth_through_end=True, t_star=float(traj.t_end),
                              usable_until=float(traj.t_end), trigger="")
    t_star, trigger = min(candidates)
    usable = min(_SAFETY * t_star, float(times[-1]))
    return LifespanReport(smooth_through_end=False, t_star=t_star,
                          usable_until=usable, trigger=trigger)


# ---------------------------------------------------------------------------
# compatibility of initial data with the walls


@dataclass(frozen=True)
class CompatibilityReport:
    """Wall-compatibility of initial data: orders k = 0, 1 checked, 2 reported."""

    k0_max: float
    k1_residual: float
    k1_threshold: float
    k1_pass: bool
    k2_status: str = "unchecked"


def _wall_points(grid, ax, side):
    wall = np.asarray(0.0 if side == 0 else grid.extents[ax])
    return tuple(np.broadcast_arrays(*(wall if g == ax else c
                                       for g, c in enumerate(gf.cell_centers(grid)))))


def compatibility_check(rho_fn, theta_fn, u_fns, grid: gf.Grid,
                        gas: thermo.GasModel) -> CompatibilityReport:
    """Check wall compatibility of callable initial data.

    k=0: the normal velocity must vanish at the wall faces (sampled at the
    tangential cell centers); violation rejects the data.  k=1: the normal
    component of du/dt, extrapolated to the wall from the first two cell
    layers of the discrete tendency, must stay within the stencil's own
    discretization error.  k=2 needs second time derivatives of the
    operator and is reported as unchecked.
    """
    walls = [(ax, side) for ax in range(grid.dim) if grid.bc[ax] == "slip-wall"
             for side in (0, 1)]
    if not walls:
        raise UsageError("compatibility applies to grids with slip walls")
    X = gf.mesh(grid)
    u0 = np.stack([np.broadcast_to(np.asarray(f(*X), dtype=float), grid.cells)
                   for f in u_fns])
    scale = 1.0 + float(np.max(np.abs(u0)))

    k0 = 0.0
    for ax, side in walls:
        pts = _wall_points(grid, ax, side)
        k0 = max(k0, float(np.max(np.abs(np.asarray(u_fns[ax](*pts), dtype=float)))))
    if k0 > 1e-12 * scale:
        raise DomainError(
            f"initial velocity has a normal wall component (max {k0:.3e}); "
            "the data are incompatible with the slip condition"
        )

    rho0 = np.broadcast_to(np.asarray(rho_fn(*X), dtype=float), grid.cells)
    theta0 = np.broadcast_to(np.asarray(theta_fn(*X), dtype=float), grid.cells)
    state = state_from_primitives(gas, 0.0, (rho0, theta0, u0))
    dW = rhs_euler(state, gas, grid, eps_f=0.0)
    dudt = (dW[1:-1] - u0 * dW[0]) / rho0
    rate_scale = 1.0 + float(np.max(np.abs(dudt)))

    k1 = 0.0
    h_rel = 0.0
    for ax, side in walls:
        f = np.moveaxis(dudt[ax], ax, 0)
        if side == 1:
            f = f[::-1]
        face = 1.5 * f[0] - 0.5 * f[1]  # linear extrapolation to the wall
        k1 = max(k1, float(np.max(np.abs(face))))
        h_rel = max(h_rel, grid.spacing[ax] / grid.extents[ax])
    threshold = 50.0 * h_rel ** 2 * rate_scale
    return CompatibilityReport(k0_max=k0, k1_residual=k1, k1_threshold=threshold,
                               k1_pass=bool(k1 <= threshold))


# ---------------------------------------------------------------------------
# sampling onto the coarse grid


def _block_mean(arr, ratios):
    """Means over blocks of ratios[i] cells along the trailing grid axes."""
    for ax, r in enumerate(ratios, start=arr.ndim - len(ratios)):
        if r == 1:
            continue
        shape = arr.shape[:ax] + (arr.shape[ax] // r, r) + arr.shape[ax + 1:]
        arr = arr.reshape(shape).mean(axis=ax + 1)
    return arr


def sample_reference(traj: EulerTrajectory, times, target: gf.Grid):
    """Reference trio (rho_E, theta_E, u_E) at each of a sequence of times on the target grid.

    Linear interpolation between the two bracketing stored instants, then
    conservative block averaging down to the (integer-ratio) coarser grid.
    The trio is stacked on an instant axis, the first axis of rho_E and
    theta_E and the second of u_E, with every instant bitwise its sample
    alone: the stored states are blended in blocks of at most
    _GRADIENT_BLOCK_CELLS fine cells, an instant that falls on a stored one
    takes that state's bits, and the temperatures are recovered in one call
    with one a = 0 per instant.  When a time or the grid is rejected, or a
    sample is not positive and finite, the instants are sampled one at a
    time, so that the first bad one raises what it raises alone.
    """
    try:
        # each field of the stack is contiguous, as the per-instant samples
        # stacked were, so the residual's reductions over them run in the same order
        C = _blended(traj, times, target)
        rho, mom = C[0], C[1:-1]
        theta = recover_temperature(rho, mom, C[-1], traj.gas,
                                    np.zeros((C.shape[1],) + (1,) * traj.grid.dim))
        u = mom / rho
        if not (np.isfinite(rho).all() and (rho > 0.0).all() and np.isfinite(theta).all()
                and (theta > 0.0).all() and np.isfinite(u).all()):
            raise PositivityError("reference sample not positive and finite")
    except (UsageError, PositivityError, DomainError):
        for tk in times:
            C = _blended(traj, [tk], target)[:, 0]
            recover_temperature(C[0], C[1:-1], C[-1], traj.gas, 0.0)
        raise
    return rho, theta, u


def _blended(traj, times, target):
    """The stored W blended at each of times and block-averaged onto target,
    stacked as the stored W is: shape (2 + dim, len(times), *target.cells)."""
    stored = np.asarray(traj.times, dtype=float)
    ts = np.asarray(times, dtype=float)
    tol = 1e-12 * max(1.0, float(stored[-1]))
    outside = (ts < stored[0] - tol) | (ts > stored[-1] + tol)
    if outside.any():
        raise UsageError(
            f"t={times[int(np.argmax(outside))]} outside the stored range "
            f"[{stored[0]}, {stored[-1]}]; extrapolation is not supported"
        )
    src = traj.grid
    if (len(target.cells) != len(src.cells) or target.bc != src.bc
            or any(abs(a - b) > 1e-12 for a, b in zip(target.extents, src.extents))):
        raise UsageError(f"target grid {target} does not tile the source grid {src}")
    ratios = []
    for nf, nc in zip(src.cells, target.cells):
        if nf % nc != 0:
            raise UsageError(f"source cells {src.cells} are not an integer "
                             f"multiple of target cells {target.cells}")
        ratios.append(nf // nc)

    last = len(stored) - 1
    lo = np.clip(np.searchsorted(stored, ts, side="right") - 1, 0, last)
    on = (lo == last) | (np.abs(stored[lo] - ts) <= tol)  # on a stored instant
    hi = np.where(on, lo, lo + 1)
    w = np.zeros(len(ts))
    w[~on] = (ts[~on] - stored[lo[~on]]) / (stored[hi[~on]] - stored[lo[~on]])

    # (1 - w) a + w b, formed in place on the two stacks; an instant on a
    # stored one blends that state with itself, which gives the state bit
    # for bit: 1 a + 0 a = a, -0.0 included (1 a + 0 b with another state b
    # could turn -0.0 into 0.0)
    step = max(1, _GRADIENT_BLOCK_CELLS // math.prod(src.cells))
    out = np.empty((traj.W.shape[0], len(ts), *target.cells))
    for k in range(0, len(ts), step):
        A = traj.W[:, lo[k:k + step]]
        B = traj.W[:, hi[k:k + step]]
        wk = w[k:k + step].reshape((-1,) + (1,) * src.dim)
        A *= 1.0 - wk
        B *= wk
        A += B
        out[:, k:k + step] = _block_mean(A, ratios)
    return out


# ---------------------------------------------------------------------------
# disk cache


def reference_key(config: EulerRunConfig, state: gf.FluidState) -> str:
    h = hashlib.sha256()
    g = config.grid
    meta = [
        "euler-reference 1",
        " ".join(repr(v) for v in g.extents),
        " ".join(str(v) for v in g.cells),
        " ".join(g.bc),
        config.gas.name, str(config.gas.law_text), repr(config.gas.S0),
        repr(config.gas.P_inf),
        repr(config.t_end), repr(config.cfl), str(config.output_stride),
        repr(FILTER_AMPLITUDE), repr(DRIFT_BUDGET),
    ]
    h.update("\n".join(meta).encode("ascii"))
    h.update(np.ascontiguousarray(state.W, dtype="<f8").tobytes())  # rho, mom, etot
    return h.hexdigest()


def _cache_paths(cache_dir, key):
    root = os.path.join(str(cache_dir), f"euler-{key[:16]}")
    return root, os.path.join(root, "manifest.txt")


def check_cache_entry(cache_dir, key) -> bool:
    """Whether the cache entry of key holds a stored run (its manifest.txt).

    UsageError when the entry is one the cache can neither read nor write:
    a file where the cache's or the entry's directory goes, or a directory
    where its manifest.txt, manifest.txt.tmp or a snapshot goes."""
    root, manifest = _cache_paths(cache_dir, key)
    for d in (str(cache_dir), root):
        if os.path.exists(d) and not os.path.isdir(d):
            raise UsageError(f"{d} is not a directory, where the reference cache "
                             "needs one; remove it")
    for p in (manifest, manifest + ".tmp", *sorted(map(str, Path(root).glob("*.snap")))):
        if os.path.isdir(p):
            raise UsageError(f"{p} is a directory, where the reference cache keeps "
                             "a file; remove it")
    return os.path.isfile(manifest)


def _store_cached(config, traj, cache_dir, key):
    root, manifest = _cache_paths(cache_dir, key)
    os.makedirs(root, exist_ok=True)
    gf.write_series(root, config.grid, traj.times, traj.W)
    lines = [
        f"key {key}",
        f"count {traj.W.shape[1]}",
        f"dt {traj.dt!r}",
        f"eps_f {traj.eps_f!r}",
        f"t_end {traj.t_end!r}",
        f"mass_drift {traj.mass_drift!r}",
        f"energy_drift {traj.energy_drift!r}",
    ]
    if traj.aborted:
        # only an aborted run has these lines; json keeps the reason on one
        # ASCII line
        lines += ["aborted 1", f"abort_reason {json.dumps(traj.abort_reason)}"]
    # written aside and renamed: a reader finds the whole manifest or none
    with open(manifest + ".tmp", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(manifest + ".tmp", manifest)


def _load_cached(config, cache_dir, key):
    root, manifest = _cache_paths(cache_dir, key)
    if not os.path.exists(manifest):
        return None
    meta = {}
    try:
        with open(manifest, encoding="ascii") as fh:
            for line in fh:
                k, _, v = line.strip().partition(" ")
                meta[k] = v
        if meta.get("key") != key:
            return None
        count = int(meta["count"])
        traj = EulerTrajectory(gas=config.gas, grid=config.grid,
                               dt=float(meta["dt"]), eps_f=float(meta["eps_f"]),
                               t_end=float(meta["t_end"]),
                               mass_drift=float(meta["mass_drift"]),
                               energy_drift=float(meta["energy_drift"]))
        # a manifest without an `aborted` line is of an unaborted run
        if meta.get("aborted", "0") not in ("0", "1"):
            raise ValueError(f"aborted is {meta['aborted']!r}, not 0 or 1")
        if meta.get("aborted") == "1":
            traj.aborted = True
            traj.abort_reason = str(json.loads(meta["abort_reason"]))
    except (KeyError, ValueError) as err:
        raise UsageError(f"{manifest} is damaged ({type(err).__name__}: {err})") from None
    traj.times, traj.W = gf.read_series(root, config.grid)
    if traj.W.shape[1] != count:
        raise UsageError(f"{root} holds {traj.W.shape[1]} snapshots, "
                         f"its manifest lists {count}")
    return traj
