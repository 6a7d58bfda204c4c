"""Relative energy against a smooth reference flow.

Builds on the ballistic free energy H_T(rho, theta) = rho e - T rho s at a
fixed comparison temperature T.  The relative energy density

    (1/2) rho |u - U|^2 + H_T(rho, theta) - dH_T/drho(r, T) (rho - r) - H_T(r, T)

with (r, T, U) the reference state vanishes exactly at the reference and
behaves as a squared distance nearby; both it and its integral take the
state as primitives (rho, theta, u).  The module also fits the two
coercivity constants (quadratic near the reference window, linear-in-energy
far from it), and provides the smooth-cutoff split of any field into its
essential part (reference window) and residual part (tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid_fields as gf
from . import thermo
from .errors import DomainError, ModelViolationError, UsageError


def _check_comparison_temperature(Theta):
    Theta = np.asarray(Theta, dtype=float)
    if not np.all(np.isfinite(Theta)) or np.any(Theta <= 0.0):
        raise DomainError("comparison temperature must be positive and finite")
    return Theta


def ballistic_free_energy(gas: thermo.GasModel, a: float, rho, theta, Theta):
    """H_Theta = rho e(rho, theta) - Theta rho s(rho, theta), density-weighted."""
    Theta = _check_comparison_temperature(Theta)
    e_dens = thermo.internal_energy_density(gas, a, rho, theta)
    s_dens = thermo.entropy_density(gas, a, rho, theta)
    return e_dens - Theta * s_dens


def dH_drho_ref(gas: thermo.GasModel, r, Theta):
    """d H_Theta / d rho evaluated at (r, Theta): e_M - Theta s_M + p_M / r.

    The radiation terms of H are independent of rho, so this is exact for
    the full closure at any a.
    """
    Theta = _check_comparison_temperature(Theta)
    e_m = thermo.internal_energy(gas, 0.0, r, Theta)
    s_m = thermo.entropy(gas, 0.0, r, Theta)
    p_m = thermo.pressure(gas, 0.0, r, Theta)
    return e_m - Theta * s_m + p_m / np.asarray(r, dtype=float)


def _components(u, base_shape):
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        return u.reshape(1)
    if u.shape == tuple(base_shape):
        return u[None]
    if u.shape[1:] == tuple(base_shape):
        return u
    raise UsageError(f"velocity shape {u.shape} does not fit state shape {base_shape}")


def relative_energy_density(gas: thermo.GasModel, a: float, state, reference):
    """Pointwise relative energy of (rho, theta, u) against (r, Theta, U).

    Exactly zero when the state coincides with the reference; nonnegative
    for any admissible closure (convexity in rho, monotonicity in theta).
    """
    rho, theta, u = state
    r, Theta, U = reference
    rho = np.asarray(rho, dtype=float)
    uu = _components(u, np.shape(rho))
    UU = _components(U, np.shape(np.asarray(r, float)))
    if uu.shape[0] != UU.shape[0]:
        raise UsageError("state and reference velocities must share component count")
    du2 = np.sum((uu - UU) ** 2, axis=0)
    H = ballistic_free_energy(gas, a, rho, theta, Theta)
    H_ref = ballistic_free_energy(gas, a, r, Theta, Theta)
    slope = dH_drho_ref(gas, r, Theta)
    out = 0.5 * rho * du2 + H - slope * (rho - np.asarray(r, float)) - H_ref
    return float(out) if np.ndim(out) == 0 else out


def _recovered_primitives(gas, a, fields: gf.FluidState, reference: gf.ReferenceFields):
    """(theta, u) of a checked state: theta by `thermo.admissible_temperature`
    on the cells with rho > 0.  A vacuum cell takes (e/a)^{1/4} at a > 0; at
    a = 0 it has no thermal state and a rho-linear relative energy density,
    so it takes the reference theta.  DomainError where a cell read has e <= 0."""
    rho = fields.rho
    occupied = rho > 0.0
    e_int = gf._kinetic(rho, fields.mom, occupied)
    np.subtract(fields.etot, e_int, e_int)
    if ((e_int <= 0.0) & (occupied | (a > 0.0))).any():  # vacuum is read at a > 0 only
        raise DomainError("internal energy density must be positive to recover temperature")
    if occupied.all():
        theta = thermo.admissible_temperature(gas, a, rho, e_int)
    else:
        theta = (np.array(reference.theta_E, dtype=float, copy=True) if a == 0.0
                 else (e_int / a) ** 0.25)
        theta[occupied] = thermo.admissible_temperature(gas, a, rho[occupied], e_int[occupied])
    return theta, fields.velocity()


def relative_energy(gas: thermo.GasModel, a: float, state, reference, grid: gf.Grid):
    """Midpoint-rule integral of the density of a primitive state (rho, theta, u).

    The reference is a `gf.ReferenceFields` or a primitive trio (r, Theta, U)
    of the state's shape.  Stacked instants, with a member axis in front of
    the cells (behind the velocity component, as in a solver batch), give
    one integral per instant, shaped (K, 1, ..., 1) as `gf.integrate` gives.
    """
    if isinstance(reference, gf.ReferenceFields):
        reference = (reference.rho_E, reference.theta_E, reference.u_E)
    shape, ref_shape = np.shape(state[0]), np.shape(reference[0])
    if shape[-grid.dim:] != grid.cells or len(shape) > grid.dim + 1 or ref_shape != shape:
        raise UsageError(
            f"state {shape} and reference {ref_shape} must live on the grid {grid.cells}"
        )
    return gf.integrate(relative_energy_density(gas, a, state, reference), grid)


# ---------------------------------------------------------------------------
# coercivity


def _sobol(d: int, seed: int, m: int) -> np.ndarray:
    """2**m points of a scrambled Sobol sequence in the unit cube [0, 1)^d.

    scipy loads here, on first use, so that runs that never sample pay
    nothing for it at start-up.
    """
    from scipy.stats import qmc
    return qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m)


def _rect(K):
    rho_lo, rho_hi, theta_lo, theta_hi = (float(v) for v in K)
    if not (0.0 < rho_lo < rho_hi and 0.0 < theta_lo < theta_hi):
        raise UsageError(f"state rectangle must satisfy 0 < lo < hi, got {K}")
    return rho_lo, rho_hi, theta_lo, theta_hi


def coercivity_constant(gas: thermo.GasModel, a: float, K, sample_count: int = 2048,
                        seed: int = 0) -> float:
    """Sampled minimum of density / squared distance over K x K x unit-velocity-ball.

    K is a rectangle in (rho, theta).  Coincident sample pairs are excluded.
    A nonpositive minimum means the closure is not convex on K and raises.
    """
    rho_lo, rho_hi, theta_lo, theta_hi = _rect(K)
    if sample_count < 1000:
        raise UsageError(f"sample_count must be at least 1000, got {sample_count}")
    m = max(10, math.ceil(math.log2(sample_count)))
    pts = _sobol(5, seed, m)
    rho = rho_lo + (rho_hi - rho_lo) * pts[:, 0]
    theta = theta_lo + (theta_hi - theta_lo) * pts[:, 1]
    r = rho_lo + (rho_hi - rho_lo) * pts[:, 2]
    Theta = theta_lo + (theta_hi - theta_lo) * pts[:, 3]
    w = pts[:, 4]  # |u - U| in [0, 1]
    dens = relative_energy_density(gas, a, (rho, theta, w), (r, Theta, np.zeros_like(w)))
    dist2 = (rho - r) ** 2 + (theta - Theta) ** 2 + w ** 2
    keep = dist2 > 1e-14
    ratio = dens[keep] / dist2[keep]
    c = float(np.min(ratio))
    if not (c > 0.0):
        raise ModelViolationError(
            f"coercivity failed on {K}: min density/distance^2 = {c} "
            "(closure breaks convexity)"
        )
    return c


@dataclass(frozen=True)
class ResidualBoundReport:
    """Fitted linear lower-bound constant far from the reference window."""

    c: float
    pairs_checked: int
    excluded: int

    def to_text(self) -> str:
        return (
            f"residual_lower_bound c {self.c!r}\n"
            f"pairs_checked {self.pairs_checked}\n"
            f"excluded {self.excluded}\n"
        )


_RESIDUAL_REF_COUNT = 16  # reference states sampled inside K
_RESIDUAL_SEED = 1


def residual_lower_bound_check(gas: thermo.GasModel, a: float, K, points) -> ResidualBoundReport:
    """Fit the largest c with density >= c (1 + rho|u-U|^2 + rho e + rho |s|).

    `points` holds test states outside the rectangle K as rows
    (rho, theta[, |u - U|]); rows inside or on the boundary of K are
    excluded (boundary ambiguity).  Reference states are sampled strictly
    inside K with U = 0.
    """
    rho_lo, rho_hi, theta_lo, theta_hi = _rect(K)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 2:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    if pts.shape[1] != 3:
        raise UsageError("points must be rows (rho, theta[, speed])")
    inside = (
        (pts[:, 0] >= rho_lo) & (pts[:, 0] <= rho_hi)
        & (pts[:, 1] >= theta_lo) & (pts[:, 1] <= theta_hi)
    )
    excluded = int(np.sum(inside))
    pts = pts[~inside]
    if len(pts) == 0:
        raise UsageError("no test states outside K remain after exclusion")

    inset = 0.05
    ref = _sobol(2, _RESIDUAL_SEED, max(2, math.ceil(math.log2(_RESIDUAL_REF_COUNT))))
    r = rho_lo + (rho_hi - rho_lo) * (inset + (1 - 2 * inset) * ref[:, 0])
    Th = theta_lo + (theta_hi - theta_lo) * (inset + (1 - 2 * inset) * ref[:, 1])

    rho, theta, w = pts[:, 0][:, None], pts[:, 1][:, None], pts[:, 2][:, None]
    dens = relative_energy_density(
        gas, a,
        (rho, theta, w[None]),
        (r[None, :], Th[None, :], np.zeros((1, 1, len(r)))),
    )
    weight = (
        1.0
        + rho * w ** 2
        + thermo.internal_energy_density(gas, a, rho, theta)
        + np.abs(thermo.entropy_density(gas, a, rho, theta))
    )
    ratio = dens / weight
    c = float(np.min(ratio))
    if not (c > 0.0):
        raise ModelViolationError(
            f"residual lower bound failed: fitted c = {c} over {ratio.size} pairs"
        )
    return ResidualBoundReport(c=c, pairs_checked=int(ratio.size), excluded=excluded)


# ---------------------------------------------------------------------------
# essential / residual split


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


@dataclass(frozen=True)
class EssentialResidualWindow:
    """Rectangle in (rho, theta) with a smooth cutoff over a relative margin.

    The cutoff is exactly 1 on [rho_lo, rho_hi] x [theta_lo, theta_hi] and
    exactly 0 outside the margin-widened rectangle.
    """

    rho_lo: float
    rho_hi: float
    theta_lo: float
    theta_hi: float
    margin: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.rho_lo < self.rho_hi and 0.0 < self.theta_lo < self.theta_hi):
            raise UsageError(f"window bounds must satisfy 0 < lo < hi, got {self}")
        if not (0.0 < self.margin < 1.0):
            raise UsageError(f"margin must lie in (0, 1), got {self.margin}")

    @property
    def outer(self):
        m = self.margin
        return (
            self.rho_lo * (1.0 - m), self.rho_hi * (1.0 + m),
            self.theta_lo * (1.0 - m), self.theta_hi * (1.0 + m),
        )

    def cutoff(self, rho, theta):
        """Tensor-product quintic-smoothstep bump, 1 inside, 0 past the margin."""
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        ro_lo, ro_hi, to_lo, to_hi = self.outer
        up_r = _smoothstep((rho - ro_lo) / (self.rho_lo - ro_lo))
        dn_r = _smoothstep((ro_hi - rho) / (ro_hi - self.rho_hi))
        up_t = _smoothstep((theta - to_lo) / (self.theta_lo - to_lo))
        dn_t = _smoothstep((to_hi - theta) / (to_hi - self.theta_hi))
        return up_r * dn_r * up_t * dn_t

    def contains(self, rho, theta) -> bool:
        return bool(
            np.all((rho >= self.rho_lo) & (rho <= self.rho_hi))
            and np.all((theta >= self.theta_lo) & (theta <= self.theta_hi))
        )


def essential_residual_split(values, window: EssentialResidualWindow, rho_at, theta_at):
    """Split F into (cutoff * F, F - cutoff * F) with the cutoff at (rho_at, theta_at).

    The parts sum to F bitwise; the essential part equals F where the
    evaluation state sits in the inner rectangle and vanishes outside the
    widened one.
    """
    values = np.asarray(values, dtype=float)
    phi = window.cutoff(rho_at, theta_at)
    essential = phi * values
    residual = values - essential
    return essential, residual


# ---------------------------------------------------------------------------
# quadratic bounds


@dataclass(frozen=True)
class QuadraticBoundsReport:
    """Fitted constants bounding field distances by the relative energy."""

    C: float
    C_essential: float
    C_residual: float
    energy: float
    lhs_essential: float
    lhs_residual: float

    def to_text(self) -> str:
        lines = [
            f"quadratic_bounds C {self.C!r}",
            f"C_essential {self.C_essential!r}",
            f"C_residual {self.C_residual!r}",
            f"relative_energy {self.energy!r}",
            f"lhs_essential {self.lhs_essential!r}",
            f"lhs_residual {self.lhs_residual!r}",
        ]
        return "\n".join(lines) + "\n"


def quadratic_bounds_check(gas: thermo.GasModel, a: float, fields: gf.FluidState,
                           reference: gf.ReferenceFields, window: EssentialResidualWindow,
                           grid: gf.Grid) -> QuadraticBoundsReport:
    """Fit C in the two-sided control of field distances by the relative energy.

    Essential branch: squared L2 norms of the cutoff-weighted differences in
    (rho, theta, u).  Residual branch: integral of rho |u - u_E|^2 plus the
    residual part of 1 + rho^{5/3} + rho theta + a theta^4.  The cutoff is
    evaluated at the solution state, so vacuum pockets or hot spots push
    mass into the residual branch.  Reference values must sit strictly
    inside the window.
    """
    if not window.contains(reference.rho_E, reference.theta_E):
        raise UsageError("reference values must lie inside the window rectangle")
    theta, u = _recovered_primitives(gas, a, fields, reference)
    energy = relative_energy(gas, a, (fields.rho, theta, u), reference, grid)

    phi = window.cutoff(fields.rho, theta)
    d_rho = fields.rho - reference.rho_E
    d_theta = theta - reference.theta_E
    d_u = u - reference.u_E
    lhs_ess = (
        gf.norm(phi * d_rho, grid, 2) ** 2
        + gf.norm(phi * d_theta, grid, 2) ** 2
        + gf.norm(phi * d_u, grid, 2) ** 2
    )
    tails = 1.0 + fields.rho ** (5.0 / 3.0) + fields.rho * theta + a * theta ** 4
    _, tails_res = essential_residual_split(tails, window, fields.rho, theta)
    lhs_res = gf.integrate(fields.rho * np.sum(d_u ** 2, axis=0), grid) + gf.integrate(
        tails_res, grid
    )

    tiny = 1e-13 * (1.0 + abs(float(np.max(fields.etot))))
    if energy <= tiny:
        if lhs_ess <= tiny and lhs_res <= tiny:
            return QuadraticBoundsReport(0.0, 0.0, 0.0, energy, lhs_ess, lhs_res)
        raise ModelViolationError(
            f"unbounded fit: relative energy {energy} cannot control "
            f"lhs_ess {lhs_ess}, lhs_res {lhs_res}"
        )
    C_ess = lhs_ess / energy
    C_res = lhs_res / energy
    return QuadraticBoundsReport(
        C=max(C_ess, C_res), C_essential=C_ess, C_residual=C_res,
        energy=energy, lhs_essential=lhs_ess, lhs_residual=lhs_res,
    )
