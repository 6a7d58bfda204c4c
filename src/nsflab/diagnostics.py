"""Inequality checks on computed trajectories.

Everything here is post-processing: uniform bounds that must hold across a
dissipation sweep, the velocity interpolation inequality, the relative
energy inequality term by term, and the convergence-rate envelope that the
sweep compares against.

The per-run reports `uniform_bounds` and `rel_energy_inequality_residual`
invert no state and stack nothing: each term is one pass over all stored
instants of the run's own stack `trajectory.W` and `trajectory.thetas`
(filled by `simulate` and `sweep.load_run`), and one `stack_run` forms the
velocity and both gradients for the two (`sweep.write_run_diagnostics`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import euler_reference as er
from . import grid_fields as gf
from . import relative_energy as renergy
from . import thermo
from .errors import DomainError, UsageError


def rate_envelope(scaling: thermo.ScalingParams) -> float:
    """max{a, nu, omega, lambda, nu/sqrt(a), omega/a, (a/sqrt(nu^3 lambda))^(1/3)}.

    The last three terms are singular when a, nu, or lambda vanish, so those
    parameters must be strictly positive here (omega may be zero).
    """
    return max(envelope_terms(scaling).values())


def envelope_terms(scaling: thermo.ScalingParams) -> dict:
    """The seven envelope terms by name, for reports; see `rate_envelope`."""
    a, nu, omega, lam = scaling.a, scaling.nu, scaling.omega, scaling.lam
    if a <= 0.0 or nu <= 0.0 or lam <= 0.0:
        raise DomainError(
            f"rate envelope needs a, nu, lambda > 0, got a={a}, nu={nu}, lambda={lam}"
        )
    return {
        "a": a,
        "nu": nu,
        "omega": omega,
        "lambda": lam,
        "nu_over_sqrt_a": nu / math.sqrt(a),
        "omega_over_a": omega / a,
        "radiation_mix": (a / math.sqrt(nu ** 3 * lam)) ** (1.0 / 3.0),
    }


def interpolation_check(velocities, grid: gf.Grid) -> float:
    """Worst ratio ||u||_4 / (||u||_6^{3/4} ||u||_2^{1/4}) over velocity snapshots.

    Must not exceed 1 + 1e-12 (discrete Hoelder is exact); an all-zero
    snapshot contributes 0 by convention.
    """
    worst = 0.0
    for u in velocities:
        n2 = gf.norm(u, grid, 2)
        if n2 == 0.0:
            continue
        n4 = gf.norm(u, grid, 4)
        n6 = gf.norm(u, grid, 6)
        worst = max(worst, n4 / (n6 ** 0.75 * n2 ** 0.25))
    return worst


# ---------------------------------------------------------------------------
# uniform energy bounds


@dataclass(frozen=True)
class UniformBoundsReport:
    """Sup-in-time state bounds and time-integrated dissipation of one run.

    Across a dissipation sweep with fixed initial data, every entry must
    stay below one constant; that uniformity is what the sweep checks.
    """

    kinetic_sup: float            # sup_t of integral rho |u|^2
    rho_five_thirds_sup: float    # sup_t of integral rho^{5/3}
    rho_theta_sup: float          # sup_t of integral rho theta
    radiation_sup: float          # sup_t of a integral theta^4
    stress_time_integral: float   # nu int_0^T int |grad u + grad u^T - (2/3) div I|^2
    damping_time_integral: float  # lambda int_0^T int |u|^2
    thermal_time_integral: float  # omega int_0^T int (|grad theta|^2 + |log theta|^2)

    def values(self) -> dict:
        return asdict(self)  # by name, in field order

    def to_text(self) -> str:
        return "".join(f"{k} {v!r}\n" for k, v in self.values().items())


@dataclass(frozen=True)
class StackedRun:
    """The stored instants of one run stacked on a member axis, as in a
    solver batch: density, velocity, temperature and the two gradients
    that both per-run reports take."""

    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    grad_u: np.ndarray      # G[i, j] = d_j u_i
    grad_theta: np.ndarray


def stack_run(trajectory) -> StackedRun:
    """The fields `uniform_bounds` and `rel_energy_inequality_residual` take:
    views of the run's W and thetas, and its velocity and gradients, formed
    once.  UsageError when the thetas are not shaped like the stored states."""
    W, theta = trajectory.W, trajectory.thetas
    if np.shape(theta) != W.shape[1:]:
        count = 0 if theta is None else len(theta)
        raise UsageError(f"trajectory holds {count} temperatures for {W.shape[1]} "
                         "states; each stored state needs its own")
    grid = trajectory.config.grid
    u = trajectory.batch().velocity()
    return StackedRun(rho=W[0], u=u, theta=theta,
                      grad_u=gf.interior_gradient(u, grid, vector=True),
                      grad_theta=gf.interior_gradient(theta, grid, vector=False))


def uniform_bounds(trajectory, stacked: StackedRun = None) -> UniformBoundsReport:
    """State and dissipation bounds over the stored instants of one run.

    Temperatures come from `trajectory.thetas`; the weights are the run's
    own scalings.  As in `rel_energy_inequality_residual`, the stored
    instants stack on one axis and each quantity is one expression over
    all of them, whose numbers are bitwise those of one instant at a time.
    `stacked`, when given, is `stack_run(trajectory)`.
    """
    cfg = trajectory.config
    sc = cfg.scaling
    grid = cfg.grid
    times = np.asarray(trajectory.times, dtype=float)
    if stacked is None:
        stacked = stack_run(trajectory)

    def integral(fld):
        return np.ravel(gf.integrate(fld, grid))

    rho, u, theta = stacked.rho, stacked.u, stacked.theta
    u_sq = np.sum(u * u, axis=0)
    # the running maximum from zero over the instants, per quantity
    sups = np.maximum(0.0, np.max([
        integral(rho * u_sq),
        integral(rho ** (5.0 / 3.0)),
        integral(rho * theta),
        sc.a * integral(theta ** 4),
    ], axis=1))
    G, gth = stacked.grad_u, stacked.grad_theta
    rates = np.stack([
        integral(thermo.shear_tensor_sq(G)),
        integral(u_sq),
        integral(np.sum(gth * gth, axis=0) + np.log(theta) ** 2),
    ], axis=1)
    ints = np.trapezoid(rates, times, axis=0)  # zeros for one instant
    return UniformBoundsReport(
        kinetic_sup=float(sups[0]), rho_five_thirds_sup=float(sups[1]),
        rho_theta_sup=float(sups[2]), radiation_sup=float(sups[3]),
        stress_time_integral=float(sc.nu * ints[0]),
        damping_time_integral=float(sc.lam * ints[1]),
        thermal_time_integral=float(sc.omega * ints[2]),
    )


# ---------------------------------------------------------------------------
# relative energy inequality, term by term

_LHS_NAMES = ("energy_change", "weighted_dissipation", "damping_energy")
_RHS_NAMES = (
    "convective_remainder", "stress_cross", "heat_cross", "damping_cross",
    "entropy_velocity", "material_derivative", "pressure_dilation",
    "entropy_transport", "pressure_relaxation",
)


@dataclass(frozen=True)
class RelEnergyResidualReport:
    """Every term of the relative energy inequality, cumulatively in time.

    All entries are running time integrals up to each stored instant
    except `energy`, which is the instantaneous relative energy; the
    inequality asserts residual = LHS - RHS <= discretization error.
    """

    times: tuple
    energy: tuple
    lhs: dict
    rhs: dict
    residual: tuple

    @property
    def max_residual(self) -> float:
        return max(self.residual)

    @property
    def max_excess(self) -> float:
        return max(self.max_residual, 0.0)

    def csv(self) -> str:
        names = _LHS_NAMES + _RHS_NAMES
        header = "t,energy," + ",".join(names) + ",residual"
        cols = [self.times, self.energy]
        cols += [self.lhs[n] for n in _LHS_NAMES]
        cols += [self.rhs[n] for n in _RHS_NAMES]
        cols.append(self.residual)
        lines = [header]
        for row in zip(*cols):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [
            f"instants {len(self.times)}",
            f"final_energy {self.energy[-1]!r}",
            f"sup_energy {max(self.energy)!r}",
            f"max_residual {self.max_residual!r}",
            f"max_excess {self.max_excess!r}",
        ]
        return "\n".join(lines) + "\n"


def _cumulative(rate, times):
    """Running trapezoid integral of rate over times, starting from 0.

    This is scipy.integrate.cumulative_trapezoid(rate, times, initial=0.0),
    written as scipy's own expression so that the bits are the same.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(times) * (rate[1:] + rate[:-1]) / 2.0)))


# the fewest stored instants the residual's second-order time differences take
MIN_INSTANTS = 3


def rel_energy_inequality_residual(trajectory, reference,
                                   stacked: StackedRun = None) -> RelEnergyResidualReport:
    """LHS - RHS of the relative energy inequality against a sampled reference.

    The test trio (r, Theta, U) is the reference trajectory sampled at the
    trajectory's output instants; its time derivatives come from centered
    differences over those instants, spatial derivatives from mirror-ghost
    gradients, and all time integrals from the trapezoid rule.  The state
    temperatures come from `trajectory.thetas`; gas and scalings are the
    run's own.  Each term is one expression over all stored instants at
    once, whose numbers are bitwise those of one instant at a time.  The
    residual must not exceed the discretization error, which refinement
    studies quantify.  `stacked`, when given, is `stack_run(trajectory)`.
    """
    cfg = trajectory.config
    gas = cfg.gas
    sc = cfg.scaling
    tr = cfg.transport
    grid = cfg.grid

    times = np.asarray(trajectory.times, dtype=float)
    if stacked is None:
        stacked = stack_run(trajectory)
    if len(times) < MIN_INSTANTS:
        raise UsageError(f"need at least three stored instants, got {len(times)}")

    # every stored instant at once: the states, thetas and reference samples
    # stack on a member axis (behind any component axis, as in a solver
    # batch), so each rate below is one expression over all instants
    R, TH, U = er.sample_reference(reference, times, grid)
    rho, u, theta = stacked.rho, stacked.u, stacked.theta
    P_ref = thermo.pressure(gas, sc.a, R, TH)
    dU_dt = np.gradient(U, times, axis=1, edge_order=2)
    dTH_dt = np.gradient(TH, times, axis=0, edge_order=2)
    dP_dt = np.gradient(P_ref, times, axis=0, edge_order=2)

    G, gth = stacked.grad_u, stacked.grad_theta
    S = thermo.stress_tensor(tr, sc.nu, theta, G)
    q = thermo.heat_flux(tr, sc.omega, theta, gth)
    s_f = thermo.entropy(gas, sc.a, rho, theta)
    s_r = thermo.entropy(gas, sc.a, R, TH)
    p_f = thermo.pressure(gas, sc.a, rho, theta)

    G_E = gf.interior_gradient(U, grid, vector=True)
    gTH = gf.interior_gradient(TH, grid, vector=False)
    gP = gf.interior_gradient(P_ref, grid, vector=False)
    div_U = np.trace(G_E, axis1=0, axis2=1)
    v = u - U
    ds = rho * (s_f - s_r)

    def integral(fld):
        return np.ravel(gf.integrate(fld, grid))

    energy = np.ravel(renergy.relative_energy(gas, sc.a, (rho, theta, u), (R, TH, U), grid))
    S_Gu = np.sum(S * G, axis=(0, 1))
    q_gth = np.sum(q * gth, axis=0)
    acc = dU_dt + np.einsum("j...,ij...->i...", U, G_E)
    lhs_rate = {
        "weighted_dissipation": integral(TH / theta * (S_Gu - q_gth / theta)),
        "damping_energy": sc.lam * integral(np.sum(u * u, axis=0)),
    }
    rhs_rate = {
        "convective_remainder": -integral(rho * np.einsum("i...,ij...,j...->...", v, G_E, v)),
        "stress_cross": integral(np.sum(S * G_E, axis=(0, 1))),
        "heat_cross": -integral(np.sum(q * gTH, axis=0) / theta),
        "damping_cross": sc.lam * integral(np.sum(u * U, axis=0)),
        "entropy_velocity": -integral(ds * np.sum(v * gTH, axis=0)),
        "material_derivative": -integral(rho * np.sum(acc * v, axis=0)),
        "pressure_dilation": -integral(p_f * div_U),
        "entropy_transport": -integral(ds * (dTH_dt + np.sum(U * gTH, axis=0))),
        "pressure_relaxation": integral(
            (1.0 - rho / R) * dP_dt - (rho / R) * np.sum(u * gP, axis=0)),
    }

    lhs = {"energy_change": energy - energy[0]}
    for name in _LHS_NAMES[1:]:
        lhs[name] = _cumulative(lhs_rate[name], times)
    rhs = {name: _cumulative(rhs_rate[name], times) for name in _RHS_NAMES}
    residual = sum(lhs.values()) - sum(rhs.values())

    def plain(arr):
        return tuple(float(v) for v in arr)

    return RelEnergyResidualReport(
        times=plain(times), energy=plain(energy),
        lhs={n: plain(v) for n, v in lhs.items()},
        rhs={n: plain(v) for n, v in rhs.items()},
        residual=plain(residual),
    )
