"""Constitutive closures for a monatomic gas with a radiative component.

The molecular part is scale-invariant: p_M = theta^{5/2} P(Z) with
Z = rho / theta^{3/2}, and the matching internal energy and entropy

    e_M = (3/2) (theta^{5/2}/rho) P(Z),      s_M = S(Z),
    S'(Z) = -(3/2) [(5/3) P(Z) - P'(Z) Z] / Z^2,

so that theta Ds = De + p D(1/rho) holds identically.  Radiation adds
p_R = (a/3) theta^4, e_R = a theta^4 / rho, s_R = (4a/3) theta^3 / rho,
which satisfies the same relation on its own.  Everything below is
dimensionless and vectorized over numpy arrays.  theta is recovered from
(rho, rho e) by one inversion, `admissible_temperature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ModelViolationError, QuadratureError

_EPS = np.finfo(float).eps
_FD_REL = _EPS ** (1.0 / 3.0)  # optimal centered-difference step scale

# constants of the step path as 0-d float64 arrays, keyed by their value: as
# a ufunc operand against float64 arrays one gives the bits of the Python
# float, without the conversion numpy makes of a Python float on every call
_0D = {v: np.asarray(v) for v in (0.0, 0.5, 1.5, 2.5, 4.0, _EPS, 4.0 / 3.0, 2.0 / 3.0)}


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class GasModel:
    """Molecular pressure profile P(Z) and entropy normalization.

    P_inf is the declared large-Z limit of P(Z)/Z^{5/3}; asym_rtol is the
    relative tolerance used when certifying that limit.  S_closed, when
    given, is a closed-form S(Z) used instead of quadrature.
    """

    name: str
    P: Callable[[np.ndarray], np.ndarray]
    dP: Callable[[np.ndarray], np.ndarray]
    S0: float = 0.0
    P_inf: float = 0.0
    asym_rtol: float = 1e-6
    S_closed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    law_text: Optional[str] = None

    @property
    def ideal(self) -> bool:
        """The one test of the ideal law: P and P' are `ideal_gas`'s own."""
        return self.P is _ideal_P and self.dP is _ideal_dP


@dataclass(frozen=True)
class TransportModel:
    """Temperature-dependent viscosities and conductivity.

    b in (2/5, 1] is the growth exponent governing mu and eta; the declared
    constants are the model's own claims, re-fitted by hypothesis_report.
    """

    name: str
    mu: Callable[[np.ndarray], np.ndarray]
    eta: Callable[[np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray]
    b: float = 1.0

    def __post_init__(self):
        if not (0.4 < self.b <= 1.0):
            raise ModelViolationError(f"growth exponent b={self.b} outside (2/5, 1]")


@dataclass(frozen=True)
class ScalingParams:
    """Dissipation scales: radiation a, viscosity nu, conductivity omega, damping lam.

    Each is a float; the scaling of a solver batch holds arrays instead,
    one value per member (see `nsf_solver.simulate_batch`).
    """

    a: float
    nu: float
    omega: float
    lam: float

    def __post_init__(self):
        vals = (self.a, self.nu, self.omega, self.lam)
        if not all(np.isfinite(v).all() for v in vals):
            raise DomainError(f"non-finite scaling parameters {vals}")
        if any((np.asarray(v) < 0).any() for v in vals):
            raise DomainError(f"negative scaling parameters {vals}")

    @cached_property
    def zeros(self) -> tuple:
        """Which of a, nu, omega, lam are zero (for every member of a batch)."""
        return tuple(not np.any(v) for v in (self.a, self.nu, self.omega, self.lam))


def _ideal_P(z):
    return np.asarray(z, dtype=float)


def _ideal_dP(z):
    return np.ones_like(np.asarray(z, dtype=float))


def ideal_gas(S0: float = 0.0) -> GasModel:
    """P(Z) = Z: p_M = rho theta, e_M = (3/2) theta, s_M = S0 - log Z."""
    return GasModel(
        name="ideal",
        P=_ideal_P,
        dP=_ideal_dP,
        S0=S0,
        P_inf=0.0,
        S_closed=lambda z: S0 - np.log(z),
        law_text="Z",
    )


def gas_from_expression(name: str, text: str, S0: float, P_inf: float,
                        asym_rtol: float = 1e-6) -> GasModel:
    from .expr import parse_pressure_law  # sympy loads only for a custom law

    law = parse_pressure_law(text)
    return GasModel(name=name, P=law.P, dP=law.dP, S0=S0, P_inf=P_inf,
                    asym_rtol=asym_rtol, law_text=text)


def default_transport() -> TransportModel:
    return TransportModel(
        name="default",
        mu=lambda t: 1.0 + np.asarray(t, dtype=float),
        eta=lambda t: (1.0 + np.asarray(t, dtype=float)) / 10.0,
        kappa=lambda t: 1.0 + np.asarray(t, dtype=float) ** 3,
        b=1.0,
    )


def sublinear_transport(b: float) -> TransportModel:
    """Generalized growth mu ~ 1 + theta^b with b in (2/5, 1)."""
    return TransportModel(
        name=f"sublinear-b{b:g}",
        mu=lambda t: 1.0 + np.asarray(t, dtype=float) ** b,
        eta=lambda t: (1.0 + np.asarray(t, dtype=float) ** b) / 10.0,
        kappa=lambda t: 1.0 + np.asarray(t, dtype=float) ** 3,
        b=b,
    )


# ---------------------------------------------------------------------------
# state helpers


def _check_state(rho, theta, allow_zero_rho=False):
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (np.isfinite(rho).all() and np.isfinite(theta).all()):
        raise DomainError("non-finite thermodynamic state")
    if (theta <= 0.0).any():
        raise DomainError("temperature must be positive")
    if allow_zero_rho:
        if (rho < 0.0).any():
            raise DomainError("density must be nonnegative")
    else:
        if (rho <= 0.0).any():
            raise DomainError("density must be positive")
    return rho, theta


def Z_of(rho, theta):
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return rho * theta ** -1.5


# ---------------------------------------------------------------------------
# pressure / energy / entropy


def pressure_parts(gas: GasModel, a: float, rho, theta):
    """(molecular, radiative) pressure parts."""
    rho, theta = _check_state(rho, theta, allow_zero_rho=True)
    return theta ** 2.5 * _P_at(gas, Z_of(rho, theta)), (a / 3.0) * theta ** 4


def pressure(gas: GasModel, a: float, rho, theta):
    p_mol, p_rad = pressure_parts(gas, a, rho, theta)
    return p_mol + p_rad


def internal_energy(gas: GasModel, a: float, rho, theta):
    """Specific internal energy e = e_M + a theta^4 / rho (rho > 0)."""
    rho, theta = _check_state(rho, theta)
    return _internal_energy_density(gas, a, rho, theta) / rho


def internal_energy_density(gas: GasModel, a: float, rho, theta):
    """rho e; well defined down to rho = 0 where it returns a theta^4."""
    return _internal_energy_density(gas, a, *_check_state(rho, theta, allow_zero_rho=True))


def _internal_energy_density(gas, a, rho, theta):
    return 1.5 * theta ** 2.5 * gas.P(Z_of(rho, theta)) + a * theta ** 4


def entropy_S(gas: GasModel, Z):
    """S(Z): closed form when available, else adaptive quadrature from Z=1."""
    if gas.S_closed is not None:
        return gas.S_closed(np.asarray(Z, dtype=float))
    return _S_quadrature(gas, Z)


def dS_dZ(gas: GasModel, Z):
    z = np.asarray(Z, dtype=float)
    return -1.5 * ((5.0 / 3.0) * gas.P(z) - gas.dP(z) * z) / z ** 2


def _S_quadrature(gas: GasModel, Z):
    # only custom laws without a closed-form S get here; scipy loads then
    from scipy.integrate import quad

    z = np.atleast_1d(np.asarray(Z, dtype=float))
    if np.any(z <= 0.0):
        raise DomainError("S(Z) quadrature requires Z > 0")
    flat = z.ravel()
    pts = np.unique(np.concatenate((flat, [1.0])))

    def integrand(x):
        return float(dS_dZ(gas, x))

    segs = np.zeros(len(pts) - 1)
    for i in range(len(pts) - 1):
        lo, hi = pts[i], pts[i + 1]
        if hi - lo == 0.0:
            continue
        out = quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-12, limit=200,
                   full_output=1)
        val, abserr = out[0], out[1]
        if len(out) > 3:  # explanation message present => non-convergence
            raise QuadratureError(f"entropy quadrature failed on [{lo:g},{hi:g}] "
                                  f"(achieved tolerance {abserr:.3e})")
        segs[i] = val
    cum = np.concatenate(([0.0], np.cumsum(segs)))
    anchor = float(cum[np.searchsorted(pts, 1.0)])
    svals = gas.S0 + cum[np.searchsorted(pts, flat)] - anchor
    out = svals.reshape(z.shape)
    return out if np.ndim(Z) else float(out[()] if out.shape == () else out[0])


def entropy(gas: GasModel, a: float, rho, theta):
    """Specific entropy s = S(Z) + (4a/3) theta^3 / rho (rho > 0)."""
    rho, theta = _check_state(rho, theta)
    return entropy_S(gas, Z_of(rho, theta)) + (4.0 * a / 3.0) * theta ** 3 / rho


def entropy_density(gas: GasModel, a: float, rho, theta):
    """rho s, continued by 0 * S -> 0 at rho = 0 (rho log rho vanishes)."""
    rho, theta = _check_state(rho, theta, allow_zero_rho=True)
    scalar = np.ndim(rho) == 0 and np.ndim(theta) == 0
    rho_b, theta_b = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(theta))
    out = (4.0 * a / 3.0) * theta_b.astype(float) ** 3
    pos = rho_b > 0.0
    if np.any(pos):
        out[pos] += rho_b[pos] * np.asarray(entropy_S(gas, Z_of(rho_b[pos], theta_b[pos])))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# derivatives of the closures (exact, via P and P'): each checks its state
# once, then evaluates the step path's `_law_at`, `_stability` and `_cv_of`


def heat_capacity_cv(gas: GasModel, rho, theta):
    """c_v = d e_M / d theta = (3/2) [(5/2) P(Z) - (3/2) Z P'(Z)] / Z; > 0."""
    rho, theta = _check_state(rho, theta)
    z = Z_of(rho, theta)
    return _cv_of(_stability(z, *_law_at(gas, z)), z)


def cv_total(gas: GasModel, a: float, rho, theta):
    """d e / d theta for the full closure, radiation included."""
    rho, theta = _check_state(rho, theta)
    z = Z_of(rho, theta)
    return _cv_of(_stability(z, *_law_at(gas, z)), z) + 4.0 * a * theta ** 3 / rho


def dp_dtheta(gas: GasModel, a: float, rho, theta):
    """dp/dtheta at fixed rho, down to rho = 0: it takes no division by c_v."""
    rho, theta = _check_state(rho, theta, allow_zero_rho=True)
    z = Z_of(rho, theta)
    return theta ** 1.5 * _stability(z, *_law_at(gas, z)) + (4.0 * a / 3.0) * theta ** 3


def sound_speed_sq(gas: GasModel, a: float, rho, theta):
    """c_s^2 = dp/drho|_theta + theta (dp/dtheta|_rho)^2 / (rho^2 de/dtheta).

    For P(Z)=Z, a=0 this is (5/3) theta, the monatomic adiabatic speed.
    """
    return _sound_speed_sq_cv(gas, a, *_check_state(rho, theta))[0]


def _P_at(gas, z):
    """P(Z); z itself for the ideal law (`GasModel.ideal`)."""
    return z if gas.ideal else gas.P(z)


def _law_at(gas, z):
    """P(Z) and P'(Z).  For the ideal law (`GasModel.ideal`) they are z
    itself and None, standing for P' = 1, whose products the closures
    skip: x * 1.0 is x bitwise."""
    if gas.ideal:
        return z, None
    return gas.P(z), gas.dP(z)


def _stability(z, P, dP):
    """(5/2) P(Z) - (3/2) Z P'(Z) on `_law_at`'s P(Z) and P'(Z)."""
    stab = _0D[2.5] * P
    stab -= _0D[1.5] * z if dP is None else _0D[1.5] * z * dP
    return stab


def _cv_of(stab, z):
    """The molecular c_v = (3/2) stab / Z; ModelViolationError where c_v <= 0."""
    cv = _0D[1.5] * stab
    cv /= z
    if np.count_nonzero(cv <= _0D[0.0]):
        raise ModelViolationError("c_v <= 0: closure violates thermal stability")
    return cv


def _sound_speed_sq_cv(gas, a, rho, theta):
    """(c_s^2, molecular c_v, P(Z)) on a checked state from one Z, P(Z),
    P'(Z) and theta^3: the bits of `sound_speed_sq` and `heat_capacity_cv`."""
    # c_s^2 = dp/drho + theta (dp/dtheta)^2 / (rho^2 cv_total), with dp/drho
    # = theta P'(Z), in the operations of `dp_dtheta` and `cv_total`
    # (products and sums commute bitwise); every temporary is this
    # function's own and is updated in place, and every scalar is a 0-d
    # array (_0D)
    z = rho * theta ** -1.5
    P, dP = _law_at(gas, z)
    theta3 = theta ** 3
    stab = _stability(z, P, dP)
    cv = _cv_of(stab, z)
    num = theta ** 1.5 * stab
    num += np.asarray(4.0 * a / 3.0) * theta3
    den = np.asarray(4.0 * a) * theta3
    den /= rho
    den += cv
    den *= rho ** 2
    num *= num
    num *= theta
    num /= den
    num += theta if dP is None else theta * dP
    return np.maximum(num, _0D[_EPS]), cv, P


def _invert_molecular(gas, a, rho, e, rtol, max_iter):
    # bracketed Newton on F(theta) = 1.5 theta^{5/2} P(Z) + a theta^4 - e,
    # strictly increasing in theta for any admissible P
    def F(r, ev, th):
        z = r * th ** -1.5
        return 1.5 * th ** 2.5 * gas.P(z) + a * th ** 4 - ev

    t0 = e / (1.5 * rho)
    if a > 0.0:
        t0 = np.minimum(t0, (e / a) ** 0.25)
    lo = np.maximum(t0, 1e-30)
    f_lo = F(rho, e, lo)
    for _ in range(400):
        m = f_lo >= 0.0
        if not np.count_nonzero(m):
            break
        lo[m] *= 0.5
        if np.count_nonzero(lo[m] < 1e-120):
            raise DomainError(
                "no positive temperature: energy density at or below the "
                "zero-temperature compression bound"
            )
        f_lo[m] = F(rho[m], e[m], lo[m])
    else:
        raise DomainError("temperature bracket search failed from below")
    hi = np.maximum(2.0 * t0, 2.0 * lo)
    f_hi = F(rho, e, hi)
    for _ in range(400):
        m = f_hi <= 0.0
        if not np.count_nonzero(m):
            break
        hi[m] *= 2.0
        f_hi[m] = F(rho[m], e[m], hi[m])
    else:
        raise DomainError("temperature bracket search failed from above")

    th = np.sqrt(lo * hi)
    for _ in range(max_iter):
        z = rho * th ** -1.5
        f = 1.5 * th ** 2.5 * gas.P(z) + a * th ** 4 - e
        lo = np.where(f < 0.0, th, lo)
        hi = np.where(f > 0.0, th, hi)
        df = 1.5 * (2.5 * th ** 1.5 * gas.P(z) - 1.5 * rho * gas.dP(z)) + 4.0 * a * th ** 3
        new = th - f / np.maximum(df, 1e-300)
        off = ~np.isfinite(new) | (new < lo) | (new > hi)
        new = np.where(off, 0.5 * (lo + hi), new)
        done = np.abs(new - th) <= rtol * np.abs(new)
        th = new
        if np.count_nonzero(done) == done.size:
            return th
    raise DomainError(f"bracketed temperature inversion did not converge in {max_iter} steps")


def _invert_ideal(a, rho, e, rtol, max_iter, starts=None):
    # 1.5 rho theta + a theta^4 = e; both terms are nonnegative, so each of
    # e/(1.5 rho) and (e/a)^{1/4} bounds the root from above, and on a convex
    # increasing left side Newton iterates from above fall monotonically.
    # a is a float, or an array that broadcasts against rho.  With
    # `starts`, the offsets of segments in the flattened arrays (see
    # _segments), the segments share the loop only while they stop
    # together: one count over the whole array tells whether all, none or
    # some elements converged, and only in the last case does one reduceat
    # tell whether a segment did.  Segments that part ways there, or whose
    # a mixes 0 and > 0, get None back, for `_invert` to invert each alone.
    # Each Newton step is new = th - (th (c + at3) - e) / (c + 4 at3) with
    # at3 = a th^3, and done where |new - th| <= rtol new, computed in place
    # on three buffers in the same operations (products and sums commute),
    # each ufunc given its output positionally and its scalars as 0-d
    # arrays (see _0D)
    radiating = np.count_nonzero(a) / a.size if isinstance(a, np.ndarray) else a != 0.0
    if not radiating:
        return e / (1.5 * rho)
    if radiating < 1:
        return None
    mul, add, sub = np.multiply, np.add, np.subtract
    c = _0D[1.5] * rho
    th = np.minimum(e / c, (e / a) ** 0.25)
    a, four, rtol = np.asarray(a), _0D[4.0], np.asarray(rtol)
    new, f, df = np.empty((3, *th.shape))
    for _ in range(max_iter):
        mul(a, th, f)
        mul(f, th, f)
        mul(f, th, f)                       # at3
        mul(f, four, df)
        add(df, c, df)                      # c + 4 at3
        add(f, c, f)
        mul(f, th, f)
        sub(f, e, f)                        # th (c + at3) - e
        np.divide(f, df, f)
        sub(th, f, new)
        sub(new, th, f)
        np.abs(f, f)
        mul(new, rtol, df)
        done = f <= df
        count = np.count_nonzero(done)
        if count == done.size:
            return new
        if count and starts is not None and len(starts) > 1 and \
                np.count_nonzero(np.logical_and.reduceat(done.reshape(-1), starts)):
            return None
        th, new = new, th
    raise DomainError(f"ideal-gas temperature inversion did not converge in {max_iter} steps")


# parts joined in one inversion hold at most this many elements: past it,
# the dozen arrays of the Newton loop outgrow a core's 2 MB L2 cache, and
# the parts are inverted one at a time (a joined 1-D stage of 12,290
# elements inverts 6% faster than its two parts alone, one of 24,578
# elements 70% slower)
_JOIN_LIMIT = 8192


def _segments(a, rhos, es):
    """The parts' rho and e side by side, each member's part one contiguous
    segment: (a, rho, e, starts, split).

    rho and e get one row per member (one row without a member axis), which
    holds that member's parts one after the other, and a batch's a one
    value per row; a lone part with a float a passes through as it is,
    with starts None.  starts lists the segments' offsets in the flattened
    rows, and split(theta) gives back each part's theta, shaped like its
    rho.  A part's member axis is rho.ndim - a.ndim.
    """
    if getattr(a, "ndim", 0) == 0:
        if len(rhos) == 1:
            return float(a), rhos[0], es[0], None, _whole
        members, axes, a = 1, [0] * len(rhos), float(a)
    else:
        members, axes = a.size, [r.ndim - a.ndim for r in rhos]
        a = a.reshape(members, 1)
    # a part's place in the row (offset, width) and its lead: the size of
    # the axes before its member axis, each of which holds a contiguous
    # piece of every member
    layout, row = [], 0
    for r, ax in zip(rhos, axes):
        layout.append((row, r.size // members, math.prod(r.shape[:ax]), r.shape))
        row += r.size // members
    if members == 1:
        both = np.concatenate([x.reshape(-1) for x in (*rhos, *es)]).reshape(2, 1, row)
    elif len(rhos) == 1 and layout[0][2] == 1:  # one part whose rows are already its members'
        both = (rhos[0].reshape(members, row), es[0].reshape(members, row))
    else:
        both = np.empty((2, members, row))
        for parts, out in ((rhos, both[0]), (es, both[1])):
            pieces = []  # (members, width / lead) each, in row order
            for x, (_, _, lead, _) in zip(parts, layout):
                pieces += (list(x.reshape(lead, members, -1)) if lead > 1
                           else [x.reshape(members, -1)])
            np.concatenate(pieces, axis=1, out=out)
    starts = [k * row + offset for k in range(members) for offset, *_ in layout]

    def split(theta):
        parts = []
        for offset, width, lead, shape in layout:
            part = theta[:, offset:offset + width]
            if lead > 1:  # contiguous again, for the closures that read it
                part = np.ascontiguousarray(part.reshape(members, lead, -1).swapaxes(0, 1))
            parts.append(part.reshape(shape))
        return tuple(parts)

    return a, both[0], both[1], starts, split


def _whole(theta):
    return (theta,)


def _invert(gas, a, rho, e, starts):
    """theta on finite arrays rho > 0, e > 0 to relative tolerance 1e-12 in
    at most 160 steps: the ideal law's Newton iteration (`GasModel.ideal`)
    or the bracketed one.  The ideal law's segments (see _segments)
    share one loop while they stop together; segments that part ways, and
    every segment of another law, are inverted one at a time, each from
    its own start."""
    if gas.ideal:  # None only where segments part ways or a mixes 0 and > 0
        theta = _invert_ideal(a, rho, e, 1e-12, 160, starts)
        if theta is not None:
            return theta
    if starts is None:
        return _invert_molecular(gas, a, rho, e, 1e-12, 160)
    shape = rho.shape
    a, rho, e = np.broadcast_to(a, shape).reshape(-1), rho.reshape(-1), e.reshape(-1)
    ends = list(starts[1:]) + [rho.size]
    return np.concatenate([_invert(gas, float(a[lo]), rho[lo:hi], e[lo:hi], None)
                           for lo, hi in zip(starts, ends)]).reshape(shape)


def admissible_temperature(gas: GasModel, a, rho, e_density):
    """theta solving 1.5 theta^{5/2} P(Z) + a theta^4 = e_density on arrays
    whose rho > 0 and e_density > 0 the caller has proven.

    The package's one inversion: `nsf_solver.recover_temperature` (states
    of both solvers), the stages of `nsf_solver.rhs_nsf` (a stage's cells
    and faces together) and gate 6's relative-energy check (the cells with
    rho > 0) call it.  The left side is strictly increasing in theta, so
    the root is unique.  The ideal law P(Z) = Z (`GasModel.ideal`) gives
    e / (1.5 rho) exactly at a = 0, and at a > 0 Newton's method falling
    monotonically from an upper bound (the left side is convex); any other
    law, an expression law "Z" included, takes a bracketed Newton
    iteration.  Both stop at relative tolerance 1e-12 and raise DomainError
    if 160 steps do not reach it.

    a is a float, or for a batch one value per member, shaped to broadcast
    against rho, whose axis rho.ndim - a.ndim is then the member axis.
    rho and e_density are arrays, or tuples of arrays (parts), inverted in
    one call that returns a tuple of thetas.  Each member of each part is a
    segment whose theta is bitwise the one inverted on that member's part
    alone: a lone array with a float a is one segment, a batch one segment
    per member.  The parts are joined in one Newton loop up to _JOIN_LIMIT
    elements, and inverted one at a time past it.  Segments that stop at
    different Newton steps are inverted again one at a time, and the
    members of a batch whose a mixes 0 and > 0 are so from the start.
    Only finiteness is checked: DomainError "non-finite inputs to
    temperature inversion" before any inversion.
    """
    parts = isinstance(rho, tuple)
    rhos, es = (rho, e_density) if parts else ((rho,), (e_density,))
    if len(rhos) == 1 or sum(r.size for r in rhos) <= _JOIN_LIMIT:
        joined = [_segments(a, rhos, es)]
    else:
        joined = [_segments(a, (r,), (x,)) for r, x in zip(rhos, es)]
    for _, r, x, _, _ in joined:
        if np.count_nonzero(np.isfinite(r)) != r.size or \
                np.count_nonzero(np.isfinite(x)) != x.size:
            raise DomainError("non-finite inputs to temperature inversion")
    thetas = sum((split(_invert(gas, a_j, r, x, starts))
                  for a_j, r, x, starts, split in joined), ())
    return thetas if parts else thetas[0]


def _closures_at(gas, a, rho, theta):
    """(p, c_s^2) at a temperature the caller has recovered on rho > 0.

    Bitwise `pressure` and `sound_speed_sq` at that theta: Z, P(Z), P'(Z)
    and theta^3 are evaluated once each and serve both, in the expression
    order of the separate closures, whatever the law.  Only c_v is
    checked: ModelViolationError for c_v <= 0.
    """
    c2, _, P = _sound_speed_sq_cv(gas, a, rho, theta)
    p = theta ** 2.5 * P
    p += np.asarray(a / 3.0) * theta ** 4  # the two `pressure_parts`, summed
    return p, c2


# ---------------------------------------------------------------------------
# transport fluxes


def stress_tensor(transport: TransportModel, nu: float, theta, grad_u):
    """nu [ mu(theta)(G + G^T - (2/3) tr(G) I) + eta(theta) tr(G) I ].

    grad_u has shape (d, d, ...) with G[i, j] = d u_i / d x_j; theta
    broadcasts against the trailing field axes.  The deviatoric factor 2/3
    is the three-dimensional one regardless of d (lower-dimensional fields
    are planar sections of 3-D flow).
    """
    G = np.asarray(grad_u, dtype=float)
    d = G.shape[0]
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise DomainError("temperature must be positive")
    div = np.trace(G, axis1=0, axis2=1)
    sym = G + np.swapaxes(G, 0, 1)
    mu = transport.mu(theta)
    eta = transport.eta(theta)
    S = nu * mu * sym
    iso = nu * (eta - (2.0 / 3.0) * mu) * div
    for i in range(d):
        S[i, i] += iso
    return S


def heat_flux(transport: TransportModel, omega: float, theta, grad_theta):
    """Fourier flux q = -omega kappa(theta) grad(theta)."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise DomainError("temperature must be positive")
    return -omega * transport.kappa(theta) * np.asarray(grad_theta, dtype=float)


def shear_tensor_sq(grad_u):
    """|G + G^T - (2/3) tr(G) I|^2 with the 3-D trace embedding.

    For d < 3 the suppressed diagonal entries -(2/3) tr(G) are included, so
    the value matches the full 3-D tensor norm of a planar field.
    """
    G = np.asarray(grad_u, dtype=float)
    d = G.shape[0]
    div = np.trace(G, axis1=0, axis2=1)
    sym = G + np.swapaxes(G, 0, 1)
    total = np.zeros_like(div)
    for i in range(d):
        for j in range(d):
            A = sym[i, j] - (2.0 / 3.0) * div * (1.0 if i == j else 0.0)
            total = total + A ** 2
    total = total + (3 - d) * ((2.0 / 3.0) * div) ** 2
    return total


# ---------------------------------------------------------------------------
# Gibbs-relation checks


def gibbs_residual_from(p_fn, e_fn, s_fn, rho, theta):
    """Residuals of theta Ds = De + p D(1/rho) for arbitrary closures.

    Returns (theta ds/dtheta - de/dtheta,
             theta ds/drho - de/drho + p/rho^2),
    with centered differences of relative step eps^(1/3).
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ht = _FD_REL * np.maximum(np.abs(theta), 1e-8)
    hr = _FD_REL * np.maximum(np.abs(rho), 1e-8)
    ds_dt = (s_fn(rho, theta + ht) - s_fn(rho, theta - ht)) / (2.0 * ht)
    de_dt = (e_fn(rho, theta + ht) - e_fn(rho, theta - ht)) / (2.0 * ht)
    ds_dr = (s_fn(rho + hr, theta) - s_fn(rho - hr, theta)) / (2.0 * hr)
    de_dr = (e_fn(rho + hr, theta) - e_fn(rho - hr, theta)) / (2.0 * hr)
    res1 = theta * ds_dt - de_dt
    res2 = theta * ds_dr - de_dr + p_fn(rho, theta) / rho ** 2
    return res1, res2


def gibbs_residual(gas: GasModel, a: float, rho, theta):
    """Gibbs residual pair for the full closures (molecular + radiation)."""
    rho, theta = _check_state(rho, theta)
    return gibbs_residual_from(
        lambda r, t: pressure(gas, a, r, t),
        lambda r, t: internal_energy(gas, a, r, t),
        lambda r, t: entropy(gas, a, r, t),
        rho, theta,
    )


# ---------------------------------------------------------------------------
# hypothesis certification


@dataclass(frozen=True)
class HypothesisCheck:
    label: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]

    def __getitem__(self, label: str) -> HypothesisCheck:
        for c in self.checks:
            if c.label == label:
                return c
        raise KeyError(label)

    def passed(self, label: str) -> bool:
        return self[label].passed

    def pattern(self) -> dict:
        return {c.label: c.passed for c in self.checks}

    def format_lines(self) -> list[str]:
        return [
            f"{c.label} {'PASS' if c.passed else 'FAIL'}  {c.witness}"
            for c in self.checks
        ]


def _tail_bounded(theta_grid, values, factor=2.0):
    """True when the sup of |values| over the last decade of theta_grid does

    not exceed `factor` times the sup over the decade before it (a finite-grid
    stand-in for boundedness as theta grows)."""
    t = np.asarray(theta_grid, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    tmax = t.max()
    last = v[t >= tmax / 10.0]
    prev = v[(t >= tmax / 100.0) & (t < tmax / 10.0)]
    if len(prev) == 0 or len(last) == 0:
        return True, 1.0
    ratio = float(last.max() / max(prev.max(), 1e-300))
    return ratio <= factor, ratio


# np.logspace arguments of the Z samples (H2-H7) and theta samples (H8, H9)
_HYPOTHESIS_Z = (-3, 3, 121)
_HYPOTHESIS_THETA = (-2, 2, 81)


def hypothesis_report(gas: GasModel, transport: TransportModel) -> HypothesisReport:
    """Certify the structural requirements on P, S and the transport laws.

    Labels:
      H2: P(0) = 0 and P' > 0 including at Z = 0.
      H3: 0 < [(5/3)P - P'Z]/Z bounded on the grid, and P/Z^{5/3} approaches
          the declared P_inf at the largest sampled Z.
      H6: S' < 0 on the grid.
      H7: S(Z) -> 0 as Z grows (decay of |S| along the grid tail).
      H8: mu >= mu_low (1+theta^b) with positive fitted mu_low, |mu'| bounded
          (tail-growth criterion), 0 <= eta <= eta_up (1+theta^b).
      H9: kappa/(1+theta^3) bounded between positive fitted constants.
    Every label yields pass/fail plus a witness string; nothing raises.
    """
    z = np.logspace(*_HYPOTHESIS_Z)
    th = np.logspace(*_HYPOTHESIS_THETA)
    checks = []

    # H2
    P0 = float(gas.P(np.asarray(0.0)))
    dP_pts = np.concatenate(([float(gas.dP(np.asarray(0.0)))], np.asarray(gas.dP(z), dtype=float).ravel()))
    z_pts = np.concatenate(([0.0], z))
    ok = abs(P0) <= 1e-14 and bool(np.all(dP_pts > 0.0))
    if ok:
        wit = f"P(0)={P0:.1e}, min P'={dP_pts.min():.6g}"
    else:
        bad = z_pts[np.argmin(dP_pts)] if np.any(dP_pts <= 0.0) else 0.0
        wit = f"P(0)={P0:.3e}, P'({bad:g})={dP_pts.min():.3e}"
    checks.append(HypothesisCheck("H2", ok, wit))

    # H3: ratio bounds + asymptote approach
    ratio = ((5.0 / 3.0) * np.asarray(gas.P(z)) - np.asarray(gas.dP(z)) * z) / z
    ratio_ok = bool(np.all(ratio > 0.0)) and bool(np.all(np.isfinite(ratio)))
    v = np.asarray(gas.P(z)) / z ** (5.0 / 3.0)
    i_mid = int(np.argmin(np.abs(z - math.sqrt(z.max()))))
    d_end = abs(float(v[-1]) - gas.P_inf)
    d_mid = abs(float(v[i_mid]) - gas.P_inf)
    asym_ok = d_end <= gas.asym_rtol * (1.0 + abs(gas.P_inf)) or d_end <= 0.5 * d_mid
    ok = ratio_ok and asym_ok
    wit = (f"ratio in [{ratio.min():.6g}, {ratio.max():.6g}], "
           f"|P/Z^(5/3) - P_inf| = {d_end:.3e} at Z={z[-1]:g}")
    checks.append(HypothesisCheck("H3", ok, wit))

    # H6
    sprime = np.asarray(dS_dZ(gas, z))
    ok = bool(np.all(sprime < 0.0))
    wit = f"max S' = {sprime.max():.6g}" if ok else f"S'({z[np.argmax(sprime)]:g}) = {sprime.max():.3e}"
    checks.append(HypothesisCheck("H6", ok, wit))

    # H7: |S| must decay along the tail toward 0
    try:
        S_end = float(np.asarray(entropy_S(gas, z[-1])))
        S_mid = float(np.asarray(entropy_S(gas, z[i_mid])))
        ok = abs(S_end) <= 1e-8 or abs(S_end) <= 0.5 * abs(S_mid)
        wit = f"S({z[i_mid]:g}) = {S_mid:.6g}, S({z[-1]:g}) = {S_end:.6g}"
    except QuadratureError as err:
        ok, wit = False, f"quadrature failed: {err}"
    checks.append(HypothesisCheck("H7", ok, wit))

    # H8: mu lower bound, |mu'| tail-bounded, eta within [0, eta_up (1+theta^b)]
    base = 1.0 + th ** transport.b
    mu = np.asarray(transport.mu(th), dtype=float)
    eta = np.asarray(transport.eta(th), dtype=float)
    hm = _FD_REL * th
    dmu = (np.asarray(transport.mu(th + hm)) - np.asarray(transport.mu(th - hm))) / (2 * hm)
    mu_low = float((mu / base).min())
    mu_ratio_ok, mu_growth = _tail_bounded(th, mu / base)
    dmu_ok, dmu_growth = _tail_bounded(th, dmu)
    eta_up = float((eta / base).max())
    eta_ok = bool(np.all(eta >= -1e-14)) and _tail_bounded(th, eta / base)[0]
    ok = mu_low > 0.0 and mu_ratio_ok and dmu_ok and eta_ok
    wit = (f"fitted mu_low={mu_low:.6g}, sup|mu'| tail growth {dmu_growth:.3g}x, "
           f"fitted eta_up={eta_up:.6g}" + ("" if ok else f"; witness theta={th.max():g}"))
    checks.append(HypothesisCheck("H8", ok, wit))

    # H9
    kap = np.asarray(transport.kappa(th), dtype=float) / (1.0 + th ** 3)
    kap_low, kap_up = float(kap.min()), float(kap.max())
    kap_ok, kap_growth = _tail_bounded(th, kap)
    ok = kap_low > 0.0 and kap_ok and bool(np.all(np.isfinite(kap)))
    wit = f"fitted kappa in [{kap_low:.6g}, {kap_up:.6g}]" + ("" if ok else f"; witness theta={th.max():g}")
    checks.append(HypothesisCheck("H9", ok, wit))

    return HypothesisReport(tuple(checks))
