"""Closed-form initial-data families.

A scenario bundles per-field callables of the cell-center coordinates so the
same data can be evaluated on any grid over the same box (the dissipative
run and its finer inviscid reference) and handed to the wall-compatibility
check, which needs values at wall faces rather than cell centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid_fields as gf
from .errors import ConfigError, UsageError


@dataclass(frozen=True)
class Scenario:
    """Initial data as callables rho(*X), theta(*X) and one u[i](*X) per axis."""

    name: str
    rho: object
    theta: object
    u: tuple

    def fields(self, grid: gf.Grid):
        """Evaluate on the cell centers of `grid` -> (rho, theta, u)."""
        if len(self.u) != grid.dim:
            raise UsageError(
                f"scenario {self.name!r} has {len(self.u)} velocity components, "
                f"grid has {grid.dim} axes"
            )
        X = gf.mesh(grid)

        def at(f):
            return np.broadcast_to(np.asarray(f(*X), dtype=float), grid.cells).copy()

        return at(self.rho), at(self.theta), np.stack([at(f) for f in self.u])


def uniform(grid: gf.Grid, rho0: float = 1.0, theta0: float = 1.0) -> Scenario:
    zeros = tuple(lambda *X: 0.0 for _ in range(grid.dim))
    return Scenario("uniform", lambda *X: rho0, lambda *X: theta0, zeros)


def acoustic_entropy(grid: gf.Grid, amplitude: float, gap: float) -> Scenario:
    """Small slip-compatible entropy + acoustic perturbation of a rest state.

    The base modes are half-wave (even rho/theta, odd u at both walls); a
    nonzero `gap` adds a full-wave mode to theta and u, used to open a
    controlled initial distance to an unperturbed reference.
    """
    if grid.dim != 1:
        raise UsageError("the slab scenario is one-dimensional")
    k = np.pi / grid.extents[0]
    A, g = float(amplitude), float(gap)
    return Scenario(
        "acoustic-entropy",
        lambda x: 1.0 + A * np.cos(k * x),
        lambda x: 1.0 + 0.5 * A * np.cos(k * x) + g * np.cos(2.0 * k * x),
        (lambda x: A * np.sin(k * x) + g * np.sin(2.0 * k * x),),
    )


def compressive_pulse(grid: gf.Grid, amplitude: float) -> Scenario:
    """Velocity pulse on a uniform state; steepens into a gradient blow-up."""
    if grid.dim != 1:
        raise UsageError("the compressive pulse is one-dimensional")
    k = 2.0 * np.pi / grid.extents[0]
    A = float(amplitude)
    return Scenario(
        "compressive-pulse",
        lambda x: 1.0 + 0.0 * x,
        lambda x: 1.0 + 0.0 * x,
        (lambda x: -A * np.sin(k * x),),
    )


_BUILDERS = {
    "uniform": lambda grid, amplitude, gap: uniform(grid),
    "acoustic-entropy": acoustic_entropy,
    "compressive-pulse": lambda grid, amplitude, gap: compressive_pulse(
        grid, amplitude),
}


def build(name: str, grid: gf.Grid, amplitude: float, gap: float) -> Scenario:
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_BUILDERS))}"
        )
    return _BUILDERS[name](grid, amplitude, gap)
