"""Vanishing-dissipation parameter sweeps.

One inviscid reference run is computed on a finer grid (and disk-cached),
its trustworthy smooth horizon detected, and the path points run the
dissipative solver, as one batch, from the same closed-form initial data
to that horizon.  The reference runs in a worker process while the batch
advances towards the requested end time.  The worker writes the reference
into reference-cache/, the one channel between the two: once it has
ended, the batch loads the reference there and, if its horizon is
shorter, stops and runs again to that horizon.  A sweep refuses an output
directory whose runs/ holds a directory that is no run of its path.
The manifest (`nsflab.manifest`) records, per point, the initial relative
energy, its sup over the run, and the convergence-rate envelope; the fitted
constant is the largest ratio E_sup / (E_init + envelope), which the theory
asserts stays bounded along any admissible path.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import diagnostics as diag
from . import euler_reference as er
from . import grid_fields as gf
from . import nsf_solver as ns
from . import thermo
from .errors import ConfigError, DomainError, PositivityError, UsageError
# the manifest and its rate fit live beside the sweep, in a module that
# `nsflab rate-fit` loads without numpy; they stay reachable from here
from .manifest import (FitReport, RunRecord, SweepManifest,  # noqa: F401
                       fit_rate, read_manifest, write_manifest)


def validate_path(alpha: float, beta: float, gamma: float,
                  a_values=(1e-2, 1e-3, 1e-4)) -> list:
    """Violation messages for a path nu=a^alpha, omega=a^beta, lambda=a^gamma.

    Empty means admissible: the exponents satisfy beta > 1,
    1/2 < alpha < 2/3, 0 < gamma < 1 - (3/2) alpha, and the three envelope
    ratios omega/a, nu/sqrt(a), a/sqrt(nu^3 lambda) are confirmed to
    decrease numerically along the given a values.
    """
    problems = []
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            problems.append(f"{name} must be a finite number, got {v!r}")
    if problems:
        return problems
    if not (0.5 < alpha < 2.0 / 3.0):
        problems.append(f"alpha must lie in (1/2, 2/3), got {alpha}")
    if not (beta > 1.0):
        problems.append(f"beta must exceed 1, got {beta}")
    if not (0.0 < gamma < 1.0 - 1.5 * alpha):
        problems.append(
            f"gamma must lie in (0, 1 - (3/2) alpha) = (0, {1.0 - 1.5 * alpha:g}), "
            f"got {gamma}")
    if problems:
        return problems

    vals = tuple(float(a) for a in a_values)
    if len(vals) < 2:
        vals = (1e-2, 1e-3, 1e-4)
    ratios = {"omega/a": [], "nu/sqrt(a)": [], "a/sqrt(nu^3 lambda)": []}
    for a in vals:
        nu, omega, lam = a ** alpha, a ** beta, a ** gamma
        ratios["omega/a"].append(omega / a)
        ratios["nu/sqrt(a)"].append(nu / math.sqrt(a))
        ratios["a/sqrt(nu^3 lambda)"].append(a / math.sqrt(nu ** 3 * lam))
    for label, seq in ratios.items():
        if any(later >= earlier for earlier, later in zip(seq, seq[1:])):
            problems.append(f"{label} fails to decrease along the a values")
    return problems


@dataclass(frozen=True)
class ScalingPath:
    """Strictly decreasing a values with admissible path exponents."""

    a_values: tuple
    alpha: float = 0.55
    beta: float = 1.2
    gamma: float = 0.1

    def __post_init__(self):
        vals = tuple(float(v) for v in self.a_values)
        object.__setattr__(self, "a_values", vals)
        if not vals:
            raise DomainError("a path needs at least one a value")
        if any(not (v > 0.0 and math.isfinite(v)) for v in vals):
            raise DomainError(f"a values must be positive and finite, got {vals}")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise DomainError(f"a values must be strictly decreasing, got {vals}")
        problems = validate_path(self.alpha, self.beta, self.gamma, vals)
        if problems:
            raise DomainError("; ".join(problems))

    def scaling_for(self, a: float) -> thermo.ScalingParams:
        return thermo.ScalingParams(a=a, nu=a ** self.alpha,
                                    omega=a ** self.beta, lam=a ** self.gamma)


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class SweepSetup:
    """Everything a sweep needs besides the output directory."""

    gas: thermo.GasModel
    transport: thermo.TransportModel
    path: ScalingPath
    grid: gf.Grid
    scenario_name: str = "acoustic-entropy"
    amplitude: float = 0.01
    gap: float = 0.0  # applied to the dissipative runs only
    t_end: float = 1.0
    cfl: float = 0.35
    output_stride: int = 16
    reference_factor: int = 4
    reference_stride: int = 4
    floors: tuple = (1e-12, 1e-12)
    convective_order: str = "auto"

    def __post_init__(self):
        if int(self.reference_factor) < 1:
            raise ConfigError(
                f"reference factor must be at least 1, got {self.reference_factor}")
        if int(self.reference_stride) < 1:
            raise ConfigError(
                f"reference stride must be at least 1, got {self.reference_stride}")
        object.__setattr__(self, "reference_factor", int(self.reference_factor))
        object.__setattr__(self, "reference_stride", int(self.reference_stride))

    def reference_grid(self) -> gf.Grid:
        return gf.Grid(
            extents=self.grid.extents,
            cells=tuple(n * self.reference_factor for n in self.grid.cells),
            bc=self.grid.bc,
        )


def setup_from_config(cfg: dict) -> SweepSetup:
    """Build a sweep from a parsed configuration mapping."""
    for key in ("solver", "scaling.a", "scaling.nu", "scaling.omega",
                "scaling.lambda", "init.gap"):
        if key in cfg:
            raise ConfigError(
                f"{key} does not apply to a sweep; the path sets the scalings "
                "and sweep.gap sets the ill-preparedness offset")
    path = ScalingPath(
        a_values=cfgmod.get_floats(cfg, "sweep.a-values", "1e-2 1e-3 1e-4"),
        alpha=cfgmod.get_float(cfg, "sweep.alpha", "0.55"),
        beta=cfgmod.get_float(cfg, "sweep.beta", "1.2"),
        gamma=cfgmod.get_float(cfg, "sweep.gamma", "0.1"),
    )
    floors, order = cfgmod.build_nsf_controls(cfg)
    return SweepSetup(
        gas=cfgmod.build_gas(cfg),
        transport=cfgmod.build_transport(cfg),
        path=path,
        grid=cfgmod.build_grid(cfg),
        scenario_name=str(cfg.get("init.name", "acoustic-entropy")),
        amplitude=cfgmod.get_float(cfg, "init.amplitude", "0.01"),
        gap=cfgmod.get_float(cfg, "sweep.gap", "0.0"),
        t_end=cfgmod.get_float(cfg, "t_end", "1.0"),
        cfl=cfgmod.get_float(cfg, "cfl", "0.35"),
        output_stride=cfgmod.get_int(cfg, "output.stride", "16"),
        reference_factor=cfgmod.get_int(cfg, "sweep.reference-factor", "4"),
        reference_stride=cfgmod.get_int(cfg, "sweep.reference-stride", "4"),
        floors=floors,
        convective_order=order,
    )


def _gas_mapping(gas: thermo.GasModel) -> dict:
    m = {"gas.name": gas.name, "gas.S0": repr(gas.S0)}
    if gas.name != "ideal":
        if not gas.law_text:
            raise ConfigError(
                "only the ideal gas or a gas built from a pressure-law "
                "expression can be written to a configuration file")
        m["gas.law"] = gas.law_text
        m["gas.P_inf"] = repr(gas.P_inf)
    return m


def _transport_mapping(tr: thermo.TransportModel) -> dict:
    if tr.name == "default":
        return {"transport.name": "default"}
    if tr.name.startswith("sublinear"):
        return {"transport.name": "sublinear", "transport.b": repr(tr.b)}
    raise ConfigError(f"transport model {tr.name!r} has no configuration form")


def _grid_mapping(grid: gf.Grid) -> dict:
    kinds = set(grid.bc)
    if len(kinds) > 1:
        raise ConfigError("mixed per-axis boundary kinds have no configuration form")
    return {
        "grid.extent": " ".join(repr(v) for v in grid.extents),
        "grid.cells": " ".join(str(v) for v in grid.cells),
        "grid.bc": grid.bc[0],
    }


def _run_mapping(setup: SweepSetup, sc: thermo.ScalingParams, t_end: float) -> dict:
    m = {"solver": "nsf"}
    m.update(_gas_mapping(setup.gas))
    m.update(_transport_mapping(setup.transport))
    m.update(_grid_mapping(setup.grid))
    m.update({
        "scaling.a": repr(sc.a),
        "scaling.nu": repr(sc.nu),
        "scaling.omega": repr(sc.omega),
        "scaling.lambda": repr(sc.lam),
        "cfl": repr(setup.cfl),
        "t_end": repr(float(t_end)),
        "output.stride": str(setup.output_stride),
        "floors": " ".join(repr(v) for v in setup.floors),
        "convective.order": setup.convective_order,
        "init.name": setup.scenario_name,
        "init.amplitude": repr(setup.amplitude),
        "init.gap": repr(setup.gap),
    })
    return m


def _reference_mapping(setup: SweepSetup) -> dict:
    m = {"solver": "euler"}
    m.update(_gas_mapping(setup.gas))
    m.update(_grid_mapping(setup.reference_grid()))
    m.update({
        "cfl": repr(setup.cfl),
        "t_end": repr(setup.t_end),
        "output.stride": str(setup.reference_stride),
        "init.name": setup.scenario_name,
        "init.amplitude": repr(setup.amplitude),
        # the reference stays unperturbed; the gap belongs to the runs
        "init.gap": repr(0.0),
    })
    return m


def write_nsf_run(run_dir, mapping: dict, traj: ns.Trajectory) -> None:
    """Persist one dissipative run: resolved config, diagnostics CSV, snapshots.

    The reports that `write_run_diagnostics` wrote there for an earlier
    run go with its snapshots.
    """
    rdir = Path(run_dir)
    rdir.mkdir(parents=True, exist_ok=True)
    for name in ("relenergy.csv", "bounds.txt", "summary.txt"):
        (rdir / name).unlink(missing_ok=True)
    (rdir / "run.cfg").write_text(cfgmod.render(mapping), encoding="ascii")
    (rdir / "solver.csv").write_text(traj.diagnostics_csv(), encoding="ascii")
    gf.write_series(rdir, traj.config.grid, traj.times, traj.W)


def write_run_diagnostics(run_dir, traj: ns.Trajectory, reference):
    """Write a run's relenergy.csv, bounds.txt and summary.txt; return the residual report.

    One `diagnostics.stack_run` of the run serves both reports.
    """
    rdir = Path(run_dir)
    stacked = diag.stack_run(traj)
    report = diag.rel_energy_inequality_residual(traj, reference, stacked)
    (rdir / "relenergy.csv").write_text(report.csv(), encoding="ascii")
    (rdir / "bounds.txt").write_text(diag.uniform_bounds(traj, stacked).to_text(),
                                     encoding="ascii")
    (rdir / "summary.txt").write_text(report.summary(), encoding="ascii")
    return report


def load_run(run_dir):
    """Rebuild (mapping, run config, trajectory) from a stored run directory.

    Snapshots carry exact field bytes, so the temperatures recovered here
    and the diagnostics recomputed from the loaded trajectory match the
    originals bit for bit.  One recovery, with one a per snapshot, serves
    the stack W that `gf.read_series` reads and stops each at its own
    convergence (`thermo.admissible_temperature`); when it fails, the
    snapshots are recovered one at a time, so that the first bad one
    raises what it raises alone.
    """
    rdir = Path(run_dir)
    mapping = cfgmod.load_file(rdir / "run.cfg")
    kind, run_cfg, _ = cfgmod.build_run(mapping)
    if kind != "nsf":
        raise UsageError(f"{rdir} does not hold a dissipative run")
    times, W = gf.read_series(rdir, run_cfg.grid)
    traj = ns.Trajectory(config=run_cfg, times=times, W=W)
    gas, a = run_cfg.gas, run_cfg.scaling.a
    try:
        traj.thetas = ns.recover_temperature(
            W[0], W[1:-1], W[-1], gas, np.full((len(times),) + (1,) * run_cfg.grid.dim, a))
    except (PositivityError, DomainError):
        for s in traj.states:
            ns.recover_temperature(s.rho, s.mom, s.etot, gas, a)
        raise
    return mapping, run_cfg, traj


def _hash16(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def run_id_for(a: float) -> str:
    return f"a{a:.3e}"


def _point_record(reference, a: float, mapping: dict, traj: ns.Trajectory,
                  out: Path) -> RunRecord:
    """Store one path point's run and diagnostics; its manifest record."""
    run_id = run_id_for(a)
    rdir = out / "runs" / run_id
    write_nsf_run(rdir, mapping, traj)

    envelope = diag.rate_envelope(traj.config.scaling)
    nan = float("nan")
    reason = ((traj.health_reason or "unhealthy run") if not traj.healthy else
              "too few stored instants for diagnostics" if len(traj.times) < 3 else "")
    if reason:
        return RunRecord(run_id=run_id, a=a, healthy=False, reason=reason,
                         e_init=nan, e_sup=nan, envelope=envelope, max_excess=nan)
    report = write_run_diagnostics(rdir, traj, reference)
    return RunRecord(
        run_id=run_id, a=a, healthy=True, reason="",
        e_init=float(report.energy[0]), e_sup=float(max(report.energy)),
        envelope=envelope, max_excess=float(report.max_excess),
    )


def _reference_inputs(ref_mapping: dict):
    """(run config, scenario, initial state) of the reference a mapping configures."""
    _, ref_cfg, scenario = cfgmod.build_run(ref_mapping)
    return ref_cfg, scenario, ns.state_from_primitives(ref_cfg.gas, 0.0,
                                                       scenario.fields(ref_cfg.grid))


def _reference_worker(ref_mapping: dict, cache_dir: str) -> None:
    """Worker process body: run the reference into its cache, writing
    nothing to stdout or stderr."""
    sys.stdout = sys.stderr = open(os.devnull, "w")
    ref_cfg, _, ref_state = _reference_inputs(ref_mapping)
    er.run_euler(ref_cfg, ref_state, cache_dir=cache_dir)


def run_sweep(setup: SweepSetup, out_dir) -> SweepManifest:
    """Reference run, one dissipative run per path point, manifest and plot data.

    The path points share their run config except the scalings, and start
    from the same initial data, so they advance as one
    `nsf_solver.simulate_batch`; each point's files are bitwise the ones a
    sweep of that point alone writes.  Records are assembled in path order.
    An out_dir whose runs/ holds a directory that is not one of the path's
    run ids is refused before anything is written.

    The batch advances speculatively to the requested t_end while the
    reference runs in a worker process (`multiprocessing`, the platform's
    default start method), started once the batch has passed its entry
    checks (the points' configs and initial data).  The worker writes the
    reference into reference-cache/; once it has ended, the batch loads it
    there (an aborted reference is stored too, and a worker that died
    without storing one leaves it to be computed here) and stops if its
    horizon t_safe is shorter than t_end.  The speculative batch stands
    when t_safe = t_end; otherwise the batch runs again to t_safe.  A
    worker that cannot start leaves the reference to this process.  Every
    output byte is the one of a sweep that runs the reference first and
    the batch after it.
    """
    out = Path(out_dir)
    a_values = setup.path.a_values
    run_ids = {run_id_for(a) for a in a_values}
    for d in sorted(out.glob("runs/*")):
        if d.is_dir() and d.name not in run_ids:
            raise UsageError(f"{d} is not a run of this sweep's path; remove it "
                             "or sweep into another directory")
    out.mkdir(parents=True, exist_ok=True)

    ref_mapping = _reference_mapping(setup)
    ref_cfg, ref_scenario, ref_state = _reference_inputs(ref_mapping)
    (out / "reference.cfg").write_text(cfgmod.render(ref_mapping), encoding="ascii")
    if "slip-wall" in setup.grid.bc:
        er.compatibility_check(ref_scenario.rho, ref_scenario.theta,
                               ref_scenario.u, ref_cfg.grid, setup.gas)
    ref_key = er.reference_key(ref_cfg, ref_state)
    cache_dir = out / "reference-cache"
    scalings = [setup.path.scaling_for(a) for a in a_values]

    def point_inputs(t_end):
        # every point's mapping builds this config but for its scaling
        _, run_cfg, scenario = cfgmod.build_run(_run_mapping(setup, scalings[0], t_end))
        return [replace(run_cfg, scaling=sc) for sc in scalings], scenario.fields(run_cfg.grid)

    worker = None  # the worker process; False when it could not start
    loaded = []    # (reference, its lifespan report), once the worker has ended

    def load_reference():
        reference = er.run_euler(ref_cfg, ref_state, cache_dir=cache_dir)
        loaded.append((reference, er.lifespan_monitor(reference)))

    def stop_batch() -> bool:
        nonlocal worker
        if worker is None:  # first call: the entry checks have passed
            import multiprocessing

            worker = multiprocessing.Process(target=_reference_worker,
                                             args=(ref_mapping, str(cache_dir)),
                                             daemon=True)
            try:
                worker.start()
            except OSError:
                worker = False
        if not loaded and not (worker and worker.is_alive()):
            load_reference()
        return bool(loaded) and loaded[0][1].usable_until < setup.t_end

    try:
        speculative = ns.simulate_batch(*point_inputs(setup.t_end), stop=stop_batch)
    except Exception:
        if worker is None:  # the entry checks failed
            raise
        # past the horizon a batch may fail where the one to the horizon
        # does not; the batch below raises what belongs to the sweep
        speculative = None
    except BaseException:
        if worker:
            worker.terminate()
            worker.join()
        raise
    if worker:
        worker.join()
    if not loaded:
        load_reference()
    reference, life = loaded[0]
    t_safe = life.usable_until
    if not (t_safe > 0.0):
        raise UsageError(
            "the reference run provides no usable smooth horizon "
            f"(trigger: {life.trigger or 'none'})")

    trajs = speculative if speculative is not None and t_safe == setup.t_end \
        else ns.simulate_batch(*point_inputs(t_safe))
    mappings = [_run_mapping(setup, sc, t_safe) for sc in scalings]
    records = tuple(_point_record(reference, a, mapping, traj, out)
                    for a, mapping, traj in zip(a_values, mappings, trajs))

    healthy = [r for r in records if r.healthy]
    manifest = SweepManifest(
        alpha=setup.path.alpha, beta=setup.path.beta, gamma=setup.path.gamma,
        a_values=a_values,
        config_hash=_hash16(cfgmod.render(ref_mapping)),
        grid_hash=_hash16(repr((setup.grid.extents, setup.grid.cells, setup.grid.bc))),
        reference_key=ref_key,
        t_safe=float(t_safe),
        records=records,
        fitted_constant=float("nan"),
        flagged=False,
    )
    if len(healthy) >= 2:
        fit = fit_rate(manifest)
        manifest = replace(manifest, fitted_constant=fit.fitted_constant,
                           flagged=fit.flagged)
    write_manifest(manifest, out / "manifest.json")

    lines = ["# a envelope e_sup e_sup_over_envelope"]
    for r in healthy:
        lines.append(f"{r.a!r} {r.envelope!r} {r.e_sup!r} {r.e_sup / r.envelope!r}")
    (out / "plot_rate.dat").write_text("\n".join(lines) + "\n", encoding="ascii")
    return manifest
