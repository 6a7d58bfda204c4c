"""Vanishing-dissipation parameter sweeps.

A sweep is its configuration mapping: each run's run.cfg and the
reference.cfg are its keys narrowed by the key table (`sweep_runs`).  It
runs in three steps, which a study that compares several batches against
one inviscid reference calls itself: `check_out_dir`, `obtain_reference`
(cached, or computed beside the first batch) and `store_batch`, one per
batch.  `run_sweep` is the three on one directory.  The manifest
(`nsflab.manifest`) records, per point, the initial relative energy, its
sup over the run, and the convergence-rate envelope; the fitted constant is
the largest ratio E_sup / (E_init + envelope), which the theory asserts
stays bounded along any admissible path.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import signal
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
from .manifest import RunRecord, SweepManifest, fit_rate, write_manifest


def validate_path(alpha: float, beta: float, gamma: float) -> list:
    """Violation messages for a path nu=a^alpha, omega=a^beta, lambda=a^gamma.

    Empty means admissible: the exponents satisfy beta > 1,
    1/2 < alpha < 2/3 and 0 < gamma < 1 - (3/2) alpha.  Then the three
    envelope ratios omega/a = a^(beta-1), nu/sqrt(a) = a^(alpha-1/2) and
    a/sqrt(nu^3 lambda) = a^(1-(3/2)alpha-gamma/2) are positive powers of
    a (the last exponent exceeds (1-(3/2)alpha)/2 > 0), so each decreases
    along any decreasing a values, and no numerical check is needed.
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
    return problems


@dataclass(frozen=True)
class ScalingPath:
    """Strictly decreasing a values with admissible path exponents, by
    default the key table's."""

    a_values: tuple
    alpha: float = float(cfgmod.DEFAULTS["sweep.alpha"])
    beta: float = float(cfgmod.DEFAULTS["sweep.beta"])
    gamma: float = float(cfgmod.DEFAULTS["sweep.gamma"])

    def __post_init__(self):
        vals = tuple(float(v) for v in self.a_values)
        object.__setattr__(self, "a_values", vals)
        if not vals:
            raise DomainError("a path needs at least one a value")
        if any(not (v > 0.0 and math.isfinite(v)) for v in vals):
            raise DomainError(f"a values must be positive and finite, got {vals}")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise DomainError(f"a values must be strictly decreasing, got {vals}")
        problems = validate_path(self.alpha, self.beta, self.gamma)
        if problems:
            raise DomainError("; ".join(problems))

    def scaling_for(self, a: float) -> thermo.ScalingParams:
        return thermo.ScalingParams(a=a, nu=a ** self.alpha,
                                    omega=a ** self.beta, lam=a ** self.gamma)


# ---------------------------------------------------------------------------
# orchestration


# The values a sweep runs with in place of the key table's defaults (t_end
# has none there), laid under its configuration with the table's defaults
# of the _RECORDED keys: each run.cfg and reference.cfg names every value
# it ran with.  Any other key is recorded only where a sweep names it.
_DEFAULTS = {"cfl": "0.35", "output.stride": "16", "t_end": "1.0"}
_RECORDED = ("gas.name", "gas.S0", "transport.name", "grid.bc", "floors",
             "init.name", "init.amplitude", "init.gap")


def _point_mapping(run_mapping: dict, sc: thermo.ScalingParams, t_end: float) -> dict:
    """The run.cfg of the path point with scalings sc, run to t_end."""
    return {**run_mapping, "solver": "nsf", "scaling.a": repr(sc.a), "scaling.nu": repr(sc.nu),
            "scaling.omega": repr(sc.omega), "scaling.lambda": repr(sc.lam),
            "t_end": repr(float(t_end))}


def sweep_runs(cfg: dict):
    """Check a sweep configuration and derive its runs before anything is
    written or runs -> (path, reference, run), the latter two each a
    (mapping, run config, scenario) from `config.build_run`.

    run is the first path point's, to the sweep's t_end: the keys of cfg a
    dissipative run reads, laid over _DEFAULTS and the key table's defaults
    of the _RECORDED keys, with solver, scalings and t_end set.  reference
    is the keys an inviscid run reads, with grid.cells refined by
    sweep.reference-factor, output.stride set to sweep.reference-stride and
    init.gap, which perturbs the runs only, to 0.0.  Values of cfg are
    copied as written.  Refused: a values that share a run id (`run_id_for`),
    or whose scalings or rate envelope are not positive and finite.
    """
    cfgmod.check_keys(cfg, "sweep")
    cfg = {**{key: cfgmod.DEFAULTS[key] for key in _RECORDED}, **_DEFAULTS, **cfg}
    path = ScalingPath(cfgmod.get_floats(cfg, "sweep.a-values"),
                       *(cfgmod.get_float(cfg, f"sweep.{name}")
                         for name in ("alpha", "beta", "gamma")))
    for hi, lo in zip(path.a_values, path.a_values[1:]):  # decreasing: equal ids adjoin
        if run_id_for(hi) == run_id_for(lo):
            raise ConfigError(f"sweep.a-values {hi!r} and {lo!r} share the run id "
                              f"{run_id_for(lo)}; each path point needs a run directory "
                              "of its own")
    for a in path.a_values:  # a scaling may overflow, or underflow to 0
        try:
            sc = path.scaling_for(a)
            if sc.omega > 0.0 and math.isfinite(diag.rate_envelope(sc)):
                continue
        except (ArithmeticError, DomainError):  # DomainError: nu or lambda is 0
            pass
        raise ConfigError(f"sweep.a-values {a!r} gives scalings or a rate envelope "
                          "that are not positive and finite")
    for key in ("sweep.reference-factor", "sweep.reference-stride"):
        if cfgmod.get_int(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")

    def read_by(kind):
        return {key: cfg[key] for key in cfgmod.keys_read_by(kind) if key in cfg}

    run_mapping = _point_mapping(read_by("nsf"), path.scaling_for(path.a_values[0]),
                                 cfgmod.get_float(cfg, "t_end"))
    _, run_cfg, scenario = cfgmod.build_run(run_mapping)
    factor = cfgmod.get_int(cfg, "sweep.reference-factor")
    ref_mapping = {**read_by("euler"), "solver": "euler",
                   "grid.cells": " ".join(str(n * factor) for n in run_cfg.grid.cells),
                   "output.stride": str(cfgmod.get_int(cfg, "sweep.reference-stride")),
                   "init.gap": "0.0"}
    _, ref_cfg, ref_scenario = cfgmod.build_run(ref_mapping)
    return path, (ref_mapping, ref_cfg, ref_scenario), (run_mapping, run_cfg, scenario)


# a run directory's reports (`write_run_diagnostics`), and all its files but the snapshots
_REPORTS = ("relenergy.csv", "bounds.txt", "summary.txt")
_RUN_FILES = ("run.cfg", "solver.csv", *_REPORTS)


def check_run_dir(run_dir) -> None:
    """UsageError when a directory stands where a file of run directory
    run_dir goes (_RUN_FILES, its snapshots), before a command's work meets it."""
    rdir = Path(run_dir)
    for p in [rdir / name for name in _RUN_FILES] + sorted(rdir.glob("*.snap")):
        if p.is_dir():
            raise UsageError(f"{p} is a directory, where a run keeps a file; remove it")


def _write_run(rdir: Path, mapping: dict, grid: gf.Grid, traj) -> None:
    """Persist one run of either solver: resolved config, the trajectory's
    diagnostics CSV, snapshots.  The reports that `write_run_diagnostics`
    wrote there for an earlier run go with its snapshots."""
    rdir.mkdir(parents=True, exist_ok=True)
    for name in _REPORTS:
        (rdir / name).unlink(missing_ok=True)
    (rdir / "run.cfg").write_text(cfgmod.render(mapping), encoding="ascii")
    (rdir / "solver.csv").write_text(traj.diagnostics_csv(), encoding="ascii")
    gf.write_series(rdir, grid, traj.times, traj.W)


def write_nsf_run(run_dir, mapping: dict, traj: ns.Trajectory) -> None:
    """Persist one dissipative run (see `_write_run`)."""
    _write_run(Path(run_dir), mapping, traj.config.grid, traj)


def write_euler_run(run_dir, mapping: dict, traj: er.EulerTrajectory) -> None:
    """Persist one inviscid run (see `_write_run`)."""
    _write_run(Path(run_dir), mapping, traj.grid, traj)


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
    raises what it raises alone, its message prefixed by the snapshot's
    path.
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
        for k, s in enumerate(traj.states):
            try:
                ns.recover_temperature(s.rho, s.mom, s.etot, gas, a)
            except (PositivityError, DomainError) as err:
                err.args = (f"snapshot {gf.snapshot_path(rdir, k)}: {err}",)
                raise
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
              "too few stored instants for diagnostics"
              if len(traj.times) < diag.MIN_INSTANTS else "")
    if reason:
        return RunRecord(run_id=run_id, a=a, healthy=False, reason=reason,
                         e_init=nan, e_sup=nan, envelope=envelope, max_excess=nan)
    report = write_run_diagnostics(rdir, traj, reference)
    return RunRecord(run_id=run_id, a=a, healthy=True, reason="",
                     e_init=float(report.energy[0]), e_sup=float(max(report.energy)),
                     envelope=envelope, max_excess=float(report.max_excess))


def check_out_dir(runs, out_dir) -> None:
    """UsageError for an output directory that a sweep of runs (`sweep_runs`)
    cannot write: one whose runs/ holds a directory that is not one of the
    path's run ids, where a file stands in for runs/, a run's directory or
    reference-cache/, or a directory for reference.cfg, manifest.json,
    plot_rate.dat or a run's file (`check_run_dir`)."""
    out, run_ids = Path(out_dir), {run_id_for(a) for a in runs[0].a_values}
    run_dirs = [out / "runs" / r for r in sorted(run_ids)]
    for d in (out / "runs", out / "reference-cache", *run_dirs):
        if d.exists() and not d.is_dir():
            raise UsageError(f"{d} is not a directory; remove it or sweep into another directory")
    for f in (out / "reference.cfg", out / "manifest.json", out / "plot_rate.dat"):
        if f.is_dir():
            raise UsageError(f"{f} is a directory; remove it or sweep into another directory")
    for d in sorted(out.glob("runs/*")):
        if d.is_dir() and d.name not in run_ids:
            raise UsageError(f"{d} is not a run of this sweep's path; remove it "
                             "or sweep into another directory")
    for d in run_dirs:
        check_run_dir(d)


@dataclass(frozen=True)
class Reference:
    """A sweep's inviscid reference: its reference.cfg mapping, cache key and
    cache directory, the run, and the run's `lifespan_monitor` report."""

    mapping: dict
    key: str
    cache_dir: Path
    traj: er.EulerTrajectory
    life: er.LifespanReport


def _batch(runs, t_end: float):
    """`nsf_solver.simulate_batch`'s arguments for the path points of runs, to t_end."""
    path, _, (_, run_cfg, scenario) = runs
    return ([replace(run_cfg, scaling=path.scaling_for(a), t_end=t_end) for a in path.a_values],
            scenario.fields(run_cfg.grid))


def _reference_worker(ref_mapping: dict, cache_dir: str) -> None:
    """Worker process body: run the reference into its cache, writing
    nothing to stdout or stderr, and die with the sweep that started it."""
    import multiprocessing

    try:  # prctl(PR_SET_PDEATHSIG = 1, SIGKILL), where the C library has prctl
        ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGKILL))
    except (OSError, TypeError, AttributeError):
        pass
    if not multiprocessing.parent_process().is_alive():
        return  # the sweep died before the request
    sys.stdout = sys.stderr = open(os.devnull, "w")
    _, ref_cfg, scenario = cfgmod.build_run(ref_mapping)
    er.run_euler(ref_cfg, scenario.fields(ref_cfg.grid), cache_dir=cache_dir)


def obtain_reference(runs, out_dir):
    """The reference of runs (`sweep_runs`), kept in <out_dir>/reference-cache
    -> (Reference, trajs): trajs is runs' batch to the reference's horizon
    t_safe when it ran here, else None.

    A reference in the cache (its entry's manifest.txt exists) is loaded,
    a damaged one fails, and no batch runs.  Otherwise the batch advances
    to the requested t_end while a worker process (`multiprocessing`'s
    default start method) runs the reference into the cache, from the
    batch's first `stop` call: its entry checks have passed there, and
    their failure raises.  Once the worker has ended (a worker that cannot
    start or stores nothing leaves it to this process), the batch loads
    the reference and stops if t_safe < t_end.  A BaseException of the
    batch terminates the worker.  Refused: a reference with no usable
    horizon, and initial data that the walls or the gas refuse.
    """
    _, (ref_mapping, ref_cfg, ref_scenario), (_, run_cfg, _) = runs
    if "slip-wall" in ref_cfg.grid.bc:
        er.compatibility_check(ref_scenario.rho, ref_scenario.theta,
                               ref_scenario.u, ref_cfg.grid, ref_cfg.gas)
    ref_state = ns.state_from_primitives(ref_cfg.gas, 0.0, ref_scenario.fields(ref_cfg.grid))
    key = er.reference_key(ref_cfg, ref_state)
    cache_dir, t_end = Path(out_dir) / "reference-cache", run_cfg.t_end
    loaded = []  # the Reference, once loaded or computed
    worker = None  # the worker process; False when it could not start

    def load_reference():
        traj = er.run_euler(ref_cfg, ref_state, cache_dir=cache_dir)
        loaded.append(Reference(ref_mapping, key, cache_dir, traj, er.lifespan_monitor(traj)))

    def stop_batch() -> bool:
        nonlocal worker
        if worker is None:  # first call: the entry checks have passed
            import multiprocessing

            worker = multiprocessing.Process(target=_reference_worker,
                                             args=(ref_mapping, str(cache_dir)), daemon=True)
            try:
                worker.start()
            except OSError:
                worker = False
        if not loaded and not (worker and worker.is_alive()):
            load_reference()
        return bool(loaded) and loaded[0].life.usable_until < t_end

    trajs = None
    if er.check_cache_entry(cache_dir, key):
        load_reference()
    else:
        try:
            trajs = ns.simulate_batch(*_batch(runs, t_end), stop=stop_batch)
        except Exception:
            if worker is None:  # the entry checks failed
                raise
            # past the horizon a batch may fail where the one to the horizon
            # does not; `store_batch` runs that one and raises what it raises
        except BaseException:
            if worker:
                worker.terminate()
                worker.join()
            raise
        if worker:
            worker.join()
        if not loaded:
            load_reference()
    life = loaded[0].life
    if not (life.usable_until > 0.0):
        raise UsageError("the reference run provides no usable smooth horizon "
                         f"(trigger: {life.trigger or 'none'})")
    return loaded[0], (trajs if life.usable_until == t_end else None)


def store_batch(runs, out_dir, reference: Reference, trajs=None) -> SweepManifest:
    """Store the path points of runs (`sweep_runs`), run to the reference's
    horizon t_safe, in out_dir: reference.cfg, runs/, manifest.json and
    plot_rate.dat -> the manifest.

    trajs is the points' batch to t_safe (`obtain_reference`); None runs
    it here.  The reference's cache entry is hard-linked into
    <out_dir>/reference-cache (`euler_reference.link_cache_entry`), where
    `nsflab diag` reads it.  Refused: runs of another reference.cfg.
    """
    path, (ref_mapping, _, _), (run_mapping, run_cfg, _) = runs
    if ref_mapping != reference.mapping:
        raise UsageError("the batch's reference.cfg is not the reference's")
    t_safe = reference.life.usable_until
    if trajs is None:
        trajs = ns.simulate_batch(*_batch(runs, t_safe))
    out = Path(out_dir)
    er.link_cache_entry(reference.cache_dir, reference.key, out / "reference-cache")
    (out / "reference.cfg").write_text(cfgmod.render(ref_mapping), encoding="ascii")
    records = tuple(  # in path order
        _point_record(reference.traj, a, _point_mapping(run_mapping, path.scaling_for(a), t_safe),
                      traj, out) for a, traj in zip(path.a_values, trajs))

    healthy = [r for r in records if r.healthy]
    manifest = SweepManifest(
        alpha=path.alpha, beta=path.beta, gamma=path.gamma, a_values=path.a_values,
        config_hash=_hash16(cfgmod.render(ref_mapping)),
        grid_hash=_hash16(repr((run_cfg.grid.extents, run_cfg.grid.cells, run_cfg.grid.bc))),
        reference_key=reference.key, t_safe=float(t_safe), records=records,
        fitted_constant=float("nan"), flagged=False)
    if len(healthy) >= 2:
        fit = fit_rate(manifest)
        manifest = replace(manifest, fitted_constant=fit.fitted_constant, flagged=fit.flagged)
    write_manifest(manifest, out / "manifest.json")

    lines = ["# a envelope e_sup e_sup_over_envelope"] + [
        f"{r.a!r} {r.envelope!r} {r.e_sup!r} {r.e_sup / r.envelope!r}" for r in healthy]
    (out / "plot_rate.dat").write_text("\n".join(lines) + "\n", encoding="ascii")
    return manifest


def run_sweep(cfg: dict, out_dir) -> SweepManifest:
    """Reference run, one dissipative run per path point, manifest and plot
    data of cfg (as `config.load_file` returns it) in out_dir: the bytes of
    a sweep that runs the reference first and the batch after it, each
    point's files bitwise the ones a sweep of that point alone writes."""
    runs = sweep_runs(cfg)
    check_out_dir(runs, out_dir)
    return store_batch(runs, out_dir, *obtain_reference(runs, out_dir))
