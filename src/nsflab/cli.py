"""Command-line front end.

Subcommands cover the desk-scale workflow: closure certification, coercivity
estimation, single runs, the dissipation sweep with rate fitting, and
re-running diagnostics on stored outputs.  Model errors print one line to
stderr and exit with status 2; reports that merely contain FAIL lines are
results, not errors, and exit 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import euler_reference as er
from . import grid_fields as gf
from . import nsf_solver as ns
from . import relative_energy as renergy
from . import sweep as sweepmod
from . import thermo
from .errors import (ConfigError, DomainError, ModelViolationError,
                     PositivityError, QuadratureError, UsageError)


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    return cfgmod.load_file(args.config)


def _cmd_thermo_check(args) -> int:
    cfg = _load_config(args)
    gas = cfgmod.build_gas(cfg)
    transport = cfgmod.build_transport(cfg)
    report = thermo.hypothesis_report(gas, transport)
    for line in report.format_lines():
        print(line)
    rho = np.logspace(-1.0, 1.0, 30)
    theta = np.logspace(-1.0, 1.0, 30)
    R, T = np.meshgrid(rho, theta, indexing="ij")
    for a in (0.0, 0.5):
        r1, r2 = thermo.gibbs_residual(gas, a, R, T)
        # measured relative to the local energy-derivative scale: the
        # finite-difference noise floor grows with the theta^4 terms
        scale = 1.0 + thermo.cv_total(gas, a, R, T)
        worst = max(float(np.max(np.abs(r1) / scale)),
                    float(np.max(np.abs(r2) / scale)))
        print(f"gibbs a={a:g} max_rel_residual {worst!r}")
    return 0


def _cmd_coercivity(args) -> int:
    cfg = _load_config(args)
    gas = cfgmod.build_gas(cfg)
    a = cfgmod.get_float(cfg, "scaling.a", "0.5")
    K = (0.5, 2.0, 0.5, 2.0)
    c = renergy.coercivity_constant(gas, a, K, sample_count=10000,
                                    seed=args.seed)
    print(f"K rho=[{K[0]:g},{K[1]:g}] theta=[{K[2]:g},{K[3]:g}]")
    print(f"samples 10000 seed {args.seed}")
    print(f"coercivity_constant {c!r}")
    return 0


def _cmd_simulate(args) -> int:
    if args.config is None:
        raise ConfigError("simulate needs --config")
    mapping = _load_config(args)
    kind, run_cfg, scenario = cfgmod.build_run(mapping)
    out = Path(args.out)
    if kind == "nsf":
        traj = ns.simulate(run_cfg, scenario.fields(run_cfg.grid))
        sweepmod.write_nsf_run(out, mapping, traj)
        print(f"instants {len(traj.times)}")
        print(f"final_time {traj.times[-1]!r}")
        print(f"healthy {traj.healthy}")
        if not traj.healthy:
            print(f"reason {traj.health_reason}")
        return 0
    traj = er.run_euler(run_cfg, scenario.fields(run_cfg.grid))
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(cfgmod.render(mapping), encoding="ascii")
    gf.write_series(out, run_cfg.grid, traj.times, traj.states)
    lines = ["t,mass,etot,grad_u_max,grad_rho_max"]
    for t, s, gu, gr in zip(traj.times, traj.states, *er.gradient_maxima(traj)):
        lines.append(",".join(repr(float(v)) for v in (
            t, gf.integrate(s.rho, run_cfg.grid),
            gf.integrate(s.etot, run_cfg.grid), gu, gr)))
    (out / "solver.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    life = er.lifespan_monitor(traj)
    print(f"instants {len(traj.times)}")
    print(f"final_time {traj.times[-1]!r}")
    print(f"smooth_through_end {life.smooth_through_end}")
    print(f"usable_until {life.usable_until!r}")
    if traj.aborted:
        print(f"reason {traj.abort_reason}")
    return 0


def _cmd_sweep(args) -> int:
    if args.config is None:
        raise ConfigError("sweep needs --config")
    if args.threads < 1:
        raise UsageError(f"threads must be at least 1, got {args.threads}")
    setup = sweepmod.setup_from_config(_load_config(args))
    if args.threads > 1:
        print(f"note: --threads {args.threads} changes nothing: the path points "
              "advance as one batch in this process, and the reference runs "
              "beside them in one worker process", file=sys.stderr)
    manifest = sweepmod.run_sweep(setup, args.out)
    for rec in manifest.records:
        status = "ok" if rec.healthy else f"unhealthy ({rec.reason})"
        print(f"{rec.run_id} {status} e_sup={rec.e_sup!r} "
              f"envelope={rec.envelope!r}")
    print(f"t_safe {manifest.t_safe!r}")
    healthy = sum(1 for r in manifest.records if r.healthy)
    if healthy >= 2:
        print(sweepmod.fit_rate(manifest).to_text(), end="")
    else:
        print(f"rate fit skipped: {healthy} healthy run(s)")
    print(f"manifest {Path(args.out) / 'manifest.json'}")
    return 0


def _cmd_rate_fit(args) -> int:
    path = Path(args.out) / "manifest.json"
    if not path.is_file():
        raise UsageError(f"no manifest at {path}")
    fit = sweepmod.fit_rate(sweepmod.read_manifest(path))
    print(fit.to_text(), end="")
    return 0


def _cmd_diag(args) -> int:
    out = Path(args.out)
    ref_path = out / "reference.cfg"
    if not ref_path.is_file():
        raise UsageError(f"no reference configuration at {ref_path}; "
                         "diag expects a sweep output directory")
    kind, ref_cfg, ref_scenario = cfgmod.build_run(cfgmod.load_file(ref_path))
    if kind != "euler":
        raise UsageError("reference.cfg must configure the inviscid solver")
    reference = er.run_euler(ref_cfg, ref_scenario.fields(ref_cfg.grid),
                             cache_dir=out / "reference-cache")
    runs_dir = out / "runs"
    run_dirs = sorted(p for p in runs_dir.iterdir() if p.is_dir()) \
        if runs_dir.is_dir() else []
    if not run_dirs:
        raise UsageError(f"no stored runs under {runs_dir}")
    for rdir in run_dirs:
        _, _, traj = sweepmod.load_run(rdir)
        if len(traj.times) < 3:
            print(f"{rdir.name} skipped: fewer than three stored instants")
            continue
        report = sweepmod.write_run_diagnostics(rdir, traj, reference)
        print(f"{rdir.name} max_excess {report.max_excess!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE",
                        help="run configuration file")
    common.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled estimates (default: 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and must be at least 1; "
                             "a sweep advances its path points as one batch and "
                             "runs its reference beside them in one worker process")

    parser = argparse.ArgumentParser(
        prog="nsflab",
        description="Dissipative-limit laboratory: closure checks, runs, sweeps.",
        epilog="configuration keys:\n" + cfgmod.describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("thermo-check", _cmd_thermo_check,
         "certify closure hypotheses and Gibbs consistency"),
        ("coercivity", _cmd_coercivity,
         "sampled lower-bound constant of the relative energy"),
        ("simulate", _cmd_simulate, "one dissipative or inviscid run"),
        ("sweep", _cmd_sweep, "dissipation sweep with rate fitting"),
        ("rate-fit", _cmd_rate_fit, "refit the rate from a stored manifest"),
        ("diag", _cmd_diag, "recompute diagnostics for stored runs"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc, description=doc)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, ModelViolationError, PositivityError,
            QuadratureError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
