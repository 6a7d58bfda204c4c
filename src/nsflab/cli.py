"""Command-line front end.

Subcommands cover the desk-scale workflow: closure certification, coercivity
estimation, single runs, the dissipation sweep with rate fitting, and
re-running diagnostics on stored outputs.  Model errors print one line to
stderr and exit with status 2; reports that merely contain FAIL lines are
results, not errors, and exit 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from pathlib import Path

from . import manifest as manifestmod
from .errors import (ConfigError, DomainError, ModelViolationError,
                     PositivityError, QuadratureError, UsageError)


def _lazy(name: str):
    """The package module `name`, registered in sys.modules so that it
    executes on its first attribute access (importlib.util.LazyLoader).

    A command loads only the modules it touches: `rate-fit` reads the
    manifest without numpy.  Every module stays importable and listed in
    sys.modules, so code that looks a module up there, or imports it, gets
    it whole once it reads an attribute.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


cfgmod = _lazy("config")
er = _lazy("euler_reference")
gf = _lazy("grid_fields")
ns = _lazy("nsf_solver")
renergy = _lazy("relative_energy")
sweepmod = _lazy("sweep")
thermo = _lazy("thermo")
# used only through the modules above, and registered with them so that
# sys.modules lists every numerical module after `import nsflab.cli`
_lazy("diagnostics")
_lazy("scenarios")


def _print(*args, **kwargs) -> None:
    """print to stdout; once its reader has closed the pipe, to the null device."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _out_dir(args) -> Path:
    """--out; UsageError before any work when it or its nearest existing parent is no directory."""
    out = Path(args.out)
    taken = next((p for p in (out, *out.parents) if p.exists()), out)
    if not taken.is_dir():
        raise UsageError(f"output directory {out}: {taken} is not a directory")
    return out


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    return cfgmod.load_file(args.config)


def _cmd_thermo_check(args) -> int:
    import numpy as np

    cfg = _load_config(args)
    gas = cfgmod.build_gas(cfg)
    transport = cfgmod.build_transport(cfg)
    report = thermo.hypothesis_report(gas, transport)
    for line in report.format_lines():
        _print(line)
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
        _print(f"gibbs a={a:g} max_rel_residual {worst!r}")
    return 0


def _cmd_coercivity(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed must be nonnegative, got {args.seed}")
    cfg = _load_config(args)
    gas = cfgmod.build_gas(cfg)
    a = cfgmod.get_float(cfg, "scaling.a", "0.5")
    K = (0.5, 2.0, 0.5, 2.0)
    c = renergy.coercivity_constant(gas, a, K, sample_count=10000,
                                    seed=args.seed)
    _print(f"K rho=[{K[0]:g},{K[1]:g}] theta=[{K[2]:g},{K[3]:g}]")
    _print(f"samples 10000 seed {args.seed}")
    _print(f"coercivity_constant {c!r}")
    return 0


def _cmd_simulate(args) -> int:
    if args.config is None:
        raise ConfigError("simulate needs --config")
    out = _out_dir(args)
    mapping = _load_config(args)
    kind, run_cfg, scenario = cfgmod.build_run(mapping)
    if kind == "nsf":
        traj = ns.simulate(run_cfg, scenario.fields(run_cfg.grid))
        sweepmod.write_nsf_run(out, mapping, traj)
        _print(f"instants {len(traj.times)}")
        _print(f"final_time {traj.times[-1]!r}")
        _print(f"healthy {traj.healthy}")
        if not traj.healthy:
            _print(f"reason {traj.health_reason}")
        return 0
    traj = er.run_euler(run_cfg, scenario.fields(run_cfg.grid))
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(cfgmod.render(mapping), encoding="ascii")
    gf.write_series(out, run_cfg.grid, traj.times, traj.W)
    lines = ["t,mass,etot,grad_u_max,grad_rho_max"]
    for t, s, gu, gr in zip(traj.times, traj.states, *er.gradient_maxima(traj)):
        lines.append(",".join(repr(float(v)) for v in (
            t, gf.integrate(s.rho, run_cfg.grid),
            gf.integrate(s.etot, run_cfg.grid), gu, gr)))
    (out / "solver.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    life = er.lifespan_monitor(traj)
    _print(f"instants {len(traj.times)}")
    _print(f"final_time {traj.times[-1]!r}")
    _print(f"smooth_through_end {life.smooth_through_end}")
    _print(f"usable_until {life.usable_until!r}")
    if traj.aborted:
        _print(f"reason {traj.abort_reason}")
    return 0


def _cmd_sweep(args) -> int:
    if args.config is None:
        raise ConfigError("sweep needs --config")
    if args.threads < 1:
        raise UsageError(f"threads must be at least 1, got {args.threads}")
    out = _out_dir(args)
    setup = sweepmod.setup_from_config(_load_config(args))
    if args.threads > 1:
        print(f"note: --threads {args.threads} changes nothing: the path points "
              "advance as one batch in this process, and the reference runs "
              "beside them in one worker process", file=sys.stderr)
    manifest = sweepmod.run_sweep(setup, out)
    for rec in manifest.records:
        status = "ok" if rec.healthy else f"unhealthy ({rec.reason})"
        _print(f"{rec.run_id} {status} e_sup={rec.e_sup!r} "
               f"envelope={rec.envelope!r}")
    _print(f"t_safe {manifest.t_safe!r}")
    healthy = sum(1 for r in manifest.records if r.healthy)
    if healthy >= 2:
        _print(manifestmod.fit_rate(manifest).to_text(), end="")
    else:
        _print(f"rate fit skipped: {healthy} healthy run(s)")
    _print(f"manifest {out / 'manifest.json'}")
    return 0


def _cmd_rate_fit(args) -> int:
    path = Path(args.out) / "manifest.json"
    if not path.is_file():
        raise UsageError(f"no manifest at {path}")
    fit = manifestmod.fit_rate(manifestmod.read_manifest(path))
    _print(fit.to_text(), end="")
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
            _print(f"{rdir.name} skipped: fewer than three stored instants")
            continue
        report = sweepmod.write_run_diagnostics(rdir, traj, reference)
        _print(f"{rdir.name} max_excess {report.max_excess!r}")
    return 0


class _TopParser(argparse.ArgumentParser):
    """The top-level parser; its epilog lists the configuration keys, read
    from `config` only when the help is printed."""

    def format_help(self) -> str:
        self.epilog = "configuration keys:\n" + cfgmod.describe_keys()
        return super().format_help()


# the flags a subcommand may take; each takes those it reads
_FLAGS = {
    "--config": dict(default=None, metavar="FILE", help="run configuration file"),
    "--out": dict(default="out", metavar="DIR", help="output directory (default: out)"),
    "--seed": dict(type=int, default=0, help="seed for sampled estimates (default: 0)"),
    "--threads": dict(type=int, default=1,
                      help="accepted for compatibility and must be at least 1; "
                           "a sweep advances its path points as one batch and "
                           "runs its reference beside them in one worker process"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _TopParser(
        prog="nsflab",
        description="Dissipative-limit laboratory: closure checks, runs, sweeps.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    for name, fn, flags, doc in (
        ("thermo-check", _cmd_thermo_check, ("--config",),
         "certify closure hypotheses and Gibbs consistency"),
        ("coercivity", _cmd_coercivity, ("--config", "--seed"),
         "sampled lower-bound constant of the relative energy"),
        ("simulate", _cmd_simulate, ("--config", "--out"),
         "one dissipative or inviscid run"),
        ("sweep", _cmd_sweep, ("--config", "--out", "--threads"),
         "dissipation sweep with rate fitting"),
        ("rate-fit", _cmd_rate_fit, ("--out",), "refit the rate from a stored manifest"),
        ("diag", _cmd_diag, ("--out",), "recompute diagnostics for stored runs"),
    ):
        p = sub.add_parser(name, help=doc, description=doc)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=fn, parser=p)
    return parser


def main(argv=None) -> int:
    args, extras = _build_parser().parse_known_args(argv)
    if extras:  # refused with the usage line of the subcommand that does not take them
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (ConfigError, DomainError, ModelViolationError, PositivityError,
            QuadratureError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        _print(end="", flush=True)  # here, not at exit, where a closed pipe costs the status


if __name__ == "__main__":
    raise SystemExit(main())
