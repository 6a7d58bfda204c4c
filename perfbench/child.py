"""The program process of one benchmark workload.

Two modes, both started fresh by ``run.py`` so that every measured process
pays the interpreter start and ``import nsflab`` a user pays:

``child.py serve SPEC [TRACE_OUT]``
    Import nsflab, build the workload's inputs from the JSON spec, print
    ``ready {...}`` and then serve commands read from stdin, one per line:
    ``op NAME`` runs one unit of work and answers ``done {...}``; ``exit``
    writes the trace (when tracing) and ends the process.

``child.py cli TRACE_OUT|- ARG...``
    Import nsflab and call ``nsflab.cli.main(ARG...)``; exit with its code.

Only public entry points are called: ``nsflab.cli.main`` for sweep, diag and
rate-fit, ``nsf_solver.simulate`` for the 2-D box.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_nsflab():
    import nsflab.cli
    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    where = Path(nsflab.__file__).resolve().parent
    if where != src / "nsflab":
        raise SystemExit(f"nsflab imported from {where}, not from {src}")
    return nsflab.cli


def _tracer(trace_out):
    if not trace_out or trace_out == "-":
        return None
    sys.path.insert(0, str(HERE))
    import tracer as tracemod
    tr = tracemod.Tracer()
    tracemod.install(tr)
    return tr


def _run_cli(cli, argv) -> tuple:
    """Call the CLI in-process with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _box_case(spec):
    """Grid, run config and primitive initial data of the 2-D acoustic box."""
    import numpy as np
    from nsflab import grid_fields as gf
    from nsflab import nsf_solver as ns
    from nsflab import sweep, thermo

    n = int(spec["cells"])
    grid = gf.Grid.box((1.0, 1.0), (n, n))
    a = float(spec["a"])
    cfg = ns.NsfRunConfig(
        gas=thermo.ideal_gas(), transport=thermo.default_transport(),
        scaling=sweep.ScalingPath((a,)).scaling_for(a), grid=grid,
        t_end=float(spec["t_end"]), cfl=float(spec["cfl"]),
        output_stride=int(spec["output_stride"]))
    X, Y = gf.mesh(grid)
    k = np.pi
    rho = np.ones(grid.cells)
    theta = np.ones(grid.cells)
    u = np.zeros((2, *grid.cells))
    # cos/cos for the scalars and sin along the normal for each velocity
    # component: even density and temperature, no normal flow at the walls
    for (m, q), (ar, at, ax, ay) in zip(spec["modes"], spec["amplitudes"]):
        cc = np.cos(m * k * X) * np.cos(q * k * Y)
        rho += ar * cc
        theta += at * cc
        u[0] += ax * np.sin(m * k * X) * np.cos(q * k * Y)
        u[1] += ay * np.cos(m * k * X) * np.sin(q * k * Y)
    return ns, cfg, (rho, theta, u)


def _box_op(ns, cfg, initial) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    traj = ns.simulate(cfg, initial)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rows = traj.rows
    m0, e0 = rows[0][1], rows[0][2]
    return {
        "wall": wall, "cpu": cpu, "healthy": bool(traj.healthy),
        "aborted": bool(traj.aborted), "reason": traj.health_reason,
        "final_time": float(traj.times[-1]),
        "mass_drift": max(abs(r[1] - m0) for r in rows) / abs(m0),
        "energy_balance": max(abs(r[2] + r[3] - e0) for r in rows) / abs(e0),
    }


def serve(spec_path: str, trace_out=None) -> int:
    spec = json.loads(Path(spec_path).read_text())
    cli = _import_nsflab()
    tr = _tracer(trace_out)
    kind = spec["kind"]
    ready = {}
    if kind == "box":
        ns, cfg, initial = _box_case(spec)
    elif kind == "stored":
        code, text = _run_cli(cli, ["sweep", "--config", spec["config"],
                                    "--out", spec["out"], "--threads", "1"])
        Path(spec["out"] + ".stdout").write_text(text)
        ready["code"] = code
    if tr is not None:
        tr.reset()
    import numpy
    import scipy
    import sympy
    ready["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                         "sympy": sympy.__version__}
    print("ready " + json.dumps(ready), flush=True)

    for line in sys.stdin:
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "exit":
            break
        if kind == "box":
            result = _box_op(ns, cfg, initial)
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            code, _ = _run_cli(cli, ["sweep", "--config", spec["config"],
                                     "--out", arg, "--threads",
                                     str(spec["threads"])])
            result = {"wall": time.perf_counter() - t0,
                      "cpu": time.process_time() - c0, "code": code}
        print("done " + json.dumps(result), flush=True)
    if tr is not None:
        tr.write(trace_out)
    return 0


def cli_once(trace_out, argv) -> int:
    cli = _import_nsflab()
    tr = _tracer(trace_out)
    try:
        return cli.main(argv)
    finally:
        if tr is not None:
            tr.write(trace_out)


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        sys.exit(serve(*sys.argv[2:4]))
    sys.exit(cli_once(sys.argv[2], sys.argv[3:]))
