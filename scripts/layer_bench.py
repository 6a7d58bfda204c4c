"""Microseconds per call of each solver layer, as JSON.

Each layer runs on the default sweep's initial data (the acoustic-entropy
scenario on a slip-wall line) at 48 and 384 cells, with the scalings of the
path point a = 1e-2 (nu = a^0.55, omega = a^1.2, lambda = a^0.1).  A layer
is called `--number` times per repeat and the minimum over `--repeats`
repeats is reported, in microseconds per call.  The layers:

- `recover_temperature.a0`, `recover_temperature.arad`: temperature
  recovery from conservative fields at a = 0 and at a = 1e-2;
- `rhs_nsf`: the dissipative tendency, recovering its own theta;
  `rhs_nsf.theta`: the same with the state's theta given (the first stage
  of a step);
- `rhs_euler`: the inviscid reference tendency, hyper-dissipation on;
- `fill_ghosts_slip`: the depth-2 ghost fill of a stacked state;
- `relative_energy`: one instant's relative-energy integral against a
  perturbed copy of the state;
- `stable_dt`, `apply_floors`: the step bound and one stage's floor pass;
- `nsf_step`: one lone step as the time loop takes it (`nsf_solver._advance`:
  `stable_dt`, the three stages with their floor passes, and the accepted
  state's temperature);
- `nsf_step.batch3`: the same step of the default sweep's three path
  points (a = 1e-2, 1e-3, 1e-4 on the same path) advanced as one batch,
  as `simulate_batch` packs them;
- `read_series`: reading back a stored series of 64 instants of the
  state, written once to a temporary directory; reported per stored
  instant, not per call.

Run from the repository root:

    PYTHONPATH=src python3 scripts/layer_bench.py [--cells 48 384] [--repeats 7]
"""

import argparse
import json
import sys
import tempfile
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import relative_energy as renergy
from nsflab import scenarios, thermo

A = 1e-2
PATH = (A, 1e-3, 1e-4)  # the default sweep's path points
SERIES = 64  # stored instants of the read_series layer, which is timed per instant


def _cases(cells: int, tmp: str) -> dict:
    """name -> zero-argument callable, on one grid of `cells` cells; files go to `tmp`."""
    gas, transport = thermo.ideal_gas(), thermo.default_transport()
    grid = gf.Grid.line(1.0, cells, "slip-wall")
    scalings = [thermo.ScalingParams(a=a, nu=a ** 0.55, omega=a ** 1.2, lam=a ** 0.1)
                for a in PATH]
    config = ns.NsfRunConfig(gas=gas, transport=transport, scaling=scalings[0], grid=grid,
                             t_end=1.0, cfl=0.35)
    fields = scenarios.acoustic_entropy(grid).fields(grid)
    state = ns.state_from_primitives(gas, A, fields)
    theta = ns.recover_temperature(state.rho, state.mom, state.etot, gas, A)
    state0 = ns.state_from_primitives(gas, 0.0, (state.rho, theta, state.velocity()))
    u = state.velocity()
    other = (state.rho * 1.001, theta * 0.999, u + 1e-3)

    def nsf_step():
        ns._advance(state, theta, config, ns.StepStats())

    batch, batch_theta, batch_config = ns._pack(
        [ns._Member(replace(config, scaling=sc), fields) for sc in scalings])

    def nsf_step_batch3():
        ns._advance(batch, batch_theta, batch_config, [ns.StepStats() for _ in PATH])

    W = state.W.copy()
    series = Path(tmp) / str(cells)
    series.mkdir(exist_ok=True)
    gf.write_series(series, grid, [0.01 * k for k in range(SERIES)],
                    np.repeat(state.W[:, None], SERIES, axis=1))
    return {
        "recover_temperature.a0":
            lambda: ns.recover_temperature(state0.rho, state0.mom, state0.etot, gas, 0.0),
        "recover_temperature.arad":
            lambda: ns.recover_temperature(state.rho, state.mom, state.etot, gas, A),
        "rhs_nsf": lambda: ns.rhs_nsf(state, config),
        "rhs_nsf.theta": lambda: ns.rhs_nsf(state, config, theta=theta),
        "rhs_euler": lambda: er.rhs_euler(state0, gas, grid, 0.02),
        "fill_ghosts_slip": lambda: gf.fill_ghosts_slip(state, grid, depth=2),
        "relative_energy":
            lambda: renergy.relative_energy(gas, A, (state.rho, theta, u), other, grid),
        "stable_dt": lambda: ns.stable_dt(state, theta, config),
        # the floors write W in place; on an admissible state they change nothing
        "apply_floors": lambda: ns._floor_pass(W, config)[0],
        "nsf_step": nsf_step,
        "nsf_step.batch3": nsf_step_batch3,
        "read_series": lambda: gf.read_series(series, grid),
    }


def _us_per_call(fn, number: int, repeats: int) -> float:
    fn()  # warm: first-use set-up is not timed
    return 1e6 * min(timeit.repeat(fn, number=number, repeat=repeats)) / number


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, nargs="+", default=[48, 384])
    ap.add_argument("--repeats", type=int, default=7, help="repeats; the minimum is reported")
    ap.add_argument("--number", type=int, default=200, help="calls per repeat")
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.number < 1:
        ap.error("--repeats and --number must be at least 1")
    out = {"unit": "us_per_call", "statistic": f"min of {args.repeats} repeats",
           "number": args.number, "numpy": np.__version__, "layers": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for cells in args.cells:
            layers = out["layers"][str(cells)] = {}
            for name, fn in _cases(cells, tmp).items():
                # read_series reads about --number stored instants a repeat
                per = SERIES if name == "read_series" else 1
                us = _us_per_call(fn, max(1, args.number // per), args.repeats) / per
                layers[name] = round(us, 2)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
