"""The per-layer metrics of BENCHMARK.json name public nsflab functions.

The benchmark's tracer wraps the public functions of each module as
<module>.<name>; a metric whose function was renamed, moved or made private
reads 0 and raises no error, so this test checks the names instead.
"""

import importlib
import json
import types
from pathlib import Path

import numpy as np

from nsflab import grid_fields as gf
from nsflab import nsf_solver as ns
from nsflab import thermo

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
STATS = ("calls", "self_s", "s", "us_per_call", "ns_per_cell", "bytes")
# metrics the benchmark derives itself, not from one function's spans
DERIVED_PREFIXES = ("import.", "process.", "trace.")
DERIVED_NAMES = ("cell_steps_per_s", "cache_hit_ratio")
# functions that are gone while BENCHMARK.json still names their metrics:
# thermo.temperature_from_energy went when the relative-energy check began
# to recover temperature through thermo.admissible_temperature.  Each entry
# must not resolve and must still be named by the benchmark, so the list
# empties when the benchmark renames its metrics (ROADMAP item 1).
RETIRED = {"thermo.temperature_from_energy"}


def test_per_layer_metrics_name_public_functions():
    unresolved, retired = [], set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        parts = name.split(".")
        if name.startswith(DERIVED_PREFIXES) or parts[-1] in DERIVED_NAMES:
            continue
        assert parts[-1] in STATS, f"{name}: unknown statistic"
        parts = parts[:-1]
        if parts[-1] in ("a0", "arad"):
            parts = parts[:-1]
        assert len(parts) == 2, f"{name}: expected <module>.<function>"
        module, func = parts
        mod = importlib.import_module(f"nsflab.{module}")
        fn = getattr(mod, func, None)
        if f"{module}.{func}" in RETIRED:
            assert fn is None, f"{name}: listed as retired, but {module}.{func} exists"
            retired.add(f"{module}.{func}")
            continue
        if (func.startswith("_") or not isinstance(fn, types.FunctionType)
                or fn.__module__ != mod.__name__):
            unresolved.append(name)
    assert not unresolved, unresolved
    assert retired == RETIRED, f"retired but no longer named: {RETIRED - retired}"


def test_a_small_run_calls_every_traced_solver_function(ideal, transport, count_calls):
    # a function the time loop stops calling through its module attribute,
    # the one the tracer wraps, reads 0 in the benchmark and raises nothing
    names = sorted({metric["name"].split(".")[1]
                    for metric in json.loads(BENCHMARK.read_text())["per_layer"]
                    if metric["name"].startswith("nsf_solver.")} - set(DERIVED_NAMES))
    assert "step" in names and "simulate" in names
    calls = {name: count_calls(ns, name) for name in names}
    grid = gf.Grid.line(1.0, 16, "slip-wall")
    config = ns.NsfRunConfig(gas=ideal, transport=transport,
                             scaling=thermo.ScalingParams(a=1e-2, nu=1e-2, omega=1e-3, lam=0.5),
                             grid=grid, t_end=0.05, output_stride=2)
    x = gf.cell_centers(grid)[0]
    traj = ns.simulate(config, (1.0 + 0.05 * np.cos(np.pi * x), np.ones(16),
                                (0.05 * np.sin(np.pi * x))[None]))
    assert not traj.aborted and len(traj.times) >= 3
    assert not [name for name in names if not calls[name]]
